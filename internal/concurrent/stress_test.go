package concurrent

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	"luf/internal/cert"
	"luf/internal/group"
)

// bfsOracle is the brute-force reference of FuzzUFOracle (internal/core),
// restated for the concurrent tests over any label group: an explicit
// list of asserted edges, whose BFS composition is the ground truth for
// every relation query. It also holds a hidden valuation σ, one group
// element per node, for scripts that must be consistent by
// construction.
type bfsOracle[L any] struct {
	g     group.Group[L]
	n     int
	sigma []L // hidden valuation
	adj   [][]oracleEdge[L]
}

// oracleEdge is one direction of an asserted edge: from --label--> to.
type oracleEdge[L any] struct {
	to    int
	label L
}

// newBFSOracle draws the hidden valuation of n nodes with draw.
func newBFSOracle[L any](g group.Group[L], n int, seed int64, draw func(*rand.Rand) L) *bfsOracle[L] {
	rng := rand.New(rand.NewSource(seed))
	o := &bfsOracle[L]{g: g, n: n, sigma: make([]L, n), adj: make([][]oracleEdge[L], n)}
	for i := range o.sigma {
		o.sigma[i] = draw(rng)
	}
	return o
}

// newDeltaOracle is a bfsOracle over Delta with valuations in [-2n, 2n).
func newDeltaOracle(n int, seed int64) *bfsOracle[group.DeltaLabel] {
	return newBFSOracle[group.DeltaLabel](group.Delta{}, n, seed, func(rng *rand.Rand) group.DeltaLabel {
		return int64(rng.Intn(4*n) - 2*n)
	})
}

// newPermOracle is a bfsOracle over S₃, which is not commutative.
func newPermOracle(n int, seed int64) *bfsOracle[group.PermLabel] {
	return newBFSOracle[group.PermLabel](group.MustPerm(3), n, seed, drawPerm)
}

// drawPerm draws a uniform element of S₃.
func drawPerm(rng *rand.Rand) group.PermLabel { return group.PermLabel(rng.Perm(3)) }

// label is the label σ(i)⁻¹·σ(j) of the edge i --label--> j that the
// hidden valuation forces (σ(j) - σ(i) over Delta). Labels along any
// path i, k, …, j compose to label(i, j), so a script of them never
// conflicts.
func (o *bfsOracle[L]) label(i, j int) L {
	return o.g.Compose(o.g.Inverse(o.sigma[i]), o.sigma[j])
}

// addEdge records the asserted edge i --l--> j.
func (o *bfsOracle[L]) addEdge(i, j int, l L) {
	o.adj[i] = append(o.adj[i], oracleEdge[L]{j, l})
	o.adj[j] = append(o.adj[j], oracleEdge[L]{i, o.g.Inverse(l)})
}

// relation BFSes the asserted edges from i, composing labels along the
// way: related iff connected, with the composed label of the path found.
func (o *bfsOracle[L]) relation(i, j int) (L, bool) {
	seen := make([]bool, o.n)
	acc := make([]L, o.n)
	seen[i], acc[i] = true, o.g.Identity()
	queue := []int{i}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == j {
			return acc[cur], true
		}
		for _, e := range o.adj[cur] {
			if !seen[e.to] {
				seen[e.to], acc[e.to] = true, o.g.Compose(acc[cur], e.label)
				queue = append(queue, e.to)
			}
		}
	}
	var zero L
	return zero, false
}

// TestConcurrentStressOracle: N goroutines hammer one concurrent UF
// with a consistent random script of unions interleaved with finds;
// after quiescence every pairwise relation must match the BFS oracle
// exactly (relatedness and label). Run under -race in CI.
func TestConcurrentStressOracle(t *testing.T) {
	stressOracle(t, newDeltaOracle(120, 7))
}

// TestConcurrentStressOraclePerm is TestConcurrentStressOracle over S₃.
// Delta labels commute, so only this variant checks the order in which
// findID, halve and GetRelation compose labels.
func TestConcurrentStressOraclePerm(t *testing.T) {
	stressOracle(t, newPermOracle(120, 7))
}

// stressOracle is TestConcurrentStressOracle's body over the oracle's
// nodes and label group.
func stressOracle[L any](t *testing.T, oracle *bfsOracle[L]) {
	const (
		goroutines = 8
		opsPerG    = 400
	)
	g, nodes := oracle.g, oracle.n
	u := newUF[int, L](g, 16)

	// Pre-generate per-goroutine scripts so the edge ground truth is
	// known up front; all edges are consistent with the hidden
	// valuation, so every assertion must be accepted no matter the
	// interleaving.
	scripts := make([][][2]int, goroutines)
	for w := range scripts {
		rng := rand.New(rand.NewSource(int64(100 + w)))
		for k := 0; k < opsPerG; k++ {
			i, j := rng.Intn(nodes), rng.Intn(nodes)
			scripts[w] = append(scripts[w], [2]int{i, j})
			oracle.addEdge(i, j, oracle.label(i, j))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(900 + w)))
			for _, e := range scripts[w] {
				if !u.AddRelation(e[0], e[1], oracle.label(e[0], e[1])) {
					t.Errorf("goroutine %d: consistent add (%d,%d) rejected", w, e[0], e[1])
					return
				}
				// Interleave reads; positive answers must carry the
				// valuation-forced label even mid-stress.
				a, b := rng.Intn(nodes), rng.Intn(nodes)
				if l, ok := u.GetRelation(a, b); ok && !g.Equal(l, oracle.label(a, b)) {
					t.Errorf("goroutine %d: GetRelation(%d,%d) = %s, want %s",
						w, a, b, g.Format(l), g.Format(oracle.label(a, b)))
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Quiescent cross-check of all pairs against the oracle.
	for i := 0; i < nodes; i++ {
		for j := 0; j < nodes; j++ {
			want, wantOK := oracle.relation(i, j)
			got, gotOK := u.GetRelation(i, j)
			if wantOK != gotOK {
				t.Fatalf("relation (%d,%d): related=%v, oracle says %v", i, j, gotOK, wantOK)
			}
			if wantOK && !g.Equal(got, want) {
				t.Fatalf("relation (%d,%d) = %s, oracle says %s", i, j, g.Format(got), g.Format(want))
			}
		}
	}
	if c := u.Stats().Conflicts; c != 0 {
		t.Fatalf("%d conflicts on a consistent script", c)
	}
}

// FuzzConcurrentOraclePerm is core's FuzzUFOraclePerm for the serving
// core: one goroutine runs a random script of S₃ assertions, conflicts
// included, against the BFS oracle. Each add must be accepted exactly
// when the oracle does not already imply a different label, and every
// pair must then match. A random script over 25 nodes builds paths of
// several hops, which findID composes and halve compresses.
func FuzzConcurrentOraclePerm(f *testing.F) {
	f.Add(int64(1), uint(40))
	f.Add(int64(7), uint(200))
	f.Add(int64(42), uint(3))
	f.Add(int64(-9), uint(120))
	f.Fuzz(func(t *testing.T, seed int64, ops uint) {
		if ops > 500 {
			ops = 500
		}
		const nodes = 25
		g := group.MustPerm(3)
		oracle := newBFSOracle[group.PermLabel](g, nodes, seed, drawPerm)
		u := New[int, group.PermLabel](g)
		rng := rand.New(rand.NewSource(seed))
		for i := uint(0); i < ops; i++ {
			n, m, l := rng.Intn(nodes), rng.Intn(nodes), drawPerm(rng)
			want, related := oracle.relation(n, m)
			ok := u.AddRelation(n, m, l)
			if related && !g.Equal(want, l) {
				if ok {
					t.Fatalf("op %d: conflicting add (%d,%d,%s) accepted; existing %s", i, n, m, g.Format(l), g.Format(want))
				}
				continue
			}
			if !ok {
				t.Fatalf("op %d: consistent add (%d,%d,%s) rejected", i, n, m, g.Format(l))
			}
			oracle.addEdge(n, m, l)
		}
		for n := 0; n < nodes; n++ {
			for m := 0; m < nodes; m++ {
				want, wantOK := oracle.relation(n, m)
				got, gotOK := u.GetRelation(n, m)
				if wantOK != gotOK {
					t.Fatalf("relation (%d,%d): related=%v, oracle says %v", n, m, gotOK, wantOK)
				}
				if wantOK && !g.Equal(got, want) {
					t.Fatalf("relation (%d,%d) = %s, oracle says %s", n, m, g.Format(got), g.Format(want))
				}
			}
		}
	})
}

// TestConcurrentStressConflicts: goroutines racing deliberately wrong
// assertions against one fully-connected class must all be rejected
// and must never corrupt the established relations.
func TestConcurrentStressConflicts(t *testing.T) {
	const nodes = 60
	oracle := newDeltaOracle(nodes, 21)
	u := New[int, group.DeltaLabel](group.Delta{})
	for i := 1; i < nodes; i++ {
		u.AddRelation(0, i, oracle.label(0, i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for k := 0; k < 300; k++ {
				i, j := rng.Intn(nodes), rng.Intn(nodes)
				if i == j {
					continue
				}
				// A label off by a nonzero delta always contradicts
				// the established (valuation-forced) relation.
				if u.AddRelation(i, j, oracle.label(i, j)+1+int64(rng.Intn(5))) {
					t.Errorf("goroutine %d: conflicting add (%d,%d) accepted", g, i, j)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < nodes; i++ {
		if l, ok := u.GetRelation(0, i); !ok || l != oracle.label(0, i) {
			t.Fatalf("relation (0,%d) corrupted: %d, %v; want %d", i, l, ok, oracle.label(0, i))
		}
	}
}

// TestConcurrentCertifiedRace: concurrent writers with a certificate
// journal attached plus concurrent readers — the data-race guarantee
// test (meaningful under -race) — and, after quiescence, certificates
// for every reported relation must be accepted by the independent
// checker.
func TestConcurrentCertifiedRace(t *testing.T) {
	const (
		nodes      = 80
		goroutines = 6
		opsPerG    = 250
	)
	oracle := newDeltaOracle(nodes, 33)
	j := cert.NewJournal[int, group.DeltaLabel](group.Delta{})
	u := New[int, group.DeltaLabel](group.Delta{}, WithJournal[int, group.DeltaLabel](j))

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g * 13)))
			for k := 0; k < opsPerG; k++ {
				if g%2 == 0 {
					a, b := rng.Intn(nodes), rng.Intn(nodes)
					u.AddRelationReason(a, b, oracle.label(a, b), fmt.Sprintf("w%d#%d", g, k))
				} else {
					u.GetRelation(rng.Intn(nodes), rng.Intn(nodes))
				}
			}
		}(g)
	}
	wg.Wait()

	// Every relation the structure reports must admit a journal
	// certificate that the independent checker accepts.
	checked := 0
	for i := 0; i < nodes; i++ {
		for k := 0; k < nodes; k += 7 {
			ans, ok := u.GetRelation(i, k)
			if !ok {
				continue
			}
			c, err := j.Explain(i, k)
			if err != nil {
				t.Fatalf("Explain(%d,%d): %v", i, k, err)
			}
			c.Label = ans
			if err := cert.Check(c, group.Delta{}); err != nil {
				t.Fatalf("certificate for (%d,%d) rejected: %v", i, k, err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no relations to certify — stress script built nothing")
	}
}

// TestConcurrentNoSyncMap: the package promises a flat atomic slot
// array with a sharded RCU interner, not sync.Map (whose iteration and
// miss costs fit neither the read path nor the validation protocol).
// Enforce the guarantee at the source level, the same way
// internal/cert enforces checker independence.
func TestConcurrentNoSyncMap(t *testing.T) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "sync" && sel.Sel.Name == "Map" {
				t.Errorf("%s: sync.Map used at %s", name, fset.Position(sel.Pos()))
			}
			return true
		})
	}
}
