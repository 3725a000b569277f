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
// restated for the concurrent tests: an explicit edge list whose BFS
// composition is the ground truth for every relation query.
type bfsOracle struct {
	n     int
	sigma []int64 // hidden valuation: every edge is consistent with it
	adj   [][]int
}

func newBFSOracle(n int, seed int64) *bfsOracle {
	rng := rand.New(rand.NewSource(seed))
	o := &bfsOracle{n: n, sigma: make([]int64, n), adj: make([][]int, n)}
	for i := range o.sigma {
		o.sigma[i] = int64(rng.Intn(4*n) - 2*n)
	}
	return o
}

// label is the consistent Delta label for the edge i --label--> j.
func (o *bfsOracle) label(i, j int) int64 { return o.sigma[j] - o.sigma[i] }

// addEdge records an asserted edge for the reachability ground truth.
func (o *bfsOracle) addEdge(i, j int) {
	o.adj[i] = append(o.adj[i], j)
	o.adj[j] = append(o.adj[j], i)
}

// relation BFSes the asserted edges: related iff connected, and then
// the label is forced by the hidden valuation.
func (o *bfsOracle) relation(i, j int) (int64, bool) {
	if i == j {
		return 0, true
	}
	seen := make([]bool, o.n)
	seen[i] = true
	queue := []int{i}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range o.adj[cur] {
			if seen[nb] {
				continue
			}
			if nb == j {
				return o.label(i, j), true
			}
			seen[nb] = true
			queue = append(queue, nb)
		}
	}
	return 0, false
}

// TestConcurrentStressOracle: N goroutines hammer one concurrent UF
// with a consistent random script of unions interleaved with finds;
// after quiescence every pairwise relation must match the BFS oracle
// exactly (relatedness and label). Run under -race in CI.
func TestConcurrentStressOracle(t *testing.T) {
	const (
		nodes      = 120
		goroutines = 8
		opsPerG    = 400
	)
	oracle := newBFSOracle(nodes, 7)
	u := newUF[int, group.DeltaLabel](group.Delta{}, 16)

	// Pre-generate per-goroutine scripts so the edge ground truth is
	// known up front; all edges are consistent with the hidden
	// valuation, so every assertion must be accepted no matter the
	// interleaving.
	scripts := make([][][2]int, goroutines)
	for g := range scripts {
		rng := rand.New(rand.NewSource(int64(100 + g)))
		for k := 0; k < opsPerG; k++ {
			i, j := rng.Intn(nodes), rng.Intn(nodes)
			scripts[g] = append(scripts[g], [2]int{i, j})
			oracle.addEdge(i, j)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(900 + g)))
			for _, e := range scripts[g] {
				if !u.AddRelation(e[0], e[1], oracle.label(e[0], e[1])) {
					t.Errorf("goroutine %d: consistent add (%d,%d) rejected", g, e[0], e[1])
					return
				}
				// Interleave reads; positive answers must carry the
				// valuation-forced label even mid-stress.
				a, b := rng.Intn(nodes), rng.Intn(nodes)
				if l, ok := u.GetRelation(a, b); ok && l != oracle.label(a, b) {
					t.Errorf("goroutine %d: GetRelation(%d,%d) = %d, want %d",
						g, a, b, l, oracle.label(a, b))
					return
				}
			}
		}(g)
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
			if wantOK && got != want {
				t.Fatalf("relation (%d,%d) = %d, oracle says %d", i, j, got, want)
			}
		}
	}
	if c := u.Stats().Conflicts; c != 0 {
		t.Fatalf("%d conflicts on a consistent script", c)
	}
}

// TestConcurrentStressConflicts: goroutines racing deliberately wrong
// assertions against one fully-connected class must all be rejected
// and must never corrupt the established relations.
func TestConcurrentStressConflicts(t *testing.T) {
	const nodes = 60
	oracle := newBFSOracle(nodes, 21)
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
	oracle := newBFSOracle(nodes, 33)
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
