package cfg

// The general SSA construction that Build's syntactic φ placement and
// dominator tree replace, kept as their test oracle: dominators by the
// iterative algorithm of Cooper, Harvey and Kennedy ("A Simple, Fast
// Dominance Algorithm"), dominance frontiers, and minimal φ placement on
// the iterated dominance frontier of each variable's definitions (Cytron
// et al.).

import (
	"math/rand"
	"slices"
	"testing"

	"luf/internal/analyzer/corpus"
	"luf/internal/lang"
)

// oracleDom holds dominator information for a graph.
type oracleDom struct {
	// IDom[b] is the immediate dominator of block b (-1 for the entry and
	// unreachable blocks).
	IDom []int
	// RPO is a reverse post-order of the reachable blocks.
	RPO []int
	// RPONum[b] is b's position in RPO (-1 when unreachable).
	RPONum []int
	// Frontier[b] is the dominance frontier of block b.
	Frontier [][]int
	// Children[b] are the dominator-tree children of b.
	Children [][]int
}

// chkDominators computes dominator information for g.
func chkDominators(g *Graph) *oracleDom {
	n := len(g.Blocks)
	d := &oracleDom{
		IDom:     make([]int, n),
		RPONum:   make([]int, n),
		Frontier: make([][]int, n),
		Children: make([][]int, n),
	}
	for i := range d.IDom {
		d.IDom[i] = -1
		d.RPONum[i] = -1
	}
	// Depth-first post-order from the entry.
	visited := make([]bool, n)
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		visited[b] = true
		for _, s := range g.Blocks[b].Succs() {
			if !visited[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(0)
	for i := len(post) - 1; i >= 0; i-- {
		d.RPONum[post[i]] = len(d.RPO)
		d.RPO = append(d.RPO, post[i])
	}
	// Iterative dominator fixpoint.
	d.IDom[0] = 0
	for changed := true; changed; {
		changed = false
		for _, b := range d.RPO {
			if b == 0 {
				continue
			}
			newIDom := -1
			for _, p := range g.Blocks[b].Preds {
				if d.RPONum[p] == -1 || d.IDom[p] == -1 {
					continue // unreachable or not yet processed
				}
				if newIDom == -1 {
					newIDom = p
				} else {
					newIDom = d.intersect(p, newIDom)
				}
			}
			if newIDom != -1 && d.IDom[b] != newIDom {
				d.IDom[b] = newIDom
				changed = true
			}
		}
	}
	d.IDom[0] = -1 // entry has no immediate dominator
	// Dominator-tree children.
	for b, idom := range d.IDom {
		if idom >= 0 {
			d.Children[idom] = append(d.Children[idom], b)
		}
	}
	// Dominance frontiers (CHK).
	for _, b := range d.RPO {
		preds := g.Blocks[b].Preds
		if len(preds) < 2 {
			continue
		}
		for _, p := range preds {
			if d.RPONum[p] == -1 {
				continue
			}
			runner := p
			for runner != d.IDom[b] && runner != -1 {
				d.Frontier[runner] = appendUnique(d.Frontier[runner], b)
				if runner == 0 {
					break
				}
				runner = d.IDom[runner]
			}
		}
	}
	return d
}

// intersect walks up the dominator tree from two nodes to their common
// ancestor, comparing by RPO number.
func (d *oracleDom) intersect(a, b int) int {
	for a != b {
		for d.RPONum[a] > d.RPONum[b] {
			a = d.IDom[a]
		}
		for d.RPONum[b] > d.RPONum[a] {
			b = d.IDom[b]
		}
	}
	return a
}

// Dominates reports whether a dominates b (reflexively).
func (d *oracleDom) Dominates(a, b int) bool {
	for {
		if a == b {
			return true
		}
		if b == 0 || d.IDom[b] == -1 {
			return false
		}
		b = d.IDom[b]
	}
}

func appendUnique(s []int, v int) []int {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}

// insertPhis places empty φs (minimal SSA: iterated dominance frontier of
// each variable's definition sites). φ args are filled during renaming.
func insertPhis(g *Graph, dom *oracleDom) {
	// Definition sites per source variable.
	defSites := make([][]int, g.NumVars)
	for _, b := range g.Blocks {
		if dom.RPONum[b.ID] == -1 {
			continue
		}
		seen := map[int]bool{}
		for _, in := range b.Instrs {
			if def, ok := in.(IDef); ok && !seen[def.Var] {
				seen[def.Var] = true
				defSites[def.Var] = append(defSites[def.Var], b.ID)
			}
		}
	}
	for v := 0; v < g.NumVars; v++ {
		hasPhi := map[int]bool{}
		work := append([]int(nil), defSites[v]...)
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, f := range dom.Frontier[b] {
				if hasPhi[f] {
					continue
				}
				hasPhi[f] = true
				blk := g.Blocks[f]
				// Prepend the φ (φs come first in a block).
				blk.Instrs = append([]Instr{IPhi{Var: v}}, blk.Instrs...)
				work = append(work, f)
			}
		}
	}
}

// checkSSAOracle converts prog to SSA twice — with Build's φs and
// dominator tree, and with the ones the oracle computes from the graph —
// and fails t unless both print byte-identically with the same RPO and
// Build's dominator tree is CHK's.
func checkSSAOracle(t *testing.T, name string, prog *lang.Program) {
	t.Helper()
	g := Build(prog)
	dom := ToSSA(g)
	if err := Validate(g, dom); err != nil {
		t.Fatalf("%s: %v\n%s", name, err, g)
	}

	og := Build(prog)
	od := chkDominators(og)
	if len(od.RPO) != len(og.Blocks) {
		t.Fatalf("%s: %d of %d blocks reachable\n%s", name, len(od.RPO), len(og.Blocks), og)
	}
	for b := range og.Blocks {
		if !slices.Equal(og.children[b], od.Children[b]) {
			t.Fatalf("%s: block %d: Build's dominator-tree children %v, CHK's %v\n%s",
				name, b, og.children[b], od.Children[b], og)
		}
	}
	for _, blk := range og.Blocks {
		blk.Instrs = slices.DeleteFunc(blk.Instrs, func(in Instr) bool {
			_, ok := in.(IPhi)
			return ok
		})
	}
	insertPhis(og, od)
	rename(og, &DomInfo{RPO: od.RPO, RPONum: od.RPONum, Children: od.Children})
	og.InSSA = true

	if got, want := g.String(), og.String(); got != want {
		t.Fatalf("%s: syntactic SSA differs from the oracle's\nprogram:\n%s\nsyntactic:\n%s\noracle:\n%s",
			name, prog, got, want)
	}
	if !slices.Equal(dom.RPO, od.RPO) || !slices.Equal(dom.RPONum, od.RPONum) {
		t.Fatalf("%s: RPO %v / %v, oracle %v / %v", name, dom.RPO, dom.RPONum, od.RPO, od.RPONum)
	}
}

// TestSyntacticSSAMatchesOracle: on the 584-program corpus (which holds
// the handcrafted programs) and 3,000 seeded random programs, Build's φs
// and dominator tree give the same SSA, byte for byte, as dominators,
// iterated dominance frontiers and a rename along CHK's tree.
func TestSyntacticSSAMatchesOracle(t *testing.T) {
	for _, cp := range corpus.Scaled(584) {
		checkSSAOracle(t, cp.Name, lang.MustParse(cp.Src))
	}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 1000; i++ {
			src := corpus.Random(rng)
			prog, err := lang.Parse(src)
			if err != nil {
				t.Fatalf("seed %d program %d does not parse: %v\n%s", seed, i, err, src)
			}
			checkSSAOracle(t, "random", prog)
		}
	}
}

// FuzzSSAOracle runs the same comparison on any program lang.Parse
// accepts. Seeds: FuzzParse's (internal/lang), nested regions, and
// declarations whose initializer names the declared variable.
func FuzzSSAOracle(f *testing.F) {
	seeds := []string{
		"",
		"int x = 1;",
		"int x = nondet(); while (x > 0) { x = x - 1; }",
		"int a = 1; if (a == 1 && !(a < 0)) { a = 2; } else { a = 3; }",
		"assert(1);",
		"int x = 1; assume(x != 2); assert(x % 2 == 1);",
		"int x = ((1));",
		"int x = 1; // comment\nx = 2; /* block */",
		"while (1) {",
		"int int = 3;",
		"int x = 9999999999999999999999;",
		"}{)(",
		"int x = 1; int y = x / 0;",
		"int i = 0; while (i < 3) { int t = i; if (t > 1) { i = i + 2; } else { while (t > 0) { t = t - 1; } } i = i + 1; }",
		"int x = 0; int y = 0; if (nondet() > 0) { if (nondet() > 0) { x = 1; } } else { int z = 2; y = z; }",
		"int i = i;",
		"int i = 1; if (i > 0) { int i = i + 1; }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lang.Parse(src)
		if err != nil {
			return
		}
		checkSSAOracle(t, "fuzz", prog)
	})
}
