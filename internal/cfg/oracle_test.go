package cfg

// The textbook SSA construction that Build's one pass replaces, kept as
// its test oracle: a lowering to a graph over declaration indices with no
// φs, dominators by the iterative algorithm of Cooper, Harvey and Kennedy
// ("A Simple, Fast Dominance Algorithm"), dominance frontiers, minimal φ
// placement on the iterated dominance frontier of each variable's
// definitions, and renaming along the dominator tree (Cytron et al.).

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

// lowerPreSSA lowers p to the graph Build gives, but over declaration
// indices, with no φs: each variable is one id, defined at every
// declaration or assignment of it.
func lowerPreSSA(p *lang.Program) *Graph {
	g := &Graph{NumVars: len(p.Vars), VarName: p.Vars, NumAsserts: p.NumAsserts}
	newBlock := func() *Block {
		blk := &Block{ID: len(g.Blocks)}
		g.Blocks = append(g.Blocks, blk)
		return blk
	}
	cur := newBlock()
	var expr func(lang.Expr) Expr
	expr = func(e lang.Expr) Expr {
		switch e := e.(type) {
		case *lang.NumExpr:
			return EConst{V: e.Value}
		case *lang.VarExpr:
			return EVar{ID: e.Var}
		case *lang.NondetExpr:
			return ENondet{Site: e.Site}
		case *lang.BinExpr:
			return EBin{Op: e.Op, L: expr(e.L), R: expr(e.R)}
		case *lang.UnExpr:
			return EUn{Op: e.Op, E: expr(e.E)}
		}
		panic("unknown expression")
	}
	var stmts func([]lang.Stmt)
	stmts = func(ss []lang.Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *lang.DeclStmt:
				cur.Instrs = append(cur.Instrs, IDef{Var: s.Var, E: expr(s.Init), FromSource: true})
			case *lang.AssignStmt:
				cur.Instrs = append(cur.Instrs, IDef{Var: s.Var, E: expr(s.E), FromSource: true})
			case *lang.AssertStmt:
				cur.Instrs = append(cur.Instrs, IAssert{E: expr(s.Cond), ID: s.ID, Pos: s.Pos})
			case *lang.AssumeStmt:
				cur.Instrs = append(cur.Instrs, IAssume{E: expr(s.Cond)})
			case *lang.IfStmt:
				cond := expr(s.Cond)
				thenB, elseB, joinB := newBlock(), newBlock(), newBlock()
				cur.Term = Term{Kind: TermBranch, Cond: cond, To: thenB.ID, Else: elseB.ID}
				thenB.Instrs = append(thenB.Instrs, IAssume{E: cond, FromBranch: true})
				cur = thenB
				stmts(s.Then)
				cur.Term = Term{Kind: TermJump, To: joinB.ID}
				elseB.Instrs = append(elseB.Instrs, IAssume{E: negate(cond), FromBranch: true})
				cur = elseB
				stmts(s.Else)
				cur.Term = Term{Kind: TermJump, To: joinB.ID}
				cur = joinB
			case *lang.WhileStmt:
				headB, bodyB, exitB := newBlock(), newBlock(), newBlock()
				cur.Term = Term{Kind: TermJump, To: headB.ID}
				cond := expr(s.Cond)
				headB.Term = Term{Kind: TermBranch, Cond: cond, To: bodyB.ID, Else: exitB.ID}
				bodyB.Instrs = append(bodyB.Instrs, IAssume{E: cond, FromBranch: true})
				cur = bodyB
				stmts(s.Body)
				cur.Term = Term{Kind: TermJump, To: headB.ID}
				exitB.Instrs = append(exitB.Instrs, IAssume{E: negate(cond), FromBranch: true})
				cur = exitB
			}
		}
	}
	stmts(p.Stmts)
	cur.Term = Term{Kind: TermHalt}
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs() {
			g.Blocks[s].Preds = append(g.Blocks[s].Preds, blk.ID)
		}
	}
	return g
}

// renamer carries the state of the dominator-tree renaming walk.
type renamer struct {
	g        *Graph
	dom      *oracleDom
	stacks   [][]int
	phiSrc   map[phiKey]int
	oldNames []string
}

type phiKey struct{ block, idx int }

// rename walks the dominator tree renaming variables to fresh SSA values.
func rename(g *Graph, dom *oracleDom) {
	r := &renamer{
		g:        g,
		dom:      dom,
		stacks:   make([][]int, g.NumVars),
		phiSrc:   map[phiKey]int{},
		oldNames: g.VarName,
	}
	// SSA value table; value 0 is undef.
	g.NumVars = 1
	g.VarName = []string{"undef"}
	r.walk(0)
}

func (r *renamer) newVal(src int) int {
	id := r.g.NumVars
	r.g.NumVars++
	r.g.VarName = append(r.g.VarName, r.oldNames[src])
	return id
}

func (r *renamer) top(v int) int {
	s := r.stacks[v]
	if len(s) == 0 {
		return 0 // undef
	}
	return s[len(s)-1]
}

// rewrite renames the uses in e. A use with no reaching definition
// becomes v0, which Validate rejects; Build never emits one.
func (r *renamer) rewrite(e Expr) Expr {
	switch e := e.(type) {
	case EVar:
		return EVar{ID: r.top(e.ID)}
	case EBin:
		return EBin{Op: e.Op, L: r.rewrite(e.L), R: r.rewrite(e.R)}
	case EUn:
		return EUn{Op: e.Op, E: r.rewrite(e.E)}
	default:
		return e
	}
}

func (r *renamer) walk(b int) {
	blk := r.g.Blocks[b]
	pushed := map[int]int{} // source var -> push count in this block
	for i, in := range blk.Instrs {
		switch in := in.(type) {
		case IPhi:
			nv := r.newVal(in.Var)
			r.stacks[in.Var] = append(r.stacks[in.Var], nv)
			pushed[in.Var]++
			r.phiSrc[phiKey{b, i}] = in.Var
			blk.Instrs[i] = IPhi{Var: nv, Args: in.Args} // keep args filled by already-walked preds
		case IDef:
			ne := r.rewrite(in.E)
			nv := r.newVal(in.Var)
			r.stacks[in.Var] = append(r.stacks[in.Var], nv)
			pushed[in.Var]++
			blk.Instrs[i] = IDef{Var: nv, E: ne, FromSource: in.FromSource}
		case IAssume:
			blk.Instrs[i] = IAssume{E: r.rewrite(in.E), FromBranch: in.FromBranch}
		case IAssert:
			blk.Instrs[i] = IAssert{E: r.rewrite(in.E), ID: in.ID, Pos: in.Pos}
		}
	}
	if blk.Term.Kind == TermBranch {
		blk.Term.Cond = r.rewrite(blk.Term.Cond)
	}
	// Fill φ args in successors: the incoming value on the edge b → s is
	// whatever is on top of the source variable's stack at the end of b.
	for _, s := range blk.Succs() {
		sb := r.g.Blocks[s]
		for i, in := range sb.Instrs {
			phi, ok := in.(IPhi)
			if !ok {
				break // φs come first
			}
			src, renamed := r.phiSrc[phiKey{s, i}]
			if !renamed {
				// Successor not walked yet: the φ still carries its
				// source variable id.
				src = phi.Var
			}
			phi.Args = append(phi.Args, PhiArg{Pred: b, Var: r.top(src)})
			sb.Instrs[i] = phi
		}
	}
	for _, c := range r.dom.Children[b] {
		r.walk(c)
	}
	for v, n := range pushed {
		r.stacks[v] = r.stacks[v][:len(r.stacks[v])-n]
	}
}

// checkSSAOracle builds prog's SSA in one pass with Build and with the
// textbook pipeline, fails t unless both print byte-identically with the
// same value names and RPO, and returns Build's graph.
func checkSSAOracle(t *testing.T, name string, prog *lang.Program) *Graph {
	t.Helper()
	g := Build(prog)
	dom := ToSSA(g)
	if err := Validate(g, dom); err != nil {
		t.Fatalf("%s: %v\n%s", name, err, g)
	}

	og := lowerPreSSA(prog)
	od := chkDominators(og)
	if len(od.RPO) != len(og.Blocks) {
		t.Fatalf("%s: %d of %d blocks reachable\n%s", name, len(od.RPO), len(og.Blocks), og)
	}
	insertPhis(og, od)
	rename(og, od)

	if got, want := g.String(), og.String(); got != want {
		t.Fatalf("%s: one-pass SSA differs from the oracle's\nprogram:\n%s\none-pass:\n%s\noracle:\n%s",
			name, prog, got, want)
	}
	if !slices.Equal(g.VarName, og.VarName) {
		t.Fatalf("%s: value names %q, oracle %q", name, g.VarName, og.VarName)
	}
	if !slices.Equal(dom.RPO, od.RPO) || !slices.Equal(dom.RPONum, od.RPONum) {
		t.Fatalf("%s: RPO %v / %v, oracle %v / %v", name, dom.RPO, dom.RPONum, od.RPO, od.RPONum)
	}
	return g
}

// TestSyntacticSSAMatchesOracle: on the 584-program corpus (which holds
// the handcrafted programs) and 3,000 seeded random programs, Build's
// one-pass SSA is, byte for byte, the SSA that dominators, iterated
// dominance frontiers and a rename along CHK's tree give.
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
// accepts, and runs the program under lang.Run and RunSSA on fixed input
// streams, which must agree (see compareRuns). corpus.Random never
// shadows a name, so this is the differential check that reaches
// shadowing. Seeds: FuzzParse's (internal/lang), nested regions,
// declarations whose initializer names the declared variable, and
// shadowing declarations.
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
		"int x = 1; if (x > 0) { int x = 2; } assert(x == 1);",
		"int x = 1; int i = 0; while (i < 2) { int x = 5; x = x + 1; i = i + 1; } assert(x == 1);",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	inputs := [][]int64{nil, {3, -7, 0, 42, 1, -1, 5}, {-2, 9, 1, 0, -30, 2, 7}}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lang.Parse(src)
		if err != nil {
			return
		}
		g := checkSSAOracle(t, "fuzz", prog)
		for _, in := range inputs {
			compareRuns(t, "fuzz", prog, g, in, 2000)
		}
	})
}
