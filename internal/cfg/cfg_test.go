package cfg

import (
	"fmt"
	"math/rand"
	"testing"

	"luf/internal/analyzer/corpus"
	"luf/internal/lang"
)

func build(t *testing.T, src string) *Graph {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return Build(prog)
}

func TestBuildStraightLine(t *testing.T) {
	prog := lang.MustParse("int x = 1; int y = x + 2; assert(y == 3);")
	if len(prog.Vars) != 2 {
		t.Errorf("Vars = %q", prog.Vars)
	}
	g := Build(prog)
	if len(g.Blocks) != 1 {
		t.Fatalf("blocks = %d", len(g.Blocks))
	}
	if g.NumVars != 3 { // undef, x, y
		t.Errorf("NumVars = %d", g.NumVars)
	}
	if g.Blocks[0].Term.Kind != TermHalt {
		t.Error("entry should halt")
	}
}

func TestBuildIf(t *testing.T) {
	g := build(t, "int x = 1; if (x > 0) { x = 2; } else { x = 3; } x = x + 1;")
	// entry, then, else, join.
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d", len(g.Blocks))
	}
	if g.Blocks[0].Term.Kind != TermBranch {
		t.Fatal("entry should branch")
	}
	join := g.Blocks[3]
	if len(join.Preds) != 2 {
		t.Errorf("join preds = %v", join.Preds)
	}
}

func TestBuildWhile(t *testing.T) {
	g := build(t, "int i = 0; while (i < 3) { i = i + 1; }")
	// entry, head, body, exit.
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d:\n%s", len(g.Blocks), g)
	}
	head := g.Blocks[1]
	if head.Term.Kind != TermBranch {
		t.Fatal("head should branch")
	}
	if len(head.Preds) != 2 {
		t.Errorf("loop head preds = %v (entry + backedge)", head.Preds)
	}
}

func TestDominatorsDiamond(t *testing.T) {
	g := build(t, "int x = nondet(); if (x > 0) { x = 1; } else { x = 2; } assert(x > 0);")
	d := chkDominators(g)
	// Entry dominates everything; join's idom is entry.
	if d.IDom[3] != 0 {
		t.Errorf("idom(join) = %d", d.IDom[3])
	}
	if !d.Dominates(0, 3) || d.Dominates(1, 3) || d.Dominates(2, 3) {
		t.Error("Dominates wrong on diamond")
	}
	// Dominance frontier of then/else is the join.
	for _, b := range []int{1, 2} {
		if len(d.Frontier[b]) != 1 || d.Frontier[b][0] != 3 {
			t.Errorf("DF(%d) = %v", b, d.Frontier[b])
		}
	}
}

func TestDominatorsLoop(t *testing.T) {
	g := build(t, "int i = 0; while (i < 3) { i = i + 1; }")
	d := chkDominators(g)
	// head (1) dominates body (2) and exit (3).
	if !d.Dominates(1, 2) || !d.Dominates(1, 3) {
		t.Error("loop head must dominate body and exit")
	}
	// Head is in its own dominance frontier (back edge).
	found := false
	for _, f := range d.Frontier[2] {
		if f == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("DF(body) = %v should include head", d.Frontier[2])
	}
}

func TestSSAPhiPlacement(t *testing.T) {
	g := build(t, `
int x = 0;
if (nondet() > 0) { x = 1; } else { x = 2; }
assert(x > 0);
`)
	dom := ToSSA(g)
	if err := Validate(g, dom); err != nil {
		t.Fatal(err)
	}
	// Exactly one φ, in the join block, with two args.
	phis := 0
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if p, ok := in.(IPhi); ok {
				phis++
				if len(p.Args) != 2 {
					t.Errorf("φ args = %d", len(p.Args))
				}
				if b.ID != 3 {
					t.Errorf("φ in block %d", b.ID)
				}
			}
		}
	}
	if phis != 1 {
		t.Errorf("phis = %d:\n%s", phis, g)
	}
}

func TestSSALoopPhi(t *testing.T) {
	g := build(t, "int i = 0; int j = 4; while (i < 10) { i = i + 1; j = j + 3; }")
	dom := ToSSA(g)
	if err := Validate(g, dom); err != nil {
		t.Fatal(err)
	}
	// Loop head gets φs for i and j.
	head := g.Blocks[1]
	phis := 0
	for _, in := range head.Instrs {
		if _, ok := in.(IPhi); ok {
			phis++
		}
	}
	if phis != 2 {
		t.Errorf("loop head phis = %d:\n%s", phis, g)
	}
}

// headPhis returns the φs at the start of block b.
func headPhis(g *Graph, b int) []IPhi {
	var phis []IPhi
	for _, in := range g.Blocks[b].Instrs {
		p, ok := in.(IPhi)
		if !ok {
			break
		}
		phis = append(phis, p)
	}
	return phis
}

// TestSSALoopDeclPhi: a variable declared inside a loop body is defined
// in the body, so the header gets a φ for it whose argument from the
// pre-header is undef (value 0) — minimal, not pruned, SSA.
func TestSSALoopDeclPhi(t *testing.T) {
	g := build(t, "int i = 0; while (i < 3) { int t = i; i = i + t + 1; }")
	dom := ToSSA(g)
	if err := Validate(g, dom); err != nil {
		t.Fatal(err)
	}
	phis := headPhis(g, 1)
	if len(phis) != 2 {
		t.Fatalf("loop head phis = %d:\n%s", len(phis), g)
	}
	found := false
	for _, p := range phis {
		if g.VarName[p.Var] != "t" {
			continue
		}
		found = true
		for _, a := range p.Args {
			if a.Pred == 0 && a.Var != 0 {
				t.Errorf("t's φ takes v%d from the pre-header, want undef:\n%s", a.Var, g)
			}
		}
	}
	if !found {
		t.Errorf("no header φ for t:\n%s", g)
	}
}

// TestSSANestedWhilePhis: a while nested in a then-branch puts a φ for
// the variable it assigns at its own header and at the if-join.
func TestSSANestedWhilePhis(t *testing.T) {
	g := build(t, "int x = 0; if (nondet() > 0) { while (x < 5) { x = x + 1; } } assert(x >= 0);")
	dom := ToSSA(g)
	if err := Validate(g, dom); err != nil {
		t.Fatal(err)
	}
	// entry 0 branches to then 1, else 2, join 3; the while in the then
	// branch has header 4, body 5 and exit 6.
	for _, b := range []int{3, 4} {
		phis := headPhis(g, b)
		if len(phis) != 1 || g.VarName[phis[0].Var] != "x" {
			t.Errorf("block %d: φs %v, want one for x:\n%s", b, phis, g)
		}
	}
}

// TestSSAJoinArgOrder: a join φ's arguments come in lowering order,
// [then-branch end, else-branch end], not in Preds order. The
// then-branch's nested if ends in block 6, so the join's φ lists b6
// before b2 while its Preds are [2 6].
func TestSSAJoinArgOrder(t *testing.T) {
	g := build(t, "int x = 0; if (nondet() > 0) { if (nondet() > 0) { x = 1; } } else { x = 2; } assert(x >= 0);")
	dom := ToSSA(g)
	if err := Validate(g, dom); err != nil {
		t.Fatal(err)
	}
	join := g.Blocks[3]
	if len(join.Preds) != 2 || join.Preds[0] != 2 || join.Preds[1] != 6 {
		t.Fatalf("join preds = %v, want [2 6]:\n%s", join.Preds, g)
	}
	phis := headPhis(g, 3)
	if len(phis) != 1 {
		t.Fatalf("join phis = %d:\n%s", len(phis), g)
	}
	if a := phis[0].Args; len(a) != 2 || a[0].Pred != 6 || a[1].Pred != 2 {
		t.Errorf("join φ args %v, want from b6 then b2:\n%s", a, g)
	}
}

// TestValidatePhiPreds: Validate rejects a φ with an argument from a
// block that is not a predecessor, or none or two from a predecessor,
// even when the argument count matches.
func TestValidatePhiPreds(t *testing.T) {
	// b0 branches to b1 and b2, which both jump to b3; v1 is defined in
	// b1, v2 in b2, and v3 := φ(...) at b3.
	graph := func(args ...PhiArg) *Graph {
		return &Graph{
			NumVars: 4,
			VarName: []string{"undef", "x", "x", "x"},
			Blocks: []*Block{
				{ID: 0, Term: Term{Kind: TermBranch, Cond: ENondet{}, To: 1, Else: 2}},
				{ID: 1, Instrs: []Instr{IDef{Var: 1, E: EConst{V: 1}}}, Term: Term{Kind: TermJump, To: 3}, Preds: []int{0}},
				{ID: 2, Instrs: []Instr{IDef{Var: 2, E: EConst{V: 2}}}, Term: Term{Kind: TermJump, To: 3}, Preds: []int{0}},
				{ID: 3, Instrs: []Instr{IPhi{Var: 3, Args: args}}, Term: Term{Kind: TermHalt}, Preds: []int{1, 2}},
			},
		}
	}
	ok := graph(PhiArg{Pred: 2, Var: 2}, PhiArg{Pred: 1, Var: 1})
	if err := Validate(ok, ToSSA(ok)); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	for _, args := range [][]PhiArg{
		{{Pred: 1, Var: 1}, {Pred: 0, Var: 2}}, // b0 is not a predecessor of b3
		{{Pred: 1, Var: 1}, {Pred: 1, Var: 2}}, // two from b1, none from b2
	} {
		g := graph(args...)
		if err := Validate(g, ToSSA(g)); err == nil {
			t.Errorf("φ args %v accepted:\n%s", args, g)
		}
	}
}

func TestRunSSAFigure8(t *testing.T) {
	src := `
int i = 0;
int j = 4;
while (i < 10) {
  i = i + 1;
  j = j + 3;
}
assert(j == 34);
`
	prog := lang.MustParse(src)
	g := Build(prog)
	dom := ToSSA(g)
	if err := Validate(g, dom); err != nil {
		t.Fatal(err)
	}
	res := RunSSA(g, nil, 100000)
	if res.FailedAssert != -1 || res.Blocked || res.OutOfFuel {
		t.Fatalf("SSA run: %+v", res)
	}
	ast := lang.Run(prog, nil, 100000)
	if len(res.Trace) != len(ast.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(res.Trace), len(ast.Trace))
	}
	for i := range res.Trace {
		if res.Trace[i] != ast.Trace[i] {
			t.Fatalf("trace[%d]: ssa %d vs ast %d", i, res.Trace[i], ast.Trace[i])
		}
	}
}

// compareRuns runs prog under lang.Run and its SSA graph g under RunSSA
// on the same inputs and fails t unless they agree on the outcome and on
// the trace of assigned values. It reports false, and checks nothing,
// when either run ran out of fuel.
func compareRuns(t *testing.T, name string, prog *lang.Program, g *Graph, inputs []int64, fuel int) bool {
	t.Helper()
	astRes := lang.Run(prog, inputs, fuel)
	ssaRes := RunSSA(g, inputs, fuel)
	if astRes.OutOfFuel || ssaRes.OutOfFuel {
		return false // non-terminating sample
	}
	if astRes.Blocked != ssaRes.Blocked {
		t.Fatalf("%s: blocked %v vs %v\n%s\n%s", name, astRes.Blocked, ssaRes.Blocked, prog, g)
	}
	if astRes.FailedAssert != ssaRes.FailedAssert {
		t.Fatalf("%s: assert %d vs %d\n%s", name, astRes.FailedAssert, ssaRes.FailedAssert, prog)
	}
	n := min(len(astRes.Trace), len(ssaRes.Trace))
	for i := 0; i < n; i++ {
		if astRes.Trace[i] != ssaRes.Trace[i] {
			t.Fatalf("%s: trace[%d] = %d (ast) vs %d (ssa)\n%s\n%s",
				name, i, astRes.Trace[i], ssaRes.Trace[i], prog, g)
		}
	}
	if len(astRes.Trace) != len(ssaRes.Trace) {
		t.Fatalf("%s: trace length %d vs %d\n%s", name, len(astRes.Trace), len(ssaRes.Trace), prog)
	}
	return true
}

// TestDifferentialSSA is the big oracle: on random programs and random
// inputs, AST interpretation and SSA interpretation must agree on the
// trace of assigned values and the run outcome.
func TestDifferentialSSA(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	agreeing := 0
	for trial := 0; trial < 300; trial++ {
		src := corpus.Random(rng)
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("trial %d: generated program does not parse: %v\n%s", trial, err, src)
		}
		g := Build(prog)
		dom := ToSSA(g)
		if err := Validate(g, dom); err != nil {
			t.Fatalf("trial %d: invalid SSA: %v\n%s\n%s", trial, err, src, g)
		}
		for run := 0; run < 5; run++ {
			inputs := make([]int64, 20)
			for i := range inputs {
				inputs[i] = int64(rng.Intn(31) - 15)
			}
			if compareRuns(t, fmt.Sprintf("trial %d run %d", trial, run), prog, g, inputs, 20000) {
				agreeing++
			}
		}
	}
	if agreeing < 500 {
		t.Fatalf("only %d comparable runs; generator too divergent", agreeing)
	}
}

// TestDifferentialHandcrafted runs the differential oracle on the corpus
// programs (with inputs that satisfy their assumes where applicable).
func TestDifferentialHandcrafted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, cp := range corpus.Handcrafted() {
		prog, err := lang.Parse(cp.Src)
		if err != nil {
			t.Fatalf("%s: %v", cp.Name, err)
		}
		g := Build(prog)
		dom := ToSSA(g)
		if err := Validate(g, dom); err != nil {
			t.Fatalf("%s: %v", cp.Name, err)
		}
		for run := 0; run < 20; run++ {
			inputs := make([]int64, 10)
			for i := range inputs {
				inputs[i] = int64(rng.Intn(101) - 20)
			}
			astRes := lang.Run(prog, inputs, 100000)
			ssaRes := RunSSA(g, inputs, 100000)
			if astRes.OutOfFuel || ssaRes.OutOfFuel {
				continue
			}
			if astRes.Blocked != ssaRes.Blocked || astRes.FailedAssert != ssaRes.FailedAssert {
				t.Fatalf("%s: outcome mismatch %+v vs %+v", cp.Name, astRes, ssaRes)
			}
		}
	}
}

// TestCorpusGroundTruth validates the corpus WantHold claims by concrete
// enumeration: assertions claimed to hold must never fail on sampled
// inputs, and assertions claimed false must fail on at least one input.
func TestCorpusGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for _, cp := range corpus.Handcrafted() {
		prog := lang.MustParse(cp.Src)
		if prog.NumAsserts != len(cp.WantHold) {
			t.Fatalf("%s: %d asserts, %d ground-truth entries", cp.Name, prog.NumAsserts, len(cp.WantHold))
		}
		sawFail := make([]bool, prog.NumAsserts)
		for run := 0; run < 300; run++ {
			inputs := make([]int64, 10)
			for i := range inputs {
				inputs[i] = int64(rng.Intn(161) - 30)
			}
			res := lang.Run(prog, inputs, 100000)
			if res.OutOfFuel {
				t.Fatalf("%s: out of fuel", cp.Name)
			}
			if res.FailedAssert >= 0 {
				if cp.WantHold[res.FailedAssert] {
					t.Fatalf("%s: assertion %d claimed true but failed on %v", cp.Name, res.FailedAssert, inputs)
				}
				sawFail[res.FailedAssert] = true
			}
		}
		for id, hold := range cp.WantHold {
			if !hold && !sawFail[id] {
				t.Errorf("%s: assertion %d claimed false but never failed in sampling", cp.Name, id)
			}
		}
	}
}
