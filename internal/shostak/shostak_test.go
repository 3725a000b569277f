package shostak

import (
	"math/rand"
	"testing"

	"luf/internal/rational"
)

// Variables for the Example 6.1 system.
const (
	vU = iota
	vV
	vX
	vY
	vZ
	vT
)

func lin(c int64, pairs ...any) LinExp {
	e := NewLinExp(rational.QInt(c))
	for i := 0; i < len(pairs); i += 2 {
		coef := pairs[i].(int64)
		v := pairs[i+1].(int)
		e = e.Add(Monomial(rational.QInt(coef), v))
	}
	return e
}

func TestLinExpBasics(t *testing.T) {
	e := lin(3, int64(2), vX, int64(-1), vY) // 2x - y + 3
	if e.String() == "" {
		t.Error("String")
	}
	if got := e.Coeff(vX); !got.Eq(rational.QInt(2)) {
		t.Errorf("Coeff = %s", got)
	}
	if got := e.Coeff(vZ); !got.Eq(rational.Q{}) {
		t.Error("absent Coeff must be 0")
	}
	f := e.Add(lin(0, int64(-2), vX)) // cancels x
	if len(f.Vars()) != 1 {
		t.Errorf("Vars after cancel = %v", f.Vars())
	}
	if !e.Sub(e).IsConst() || e.Sub(e).Const.Sign() != 0 {
		t.Error("e - e must be 0")
	}
	g := e.Subst(vX, lin(1, int64(1), vZ)) // x := z + 1
	if !g.Coeff(vZ).Eq(rational.QInt(2)) || !g.Const.Eq(rational.QInt(5)) {
		t.Errorf("Subst = %s", g)
	}
	if e.Key() == f.Key() {
		t.Error("Key must distinguish")
	}
	// TermKey ignores the constant.
	if lin(5, int64(1), vX).TermKey() != lin(-3, int64(1), vX).TermKey() {
		t.Error("TermKey must ignore constants")
	}
	if lin(5, int64(1), vX).Key() == lin(-3, int64(1), vX).Key() {
		t.Error("Key must not ignore constants")
	}
}

func TestLinExpEval(t *testing.T) {
	sigma := map[Var]rational.Q{vX: rational.QInt(4), vY: rational.QInt(-1)}
	e := lin(3, int64(2), vX, int64(-1), vY)
	if got := e.Eval(sigma); !got.Eq(rational.QInt(12)) {
		t.Errorf("Eval = %s", got)
	}
}

// TestExample61 runs the 4-equation system of Example 6.1 and checks the
// semantic consequences used by Examples 6.2 and 6.3.
func TestExample61(t *testing.T) {
	var relations []struct {
		a, b Var
		k    rational.Q
	}
	th := New(true)
	th.OnNewRelation = func(a, b Var, k rational.Q) {
		relations = append(relations, struct {
			a, b Var
			k    rational.Q
		}{a, b, k})
	}
	// e1: -z + y - u = 0.
	if !th.AssertEq(lin(0, int64(-1), vZ, int64(1), vY, int64(-1), vU), NewLinExp(rational.Q{})) {
		t.Fatal("e1")
	}
	// e2: x + 2z = 2z - u.
	if !th.AssertEq(lin(0, int64(1), vX, int64(2), vZ), lin(0, int64(2), vZ, int64(-1), vU)) {
		t.Fatal("e2")
	}
	// After e1, e2: u = y - z, x = z - y ⟹ x = -u.
	if !th.Entails(VarExp(vX), Monomial(rational.QInt(-1), vU)) {
		t.Error("x = -u should be entailed")
	}
	// e3: -t - 2y = z + 2v.
	if !th.AssertEq(lin(0, int64(-1), vT, int64(-2), vY), lin(0, int64(1), vZ, int64(2), vV)) {
		t.Fatal("e3")
	}
	// e4: z - 2 = -y - v.
	if !th.AssertEq(lin(-2, int64(1), vZ), lin(0, int64(-1), vY, int64(-1), vV)) {
		t.Fatal("e4")
	}
	// Semantic consequence (Example 6.2): z = t + 4.
	k, ok := th.Diff(VarExp(vT), VarExp(vZ))
	if !ok || !k.Eq(rational.QInt(4)) {
		t.Fatalf("z - t = %v, %v; want 4", k, ok)
	}
	// The labeled union-find Δ must know it too.
	rel, ok := th.Delta.GetRelation(vT, vZ)
	if !ok || !rel.Eq(rational.QInt(4)) {
		t.Fatalf("Delta t→z = %v, %v; want +4", rel, ok)
	}
	// And the callback must have fired with that relation reachable.
	if len(relations) == 0 {
		t.Fatal("no relations pushed")
	}
}

func TestBaseVariantMissesConstDiff(t *testing.T) {
	// With UseCanonRel disabled (BASE), t and z end up in different
	// classes: the constant-difference relation is not discovered.
	th := New(false)
	th.AssertEq(lin(0, int64(-1), vT, int64(-2), vY), lin(0, int64(1), vZ, int64(2), vV))
	th.AssertEq(lin(-2, int64(1), vZ), lin(0, int64(-1), vY, int64(-1), vV))
	if _, ok := th.Delta.GetRelation(vT, vZ); ok {
		t.Error("BASE variant should not discover t—z constant difference")
	}
	// The full theory still entails it (canon is complete for equality).
	k, ok := th.Diff(VarExp(vT), VarExp(vZ))
	if !ok || !k.Eq(rational.QInt(4)) {
		t.Error("canon-level entailment must still hold")
	}
}

func TestUnsat(t *testing.T) {
	th := New(true)
	if !th.AssertEq(VarExp(vX), lin(1, int64(1), vY)) { // x = y + 1
		t.Fatal("sat assert failed")
	}
	if th.AssertEq(VarExp(vX), lin(2, int64(1), vY)) { // x = y + 2: unsat
		t.Error("contradiction not detected")
	}
	if !th.IsUnsat() {
		t.Error("unsat flag")
	}
	if th.AssertEq(VarExp(vX), VarExp(vX)) {
		t.Error("asserts after unsat must fail")
	}
}

func TestRedundantAndEqualityDetection(t *testing.T) {
	th := New(true)
	var eqs [][2]Var
	th.OnNewRelation = func(a, b Var, k rational.Q) {
		if k.Sign() == 0 {
			eqs = append(eqs, [2]Var{a, b})
		}
	}
	// u = y + 1 and x = y + 1 ⟹ u = x.
	th.AssertEq(VarExp(vU), lin(1, int64(1), vY))
	th.AssertEq(VarExp(vX), lin(1, int64(1), vY))
	rel, ok := th.Delta.GetRelation(vU, vX)
	if !ok || rel.Sign() != 0 {
		t.Fatalf("u—x relation = %v, %v", rel, ok)
	}
	// Redundant assert is fine.
	if !th.AssertEq(VarExp(vU), lin(1, int64(1), vY)) {
		t.Error("redundant assert")
	}
}

// TestSoundnessFuzz asserts random consistent equation systems (built from
// a hidden valuation) and checks that Canon preserves evaluation and that
// every Δ relation is true under the valuation.
func TestSoundnessFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		const n = 8
		sigma := map[Var]rational.Q{}
		for v := 0; v < n; v++ {
			sigma[v] = rational.QFrac(int64(rng.Intn(21)-10), int64(rng.Intn(3)+1))
		}
		th := New(true)
		th.OnNewRelation = func(a, b Var, k rational.Q) {
			want := sigma[b].Sub(sigma[a])
			if !want.Eq(k) {
				t.Fatalf("trial %d: pushed relation σ(%d)=σ(%d)+%s but concrete diff is %s",
					trial, b, a, k, want)
			}
		}
		for e := 0; e < 10; e++ {
			// Random linear expression; make the equation true under σ.
			lhs := NewLinExp(rational.Q{})
			for k := 0; k < 3; k++ {
				lhs = lhs.Add(Monomial(rational.QInt(int64(rng.Intn(5)-2)), rng.Intn(n)))
			}
			val := lhs.Eval(sigma)
			ok := th.AssertEq(lhs, NewLinExp(val))
			if !ok || th.IsUnsat() {
				t.Fatalf("trial %d: consistent system reported unsat", trial)
			}
			// Canon must preserve evaluation for arbitrary expressions.
			probe := Monomial(rational.QInt(int64(rng.Intn(5)+1)), rng.Intn(n)).AddConst(rational.QInt(int64(rng.Intn(7))))
			if !th.Canon(probe).Eval(sigma).Eq(probe.Eval(sigma)) {
				t.Fatalf("trial %d: Canon changed evaluation", trial)
			}
		}
		// Entails must never claim a false equality.
		for k := 0; k < 20; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if th.Entails(VarExp(a), VarExp(b)) && !sigma[a].Eq(sigma[b]) {
				t.Fatalf("trial %d: false equality x%d = x%d entailed", trial, a, b)
			}
		}
	}
}

func TestDiffNonConst(t *testing.T) {
	th := New(true)
	if _, ok := th.Diff(VarExp(vX), VarExp(vY)); ok {
		t.Error("unrelated vars have no constant diff")
	}
}
