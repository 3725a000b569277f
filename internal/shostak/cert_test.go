package shostak

import (
	"testing"

	"luf/internal/cert"
	"luf/internal/core"
	"luf/internal/group"
	"luf/internal/rational"
)

// TestRelationalConflictCertified drives the theory into a *relational*
// contradiction (two different constant differences between the same
// pair) and turns the captured conflict into a conflict certificate
// that the independent checker accepts, with the seeding assertion in
// the UNSAT core. Arithmetic unsat (0 = 1) deliberately has no such
// chain; this is the relational case the certificate layer exists for.
func TestRelationalConflictCertified(t *testing.T) {
	qdiff := group.QDiff{}
	j := cert.NewJournal[Var, rational.Q](qdiff)
	th := New(true, core.WithRecorder[Var, rational.Q](j.Record))

	const x0, x2, x3 = 0, 2, 3
	// External knowledge: x2 and x3 are equal (difference 0).
	th.Reason = "seed: x2 = x3"
	if !th.Delta.AddRelationReason(x2, x3, rational.Q{}, th.Reason) {
		t.Fatal("seeding failed")
	}

	// x2 = x0 + 5 — consistent on its own.
	th.Reason = "eq#0: x2 = x0 + 5"
	if !th.AssertEq(Monomial(rational.QInt(1), x2),
		Monomial(rational.QInt(1), x0).AddConst(rational.QInt(5))) {
		t.Fatal("first equation must be consistent")
	}
	if th.LastConflict != nil {
		t.Fatal("no conflict expected yet")
	}

	// x3 = x0 + 7 — canon_rel now derives x3 = x2 + 2, contradicting
	// the seeded x3 = x2 + 0.
	th.Reason = "eq#1: x3 = x0 + 7"
	th.AssertEq(Monomial(rational.QInt(1), x3),
		Monomial(rational.QInt(1), x0).AddConst(rational.QInt(7)))

	if !th.IsUnsat() {
		t.Fatal("theory must be unsat")
	}
	lc := th.LastConflict
	if lc == nil {
		t.Fatal("relational conflict not captured")
	}
	if lc.Reason != "eq#1: x3 = x0 + 7" {
		t.Fatalf("conflict reason = %q", lc.Reason)
	}
	if lc.New.Eq(lc.Old) {
		t.Fatalf("conflict labels agree: %v", lc.New)
	}

	cc, err := j.ExplainConflict(lc.N, lc.M, lc.New, lc.Reason)
	if err != nil {
		t.Fatalf("ExplainConflict: %v", err)
	}
	if err := cert.Check(cc, qdiff); err != nil {
		t.Fatalf("conflict certificate rejected: %v", err)
	}
	core := cc.Reasons()
	if len(core) == 0 {
		t.Fatal("empty UNSAT core")
	}
	found := false
	for _, r := range core {
		if r == "seed: x2 = x3" {
			found = true
		}
	}
	if !found {
		t.Fatalf("UNSAT core %v misses the seeding assertion", core)
	}
	// The checker must reject the certificate once sabotaged.
	cert.Sabotage(&cc, qdiff)
	if err := cert.Check(cc, qdiff); err == nil {
		t.Fatal("sabotaged conflict certificate accepted")
	}
}

// TestArithmeticUnsatHasNoRelationalConflict pins the contrast: a plain
// arithmetic contradiction leaves LastConflict nil — there is no chain
// of relational evidence to certify, only constant reasoning.
func TestArithmeticUnsatHasNoRelationalConflict(t *testing.T) {
	th := New(true)
	th.AssertEq(Monomial(rational.QInt(1), 0), NewLinExp(rational.QInt(1)))
	th.AssertEq(Monomial(rational.QInt(1), 0), NewLinExp(rational.QInt(2)))
	if !th.IsUnsat() {
		t.Fatal("theory must be unsat")
	}
	if th.LastConflict != nil {
		t.Fatalf("arithmetic unsat must not fabricate a relational conflict: %+v", th.LastConflict)
	}
}

// TestRelationalConflictReturnsFalse pins AssertEq's contract on the
// relational path: when the re-index derives a constant difference that
// contradicts Δ, the asserting call itself reports unsatisfiability.
func TestRelationalConflictReturnsFalse(t *testing.T) {
	const x0, x2, x3 = 0, 2, 3
	th := New(true)
	th.Delta.AddRelation(x2, x3, rational.Q{}) // x2 = x3
	if !th.AssertEq(VarExp(x2), VarExp(x0).AddConst(rational.QInt(5))) {
		t.Fatal("x2 = x0 + 5 must be consistent")
	}
	if th.AssertEq(VarExp(x3), VarExp(x0).AddConst(rational.QInt(7))) {
		t.Error("x3 = x0 + 7 contradicts x2 = x3 but AssertEq returned true")
	}
	if !th.IsUnsat() || th.LastConflict == nil {
		t.Fatalf("unsat %v, conflict %+v", th.IsUnsat(), th.LastConflict)
	}
}
