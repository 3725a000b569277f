package solver

import (
	"context"
	"errors"
	"testing"
	"time"

	"luf/internal/fault"
	"luf/internal/rational"
	"luf/internal/shostak"
)

// slowProblem converges only after many propagation steps (two
// mutually-tightening inequalities), so stride-boundary checks are
// guaranteed to run.
func slowProblem() *Problem {
	p := NewProblem("slow", 2)
	x, y := 0, 1
	p.Add(
		Le(lin(0, int64(-1), x)), Le(lin(0, int64(-1), y)),
		Le(lin(-100000, int64(1), x)),
		Le(shostak.Monomial(rational.QInt(1), x).Sub(shostak.Monomial(rational.QFrac(1, 3), y)).AddConst(rational.QInt(-5))),
		Le(shostak.Monomial(rational.QInt(1), y).Sub(shostak.Monomial(rational.QFrac(1, 3), x)).AddConst(rational.QInt(-5))),
	)
	return p
}

// TestStopClassification: exhausting the step budget must degrade
// gracefully — Unknown verdict, a Stop classified as budget
// exhaustion, and a structured partial result.
func TestStopClassification(t *testing.T) {
	r := Solve(figure7Problem(), LabeledUF, Options{MaxSteps: 2})
	if r.Verdict != VerdictUnknown {
		t.Fatalf("verdict = %s, want unknown", r.Verdict)
	}
	if !errors.Is(r.Stop, fault.ErrBudgetExhausted) {
		t.Fatalf("Stop = %v, want ErrBudgetExhausted", r.Stop)
	}
	if r.Partial == nil {
		t.Fatal("early stop must carry a partial result")
	}
	if len(r.Partial.Values) != figure7Problem().NumVars {
		t.Fatalf("partial has %d values, want %d", len(r.Partial.Values), figure7Problem().NumVars)
	}
	if r.Partial.Pending == 0 {
		t.Error("budget-exhausted run should have pending constraints")
	}
}

// TestPartialDeterminism: two runs with the same problem and budget
// must produce identical partial results — graceful degradation is
// reproducible, not racy.
func TestPartialDeterminism(t *testing.T) {
	for _, budget := range []int{1, 3, 7, 20} {
		a := Solve(figure7Problem(), LabeledUF, Options{MaxSteps: budget})
		b := Solve(figure7Problem(), LabeledUF, Options{MaxSteps: budget})
		if a.Verdict != b.Verdict || a.Steps != b.Steps || a.NumRelations != b.NumRelations {
			t.Fatalf("budget %d: runs diverged: %+v vs %+v", budget, a, b)
		}
		if (a.Stop == nil) != (b.Stop == nil) {
			t.Fatalf("budget %d: stop reasons diverged: %v vs %v", budget, a.Stop, b.Stop)
		}
		if a.Partial == nil {
			continue
		}
		if a.Partial.Determined != b.Partial.Determined ||
			a.Partial.Bounded != b.Partial.Bounded ||
			a.Partial.Pending != b.Partial.Pending {
			t.Fatalf("budget %d: partial summaries diverged", budget)
		}
		for v := range a.Partial.Values {
			if !a.Partial.Values[v].Eq(b.Partial.Values[v]) {
				t.Fatalf("budget %d: value of var %d diverged: %s vs %s",
					budget, v, a.Partial.Values[v], b.Partial.Values[v])
			}
		}
	}
}

// TestBudgetVsDeadlinePrecedence: whichever limit is effectively
// infinite must not be the one reported — budget and deadline must
// agree on who stops first.
func TestBudgetVsDeadlinePrecedence(t *testing.T) {
	// Tiny budget, generous deadline: the budget stops first.
	r := Solve(figure7Problem(), LabeledUF, Options{MaxSteps: 2, Deadline: time.Hour})
	if !errors.Is(r.Stop, fault.ErrBudgetExhausted) {
		t.Errorf("tiny budget: Stop = %v, want ErrBudgetExhausted", r.Stop)
	}
	if errors.Is(r.Stop, fault.ErrDeadlineExceeded) {
		t.Errorf("tiny budget: deadline blamed instead of budget")
	}
	// Generous budget, expired deadline: the deadline stops first.
	// (Deadline is checked on stride boundaries, so give the run
	// enough queued work to hit one; skip if it converges earlier.)
	p := figure7Problem()
	r = Solve(p, LabeledUF, Options{MaxSteps: 1 << 30, MaxVarUpdates: 1 << 20, Deadline: time.Nanosecond})
	if r.Stop != nil && !errors.Is(r.Stop, fault.ErrDeadlineExceeded) {
		t.Errorf("expired deadline: Stop = %v, want ErrDeadlineExceeded", r.Stop)
	}
}

// TestContextCancellation: a canceled context stops the run with
// ErrCanceled.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Solve(figure7Problem(), LabeledUF, Options{MaxSteps: 1 << 30, Ctx: ctx})
	if r.Stop != nil && !errors.Is(r.Stop, fault.ErrCanceled) {
		t.Errorf("canceled ctx: Stop = %v, want ErrCanceled", r.Stop)
	}
}

// TestInjectedLabelRejection: a deterministic injected label fault
// must stop the run cleanly — classified as both injected and an
// invalid label, verdict Unknown, no panic — under both relational
// variants. Under GroupAction, Δ's union has already merged the two
// classes' values when the relation is rejected, so partial values may
// be tighter than LabeledUF's, but they stay sound: a satisfiable
// problem's witness lies in every partial value.
func TestInjectedLabelRejection(t *testing.T) {
	sat := NewProblem("offset", 2)
	x, y := 0, 1
	sat.IntVar[x], sat.IntVar[y] = true, true
	sat.Add(
		Eq(lin(-3, int64(1), y, int64(-1), x)),             // y = x + 3
		Le(lin(0, int64(-1), x)), Le(lin(-5, int64(1), x)), // 0 <= x <= 5
	)
	witness := map[int]rational.Q{x: rational.QInt(2), y: rational.QInt(5)}
	for _, p := range []*Problem{figure7Problem(), sat} {
		for _, v := range []Variant{LabeledUF, GroupAction} {
			r := Solve(p, v, Options{
				Inject: &fault.Injector{RejectLabelAt: 1},
			})
			if r.Verdict != VerdictUnknown {
				t.Errorf("%s/%s: verdict = %s, want unknown", p.Name, v, r.Verdict)
			}
			if !errors.Is(r.Stop, fault.ErrInjected) || !errors.Is(r.Stop, fault.ErrInvalidLabel) {
				t.Errorf("%s/%s: Stop = %v, want ErrInjected wrapping ErrInvalidLabel", p.Name, v, r.Stop)
			}
			if r.Partial == nil {
				t.Fatalf("%s/%s: early stop must carry a partial result", p.Name, v)
			}
			if p != sat {
				continue
			}
			for w, val := range witness {
				if !r.Partial.Values[w].Contains(val) {
					t.Errorf("%s/%s: partial value %s of var %d excludes witness %s",
						p.Name, v, r.Partial.Values[w], w, val)
				}
			}
		}
	}
}

// TestOutOfRangeVariableIsClassifiedStop: a constraint over a variable
// outside 0..NumVars-1 panics in watch-list construction; the panic-free
// boundary turns it into an Unknown verdict with a classified Stop under
// every variant. The engine therefore needs no variable-range filters
// downstream.
func TestOutOfRangeVariableIsClassifiedStop(t *testing.T) {
	p := NewProblem("out-of-range", 2)
	p.Add(Eq(lin(-1, int64(1), 0, int64(-1), 5))) // x0 - x5 - 1 = 0
	for _, v := range []Variant{Base, LabeledUF, GroupAction} {
		r := Solve(p, v, Options{CheckInvariants: true, Certify: true})
		if r.Verdict != VerdictUnknown {
			t.Errorf("%s: verdict = %s, want unknown", v, r.Verdict)
		}
		if !errors.Is(r.Stop, fault.ErrInvariantViolated) {
			t.Errorf("%s: Stop = %v, want a classified internal failure", v, r.Stop)
		}
	}
}

// TestInjectedConflict: a forced conflict is an injected fault, not
// evidence of unsatisfiability — the verdict must stay Unknown.
func TestInjectedConflict(t *testing.T) {
	r := Solve(figure7Problem(), LabeledUF, Options{
		Inject: &fault.Injector{ForceConflictAt: 1},
	})
	if r.Verdict == VerdictUnsat {
		t.Error("injected conflict must not be reported as unsat")
	}
	if !errors.Is(r.Stop, fault.ErrInjected) || !errors.Is(r.Stop, fault.ErrConflict) {
		t.Errorf("Stop = %v, want ErrInjected wrapping ErrConflict", r.Stop)
	}
}

// TestInjectedBudgetFailure: a failed budget check injected into the
// guard surfaces as an injected budget exhaustion. The injection point
// sits on a stride boundary (every 64 steps), so the problem must be
// slow-converging enough to reach one.
func TestInjectedBudgetFailure(t *testing.T) {
	r := Solve(slowProblem(), Base, Options{
		MaxSteps:      1 << 30,
		MaxVarUpdates: 1 << 20,
		Inject:        &fault.Injector{FailCheckAt: 1},
	})
	if !errors.Is(r.Stop, fault.ErrInjected) || !errors.Is(r.Stop, fault.ErrBudgetExhausted) {
		t.Errorf("Stop = %v, want ErrInjected wrapping ErrBudgetExhausted", r.Stop)
	}
	if r.Verdict != VerdictUnknown {
		t.Errorf("verdict = %s, want unknown", r.Verdict)
	}
}

// TestCheckInvariantsClean: the opt-in invariant audit must not
// change verdicts on healthy runs.
func TestCheckInvariantsClean(t *testing.T) {
	for _, v := range []Variant{Base, LabeledUF, GroupAction} {
		r := Solve(figure7Problem(), v, Options{CheckInvariants: true})
		plain := Solve(figure7Problem(), v, Options{})
		if r.Verdict != plain.Verdict {
			t.Errorf("%s: CheckInvariants changed verdict %s -> %s", v, plain.Verdict, r.Verdict)
		}
		if r.Stop != nil {
			t.Errorf("%s: healthy run flagged: %v", v, r.Stop)
		}
	}
}
