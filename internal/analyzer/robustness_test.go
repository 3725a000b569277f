package analyzer

import (
	"context"
	"errors"
	"testing"
	"time"

	"luf/internal/fault"
)

// TestAnalyzerBudgetDegradation: exhausting the step budget must
// degrade every result soundly to ⊤ (alarms, unknown values) with a
// classified Stop — never a wrong "proved".
func TestAnalyzerBudgetDegradation(t *testing.T) {
	res, g := analyzeSrc(t, figure8Src, Config{
		UseLUF: true, PropagationDepth: 1000,
		MaxSteps: 3,
	})
	if !errors.Is(res.Stop, fault.ErrBudgetExhausted) {
		t.Fatalf("Stop = %v, want ErrBudgetExhausted", res.Stop)
	}
	for i, o := range res.Asserts {
		if o == AssertProved {
			t.Errorf("degraded run proved assertion %d", i)
		}
	}
	for v := 1; v < g.NumVars; v++ {
		if res.Values[v].IsBottom() {
			t.Errorf("degraded value %d is ⊥; the fallback must be ⊤-like", v)
		}
	}
}

// TestAnalyzerDegradationDeterminism: the same budget must cut the
// analysis at the same place every time.
func TestAnalyzerDegradationDeterminism(t *testing.T) {
	for _, budget := range []int{1, 5, 25, 100} {
		conf := Config{UseLUF: true, PropagationDepth: 1000,
			MaxSteps: budget}
		a, _ := analyzeSrc(t, figure8Src, conf)
		b, _ := analyzeSrc(t, figure8Src, conf)
		if (a.Stop == nil) != (b.Stop == nil) {
			t.Fatalf("budget %d: stop reasons diverged: %v vs %v", budget, a.Stop, b.Stop)
		}
		if len(a.Asserts) != len(b.Asserts) {
			t.Fatalf("budget %d: result shapes diverged", budget)
		}
		for i := range a.Asserts {
			if a.Asserts[i] != b.Asserts[i] {
				t.Fatalf("budget %d: assert %d diverged: %v vs %v", budget, i, a.Asserts[i], b.Asserts[i])
			}
		}
		for v := range a.Values {
			if !a.Values[v].Eq(b.Values[v]) {
				t.Fatalf("budget %d: value %d diverged: %s vs %s", budget, v, a.Values[v], b.Values[v])
			}
		}
	}
}

// TestAnalyzerDeadlineAndContext: the wall-clock and cancellation
// limits classify their stops distinctly.
func TestAnalyzerDeadlineAndContext(t *testing.T) {
	res, _ := analyzeSrc(t, figure8Src, Config{UseLUF: true, Deadline: time.Nanosecond})
	if res.Stop != nil && !errors.Is(res.Stop, fault.ErrDeadlineExceeded) {
		t.Errorf("deadline stop misclassified: %v", res.Stop)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _ = analyzeSrc(t, figure8Src, Config{UseLUF: true, Ctx: ctx})
	if res.Stop != nil && !errors.Is(res.Stop, fault.ErrCanceled) {
		t.Errorf("cancellation stop misclassified: %v", res.Stop)
	}
}

// TestAnalyzerInjectedLabelFault: a deterministically injected label
// rejection stops the analysis with a classified Stop; the degraded
// result must not claim any proof.
func TestAnalyzerInjectedLabelFault(t *testing.T) {
	res, _ := analyzeSrc(t, figure8Src, Config{
		UseLUF: true,
		Inject: &fault.Injector{RejectLabelAt: 1},
	})
	if !errors.Is(res.Stop, fault.ErrInjected) || !errors.Is(res.Stop, fault.ErrInvalidLabel) {
		t.Fatalf("Stop = %v, want ErrInjected wrapping ErrInvalidLabel", res.Stop)
	}
	for i, o := range res.Asserts {
		if o == AssertProved {
			t.Errorf("fault-injected run proved assertion %d", i)
		}
	}
}

// TestAnalyzerCheckInvariantsClean: the opt-in audit must not change
// the outcome of a healthy analysis.
func TestAnalyzerCheckInvariantsClean(t *testing.T) {
	conf := DefaultConfig(true)
	conf.CheckInvariants = true
	res, _ := analyzeSrc(t, figure8Src, conf)
	if res.Stop != nil {
		t.Fatalf("healthy run flagged: %v", res.Stop)
	}
	plain, _ := analyzeSrc(t, figure8Src, DefaultConfig(true))
	for i := range res.Asserts {
		if res.Asserts[i] != plain.Asserts[i] {
			t.Errorf("CheckInvariants changed assert %d: %v vs %v", i, res.Asserts[i], plain.Asserts[i])
		}
	}
}
