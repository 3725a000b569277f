package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestClassLimitsBrownoutOrder pins the priority ladder the brownout
// promises: heavy work saturates first, reads second, writes only at
// the full global limit — and every class keeps at least one slot so
// tiny configurations cannot starve a class entirely.
func TestClassLimitsBrownoutOrder(t *testing.T) {
	for _, max := range []int{1, 2, 3, 4, 8, 64, 1000} {
		lim := classLimits(max)
		if lim[classWrite] != int64(max) {
			t.Fatalf("max=%d: write limit %d, want the full global limit", max, lim[classWrite])
		}
		if lim[classHeavy] > lim[classRead] || lim[classRead] > lim[classWrite] {
			t.Fatalf("max=%d: limits heavy=%d read=%d write=%d violate heavy <= read <= write",
				max, lim[classHeavy], lim[classRead], lim[classWrite])
		}
		for c := reqClass(0); c < numClasses; c++ {
			if lim[c] < 1 {
				t.Fatalf("max=%d: class %s limit %d below the one-slot floor", max, c, lim[c])
			}
		}
	}
}

// TestGuardedScalesStepBudget pins deadline propagation's second half:
// a request arriving with a fraction of the server's timeout also gets
// the same fraction of the step budget, so partial-progress work
// (batches, solves) degrades proportionally instead of timing out with
// nothing to show.
func TestGuardedScalesStepBudget(t *testing.T) {
	s, _, err := New(Config{RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	s.stepBudget = 1000
	var got int
	h := s.guarded(classRead, func(w http.ResponseWriter, r *http.Request) {
		got = requestSteps(r.Context(), -1)
	})

	// 100ms of a 10s ceiling is 1% of the step budget.
	req := httptest.NewRequest(http.MethodGet, "/v1/relation", nil)
	req.Header.Set(HeaderDeadline, "100")
	h(httptest.NewRecorder(), req)
	if got != 10 {
		t.Fatalf("100ms of a 10s budget scaled steps to %d, want 10", got)
	}

	// No propagated deadline: the full configured budget.
	got = 0
	h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/relation", nil))
	if got != 1000 {
		t.Fatalf("unbounded request got %d steps, want the configured 1000", got)
	}

	// A budget above the server's own timeout is clamped, never raised.
	got = 0
	req = httptest.NewRequest(http.MethodGet, "/v1/relation", nil)
	req.Header.Set(HeaderDeadline, "3600000")
	h(httptest.NewRecorder(), req)
	if got != 1000 {
		t.Fatalf("over-generous client budget got %d steps, want the 1000 ceiling", got)
	}
}

func TestParseDeadlineHeader(t *testing.T) {
	mk := func(v string) *http.Request {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		if v != "" {
			r.Header.Set(HeaderDeadline, v)
		}
		return r
	}
	if d, ok, err := parseDeadline(mk("")); d != 0 || ok || err != nil {
		t.Fatalf("absent header = (%v,%v,%v), want (0,false,nil)", d, ok, err)
	}
	if d, ok, err := parseDeadline(mk("250")); d != 250*time.Millisecond || !ok || err != nil {
		t.Fatalf("250 = (%v,%v,%v), want (250ms,true,nil)", d, ok, err)
	}
	if d, ok, err := parseDeadline(mk("0")); d != 0 || !ok || err != nil {
		t.Fatalf("0 = (%v,%v,%v), want (0,true,nil): an expired budget is still a budget", d, ok, err)
	}
	for _, bad := range []string{"-1", "soon", "1.5", "10s"} {
		if _, _, err := parseDeadline(mk(bad)); err == nil {
			t.Fatalf("malformed deadline %q accepted", bad)
		}
	}
}

func TestParseSessionHeader(t *testing.T) {
	mk := func(v string) *http.Request {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		if v != "" {
			r.Header.Set(HeaderSession, v)
		}
		return r
	}
	if seq, err := parseSession(mk("")); seq != 0 || err != nil {
		t.Fatalf("absent session = (%d,%v), want (0,nil)", seq, err)
	}
	if seq, err := parseSession(mk("42")); seq != 42 || err != nil {
		t.Fatalf("42 = (%d,%v), want (42,nil)", seq, err)
	}
	for _, bad := range []string{"-3", "later", "1e6"} {
		if _, err := parseSession(mk(bad)); err == nil {
			t.Fatalf("malformed session %q accepted", bad)
		}
	}
}
