package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"luf/internal/fault"
)

// Overload-control wire headers. Clients propagate their remaining
// budget and read-your-writes session token on requests; servers
// advertise their durable frontier on responses.
const (
	// HeaderDeadline carries the client's remaining budget for the
	// request, in integer milliseconds. The server clamps its own
	// per-request deadline to it and refuses work that cannot finish in
	// time (504) instead of burning capacity on doomed requests.
	HeaderDeadline = "X-Luf-Deadline"
	// HeaderSession carries the highest durable sequence number the
	// client has observed. A replica serves the read only once its own
	// durable state covers the token (briefly waiting for catch-up),
	// else it 421-redirects toward the primary — read-your-writes
	// across the whole fleet.
	HeaderSession = "X-Luf-Session"
	// HeaderDurable is stamped on responses with the serving node's
	// durable sequence number, advancing the client's session token.
	HeaderDurable = "X-Luf-Durable-Seq"
)

// reqClass is a request's brownout priority class. Under admission
// pressure the server sheds in class order: certificate-heavy work
// first (classHeavy), stale-tolerant reads second (classRead), writes
// last (classWrite) — each class has its own inflight cap below the
// global one, so cheap-to-redo work browns out before anything a
// client cannot get elsewhere.
type reqClass int

const (
	classWrite reqClass = iota // asserts: shed last (full MaxInflight)
	classRead                  // relation queries: shed second
	classHeavy                 // explain/solve: cert- and CPU-heavy, shed first
	numClasses
)

// String returns the class name used in shed counters.
func (c reqClass) String() string {
	switch c {
	case classWrite:
		return "write"
	case classRead:
		return "read"
	case classHeavy:
		return "heavy"
	}
	return "unknown"
}

// classLimits derives the per-class inflight caps from the global
// admission limit: heavy work saturates at half of it, reads at three
// quarters, writes only at the full limit.
func classLimits(maxInflight int) [numClasses]int64 {
	var lim [numClasses]int64
	lim[classWrite] = int64(maxInflight)
	lim[classRead] = int64(maxInflight - maxInflight/4)
	lim[classHeavy] = int64(maxInflight - maxInflight/2)
	for c := range lim {
		if lim[c] < 1 {
			lim[c] = 1
		}
	}
	return lim
}

// reqBudget is the per-request budget guarded derives from the
// propagated deadline: the effective timeout and the step budget
// scaled down proportionally, stashed in the request context for
// handlers that split work under fault.Limits.
type reqBudget struct {
	timeout time.Duration
	steps   int
}

// requestStepBudget is the step budget of batch work in a request that
// has the server's whole RequestTimeout; a propagated client deadline
// shorter than RequestTimeout scales it down proportionally.
const requestStepBudget = 1_000_000

// budgetCtxKey keys the reqBudget in a request context.
type budgetCtxKey struct{}

// requestSteps returns the step budget guarded attached to ctx, or
// fallback when the request carried no propagated deadline.
func requestSteps(ctx context.Context, fallback int) int {
	if b, ok := ctx.Value(budgetCtxKey{}).(reqBudget); ok && b.steps > 0 {
		return b.steps
	}
	return fallback
}

// parseDeadline interprets the X-Luf-Deadline header: the client's
// remaining budget in integer milliseconds. Absent yields (0, false);
// malformed or negative values are invalid input, not a budget. A
// budget too large for a time.Duration is clamped to the largest one
// (it then bounds nothing tighter than RequestTimeout) instead of
// wrapping negative.
func parseDeadline(r *http.Request) (time.Duration, bool, error) {
	hd := r.Header.Get(HeaderDeadline)
	if hd == "" {
		return 0, false, nil
	}
	ms, err := strconv.ParseInt(hd, 10, 64)
	if err != nil || ms < 0 {
		return 0, false, fault.Invalidf("malformed %s header %q (want remaining budget in milliseconds)", HeaderDeadline, hd)
	}
	return time.Duration(min(ms, math.MaxInt64/int64(time.Millisecond))) * time.Millisecond, true, nil
}

// parseSession interprets the X-Luf-Session header: the highest
// durable sequence number the client has observed. Absent yields 0
// (no coverage constraint).
func parseSession(r *http.Request) (uint64, error) {
	hs := r.Header.Get(HeaderSession)
	if hs == "" {
		return 0, nil
	}
	seq, err := strconv.ParseUint(hs, 10, 64)
	if err != nil {
		return 0, fault.Invalidf("malformed %s header %q (want a durable sequence number)", HeaderSession, hs)
	}
	return seq, nil
}

// admit implements admission control for one request of the given
// class: it acquires the class slot and a global inflight token
// without blocking, applies any injected request delay, and returns a
// release func. Refusals are structured: a draining node answers 503
// (degraded — go elsewhere for a while), a full class or global limit
// answers 429 (overloaded — immediately safe to retry on another
// replica).
func (s *Server) admit(r *http.Request, class reqClass) (func(), error) {
	if s.draining.Load() {
		return nil, fault.Unavailablef("server is draining")
	}
	if s.classInflight[class].Add(1) > s.classLimit[class] {
		s.classInflight[class].Add(-1)
		s.shed.Add(1)
		s.classShed[class].Add(1)
		return nil, fault.Overloadedf("%s capacity exhausted (%d in flight); brownout sheds %s work first",
			class, s.classLimit[class], class)
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.classInflight[class].Add(-1)
		s.shed.Add(1)
		s.classShed[class].Add(1)
		return nil, fault.Overloadedf("server at capacity (%d in flight)", s.cfg.MaxInflight)
	}
	release := func() {
		<-s.sem
		s.classInflight[class].Add(-1)
	}
	// Re-check after taking the token: a drain that started in between
	// counts tokens, so we must either hold ours visibly or give it
	// back — never slip past a drain that believes the server is idle.
	if s.draining.Load() {
		release()
		return nil, fault.Unavailablef("server is draining")
	}
	s.served.Add(1)
	s.injMu.Lock()
	delay := s.cfg.Inject.ObserveRequest()
	s.injMu.Unlock()
	if delay > 0 {
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
		}
	}
	return release, nil
}

// guarded wraps a handler with deadline propagation, admission control
// and the per-request budget: the request context is bounded by the
// smaller of RequestTimeout and the client's propagated remaining
// budget, the step budget is scaled down proportionally, and a request
// whose budget cannot cover even MinDeadline is refused before
// admission — capacity is never spent on work the client has already
// given up on.
func (s *Server) guarded(class reqClass, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		timeout := s.cfg.RequestTimeout
		if remaining, ok, err := parseDeadline(r); err != nil {
			WriteError(w, err)
			return
		} else if ok {
			if remaining < s.cfg.MinDeadline {
				s.deadlineRefused.Add(1)
				WriteError(w, fmt.Errorf("%w: remaining client budget %v is below the server floor %v; refusing doomed work",
					fault.ErrDeadlineExceeded, remaining, s.cfg.MinDeadline))
				return
			}
			if remaining < timeout {
				timeout = remaining
			}
		}
		release, err := s.admit(r, class)
		if err != nil {
			WriteError(w, err)
			return
		}
		defer release()
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		if ctx.Err() != nil {
			WriteError(w, fmt.Errorf("%w: request deadline expired before handling", fault.ErrDeadlineExceeded))
			return
		}
		steps := s.stepBudget
		if timeout < s.cfg.RequestTimeout {
			if scaled := int(int64(steps) * int64(timeout) / int64(s.cfg.RequestTimeout)); scaled >= 1 {
				steps = scaled
			} else {
				steps = 1
			}
		}
		ctx = context.WithValue(ctx, budgetCtxKey{}, reqBudget{timeout: timeout, steps: steps})
		h(w, r.WithContext(ctx))
	}
}

// coverSession enforces bounded-staleness for a read: when the request
// carries a session token, the read is served only once this node's
// durable state covers it. A replica briefly waits for catch-up
// (bounded by FollowerWaitMax), then refuses with a 421 redirect hint
// toward the primary. It reports whether the handler may proceed; on
// false the refusal has been written.
func (s *Server) coverSession(w http.ResponseWriter, r *http.Request) bool {
	want, err := parseSession(r)
	if err != nil {
		WriteError(w, err)
		return false
	}
	if want == 0 {
		return true
	}
	if err := s.waitCovered(r.Context(), want); err != nil {
		WriteError(w, err)
		return false
	}
	return true
}

// waitCovered blocks until this node's durable sequence number covers
// want, bounded by ctx and FollowerWaitMax. In-memory nodes serve
// unconditionally (there is no durable frontier to compare). The
// returned error is a 421 refusal carrying how far behind the node is
// and the primary hint.
func (s *Server) waitCovered(ctx context.Context, want uint64) error {
	st := s.st()
	if st.store == nil || st.store.DurableSeq() >= want {
		return nil
	}
	deadline := time.Now().Add(s.cfg.FollowerWaitMax)
	for time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w: request expired while waiting for durable_seq %d", fault.ErrDeadlineExceeded, want)
		case <-time.After(time.Millisecond):
		}
		if st = s.st(); st.store == nil || st.store.DurableSeq() >= want {
			s.sessionWaits.Add(1)
			return nil
		}
	}
	s.sessionRedirects.Add(1)
	have := uint64(0)
	if st = s.st(); st.store != nil {
		have = st.store.DurableSeq()
	}
	hint, _ := s.primaryHint.Load().(string)
	return &notPrimaryError{error: fault.NotPrimaryf("read session requires durable_seq >= %d but this replica holds %d after %v; retry against the primary",
		want, have, s.cfg.FollowerWaitMax), primary: hint}
}

// stampDurable advertises this node's durable sequence number on the
// response, advancing the caller's read-your-writes session token.
// Must run before the body is written.
func (s *Server) stampDurable(w http.ResponseWriter) {
	if st := s.st(); st.store != nil {
		w.Header().Set(HeaderDurable, strconv.FormatUint(st.store.DurableSeq(), 10))
	}
}
