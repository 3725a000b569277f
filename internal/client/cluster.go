package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"luf/internal/cert"
	"luf/internal/fault"
	"luf/internal/server"
)

// Cluster is a failover- and overload-aware client over a replicated
// lufd cluster: writes chase the current primary by following 421
// redirect hints, reads rotate across every replica with health-aware
// ordering (a node that answered 503 or vanished is skipped for a
// cooldown instead of re-hit every pass), and permanent verdicts —
// above all 409 conflicts — are never retried anywhere. Every RPC but
// Relation and Explain goes to the believed primary; MigrateSlice too,
// because the slice must reflect every entry the freeze window stalled
// behind, and a lagging follower could serve a short journal.
//
// All member clients share one Session (read-your-writes across the
// fleet) and one RetryBudget (cluster-wide retry volume bounded to a
// fraction of traffic). When Hedge is set, a slow read is hedged to
// the next healthy replica — never a write — with the hedge charged
// against the same budget.
//
// A Cluster is safe for concurrent use; set Hedge and Cooldown before
// sharing it. Its routing state sits behind one mutex that is never
// held across a request, so concurrent callers share what each learns
// about the primary and node health without waiting on each other.
type Cluster struct {
	api

	// Hedge, when positive, fires a read's backup attempt at the next
	// healthy replica after this long without an answer, and returns
	// whichever attempt wins. Zero disables hedging. Writes are never
	// hedged: a hedged write would race its twin for the journal.
	Hedge time.Duration
	// Cooldown is how long reads and write rotation skip a node after
	// a 503 (degraded/healing) or transport failure; admission sheds
	// (429) do not cool a node down — it is healthy, just busy.
	// Default 500ms.
	Cooldown time.Duration

	session *Session
	budget  *RetryBudget
	hedges  atomic.Int64

	mu      sync.Mutex
	clients []*Client
	cooled  []time.Time // per-node: skip until this instant
	primary int         // index of the believed primary
	cursor  int         // rotation read cursor
}

// NewCluster returns a cluster client over the given node base URLs;
// the first is the initial primary guess. All members share a fresh
// Session and a default RetryBudget (burst 16, ratio 0.1 — sustained
// retries at most 10% of traffic).
func NewCluster(urls ...string) *Cluster {
	cl := &Cluster{
		session:  NewSession(),
		budget:   NewRetryBudget(16, 0.1),
		Cooldown: 500 * time.Millisecond,
	}
	cl.api = api{call: cl.onPrimary}
	for _, u := range urls {
		cl.addLocked(u)
	}
	return cl
}

// addLocked registers one more node, wiring it to the shared session
// and retry budget, and returns its index.
func (cl *Cluster) addLocked(u string) int {
	c := New(u)
	c.Session = cl.session
	c.Retry = cl.budget
	cl.clients = append(cl.clients, c)
	cl.cooled = append(cl.cooled, time.Time{})
	return len(cl.clients) - 1
}

// Session returns the shared read-your-writes session token.
func (cl *Cluster) Session() *Session { return cl.session }

// Budget returns the shared retry budget (its Stats make cluster-wide
// retry volume auditable).
func (cl *Cluster) Budget() *RetryBudget { return cl.budget }

// SetRetryBudget replaces the shared retry budget on the cluster and
// every member client; nil removes the bound entirely. Call it before
// sharing the cluster.
func (cl *Cluster) SetRetryBudget(b *RetryBudget) {
	cl.budget = b
	for _, c := range cl.clients {
		c.Retry = b
	}
}

// Hedges returns how many hedged read attempts have fired.
func (cl *Cluster) Hedges() int64 { return cl.hedges.Load() }

// node returns member client i.
func (cl *Cluster) node(i int) *Client {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.clients[i]
}

// permanent reports whether an attempt's outcome must not be retried
// on any node: conflicts, invalid input, fencing refusals.
func permanent(err error) bool {
	var ae *APIError
	if !errors.As(err, &ae) {
		return false
	}
	switch ae.Status {
	case http.StatusConflict, http.StatusBadRequest, http.StatusNotFound, http.StatusForbidden:
		return true
	}
	return false
}

// noteOutcome updates node i's health record: success clears any
// cooldown; a transport failure or a 503 (the node says it is
// degraded, healing or draining) cools it down so rotation stops
// re-hitting it every pass. A 429 is deliberately not a health signal.
func (cl *Cluster) noteOutcome(i int, err error) {
	var ae *APIError
	if errors.As(err, &ae) && ae.Status != http.StatusServiceUnavailable {
		return
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.cooled[i] = time.Time{}
	if err != nil {
		cl.cooled[i] = time.Now().Add(cl.Cooldown)
	}
}

// warmLocked reports whether node i is currently outside its cooldown.
func (cl *Cluster) warmLocked(i int, now time.Time) bool { return !now.Before(cl.cooled[i]) }

// rotateLocked moves the primary guess past node i to the next healthy
// node, falling back to plain rotation when every node is cooling down
// (skipping all of them would mean trying nothing at all). A guess
// another caller has already moved off i is left alone.
func (cl *Cluster) rotateLocked(i int) {
	if cl.primary != i {
		return
	}
	n, now := len(cl.clients), time.Now()
	cl.primary = (i + 1) % n
	for k := 1; k <= n; k++ {
		if j := (i + k) % n; cl.warmLocked(j, now) {
			cl.primary = j
			return
		}
	}
}

// readOrder returns all node indices for one read: rotation order, but
// with cooling-down nodes moved to the back — they are only tried once
// every healthy node has failed.
func (cl *Cluster) readOrder() []int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	n, now := len(cl.clients), time.Now()
	order := make([]int, 0, n)
	var cold []int
	for k := 0; k < n; k++ {
		i := (cl.cursor + k) % n
		if cl.warmLocked(i, now) {
			order = append(order, i)
		} else {
			cold = append(cold, i)
		}
	}
	cl.cursor++
	return append(order, cold...)
}

// redirect follows a 421 from node i: a primary hint becomes the new
// primary guess (learned when unknown), a hintless refusal rotates the
// guess past i. It returns the resulting guess and whether err was a
// 421.
func (cl *Cluster) redirect(i int, err error) (int, bool) {
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusMisdirectedRequest {
		return 0, false
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	if hint := ae.Body.Error.Primary; hint != "" {
		cl.primary = slices.IndexFunc(cl.clients, func(c *Client) bool { return c.base == hint })
		if cl.primary < 0 {
			cl.primary = cl.addLocked(hint)
		}
	} else {
		cl.rotateLocked(i)
	}
	return cl.primary, true
}

// onPrimary sends one request to the believed primary, following
// redirects and rotating away from unreachable nodes, for at most one
// pass beyond the cluster size. Every attempt after the first is
// charged to the retry budget; writes are never hedged.
func (cl *Cluster) onPrimary(ctx context.Context, method, path string, body, out any) error {
	var last error
	for tries := 0; ; tries++ {
		cl.mu.Lock()
		i, c, n := cl.primary, cl.clients[cl.primary], len(cl.clients)
		cl.mu.Unlock()
		if tries > n+1 {
			return last
		}
		if tries > 0 && !cl.budget.TakeRetry() {
			return fmt.Errorf("cluster retry budget exhausted after %d attempt(s): %w", tries, last)
		}
		err := c.do(ctx, method, path, body, out)
		cl.noteOutcome(i, err)
		if err == nil || permanent(err) {
			return err
		}
		last = err
		if _, ok := cl.redirect(i, err); !ok {
			// Unreachable or shedding beyond its own retries: try the next
			// healthy node, which may have been promoted without us hearing
			// yet.
			cl.mu.Lock()
			cl.rotateLocked(i)
			cl.mu.Unlock()
		}
	}
}

// attemptResult is one read attempt's outcome, tagged with the node it
// ran against.
type attemptResult[T any] struct {
	v   T
	err error
	i   int
}

// launchAttempt starts do against node i and delivers the outcome on
// ch.
func launchAttempt[T any](ctx context.Context, cl *Cluster, i int, do func(context.Context, *Client) (T, error), ch chan attemptResult[T]) {
	c := cl.node(i)
	go func() {
		v, err := do(ctx, c)
		ch <- attemptResult[T]{v: v, err: err, i: i}
	}()
}

// hedgedAttempt runs do against node i and — when hedging is on, a
// backup node j exists and the retry budget grants a token — fires the
// backup after cl.Hedge without an answer, returning results in
// arrival order and stopping at the first success (the loser is
// canceled). The channel is buffered so an unread loser never leaks.
func hedgedAttempt[T any](ctx context.Context, cl *Cluster, i, j int, do func(context.Context, *Client) (T, error)) []attemptResult[T] {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan attemptResult[T], 2)
	launchAttempt(actx, cl, i, do, ch)
	inflight := 1
	if cl.Hedge > 0 && j >= 0 {
		timer := time.NewTimer(cl.Hedge)
		select {
		case r := <-ch:
			timer.Stop()
			return []attemptResult[T]{r}
		case <-timer.C:
			if cl.budget.TakeRetry() {
				cl.hedges.Add(1)
				launchAttempt(actx, cl, j, do, ch)
				inflight = 2
			}
		}
	}
	var out []attemptResult[T]
	for n := 0; n < inflight; n++ {
		r := <-ch
		out = append(out, r)
		if r.err == nil {
			break
		}
	}
	return out
}

// readFleet runs one read against the fleet: candidates in
// health-aware rotation order, every candidate after the first charged
// to the retry budget, slow attempts hedged to the next candidate, 421
// session redirects steering toward the primary, and permanent
// verdicts returned immediately.
func readFleet[T any](ctx context.Context, cl *Cluster, do func(context.Context, *Client) (T, error)) (T, error) {
	order := cl.readOrder()
	tried := make(map[int]bool)
	var zero T
	var last error
	for k := 0; k < len(order); k++ {
		i := order[k]
		if tried[i] {
			continue
		}
		if last != nil && !cl.budget.TakeRetry() {
			return zero, fmt.Errorf("cluster retry budget exhausted: %w", last)
		}
		j := -1
		if cl.Hedge > 0 {
			for kk := k + 1; kk < len(order); kk++ {
				if !tried[order[kk]] {
					j = order[kk]
					break
				}
			}
		}
		for _, r := range hedgedAttempt(ctx, cl, i, j, do) {
			tried[r.i] = true
			cl.noteOutcome(r.i, r.err)
			if r.err == nil {
				return r.v, nil
			}
			if permanent(r.err) {
				return zero, r.err
			}
			if p, ok := cl.redirect(r.i, r.err); ok && !tried[p] {
				// A replica couldn't cover the session token in time; make
				// sure the (possibly just-learned) primary gets a turn.
				order = append(order, p)
			}
			last = r.err
		}
	}
	return zero, last
}

// Relation queries the fleet with health-aware rotation and optional
// hedging; the shared session keeps the answer at least as fresh as
// every write this cluster client has seen acknowledged.
func (cl *Cluster) Relation(ctx context.Context, n, m string) (label int64, related bool, err error) {
	type rel struct {
		label   int64
		related bool
	}
	out, err := readFleet(ctx, cl, func(ctx context.Context, c *Client) (rel, error) {
		l, ok, e := c.Relation(ctx, n, m)
		return rel{label: l, related: ok}, e
	})
	return out.label, out.related, err
}

// Explain fetches a certificate from the fleet (health-aware rotation,
// optional hedging); the per-node client re-verifies it locally before
// returning.
func (cl *Cluster) Explain(ctx context.Context, n, m string) (cert.Certificate[string, int64], error) {
	return readFleet(ctx, cl, func(ctx context.Context, c *Client) (cert.Certificate[string, int64], error) {
		return c.Explain(ctx, n, m)
	})
}

// Promote runs a deterministic manual election: it asks every
// reachable node for its stats, picks the one holding the longest
// durable history, and promotes it under a fencing token one above the
// highest token any reachable node has accepted. It returns the new
// primary's base URL. Promotion through a stale view (a node
// elsewhere already accepted a higher token) is refused by the server
// with 403, which is never retried.
func (cl *Cluster) Promote(ctx context.Context) (string, error) {
	cl.mu.Lock()
	clients := slices.Clone(cl.clients)
	cl.mu.Unlock()
	best, bestSeq, maxFence := -1, uint64(0), uint64(0)
	for i, c := range clients {
		st, err := c.Stats(ctx)
		if err != nil {
			continue
		}
		if st.Fence > maxFence {
			maxFence = st.Fence
		}
		if best == -1 || st.DurableSeq > bestSeq {
			best, bestSeq = i, st.DurableSeq
		}
	}
	if best == -1 {
		return "", fault.Unavailablef("no cluster node reachable for election")
	}
	var out server.PromoteResponse
	if err := clients[best].do(ctx, http.MethodPost, "/v1/promote", server.PromoteRequest{Fence: maxFence + 1}, &out); err != nil {
		return "", err
	}
	cl.mu.Lock()
	cl.primary = best
	cl.mu.Unlock()
	return clients[best].base, nil
}
