package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"luf/internal/fault"
	"luf/internal/wal"
)

const (
	// shipTimeout bounds each replication request.
	shipTimeout = 2 * time.Second
	// shipMaxBackoff caps the retry backoff a failing peer's loop grows
	// toward.
	shipMaxBackoff = 2 * time.Second
)

// Peer identifies one follower a primary ships to.
type Peer struct {
	// Name is the peer's stable node name (also the fault.Network link
	// endpoint in chaos tests).
	Name string
	// URL is the peer's base HTTP URL, e.g. "http://127.0.0.1:7071".
	URL string
}

// Config configures a Shipper.
type Config[N comparable, L any] struct {
	// Store is the primary's durable store: the source of records,
	// sequence numbers and the fencing token.
	Store *wal.Store[N, L]
	// Self is this node's name (the fault.Network link source).
	Self string
	// Advertise is the client-facing address followers should redirect
	// writes to while this node is primary.
	Advertise string
	// Peers are the followers to ship to.
	Peers []Peer
	// Lease, when non-nil, is renewed on every follower
	// acknowledgement.
	Lease *Lease
	// BatchMax bounds records per shipped batch (default 256).
	BatchMax int
	// PipelineDepth is the number of batches kept in flight per peer
	// (default 4). Depth 1 reproduces the stop-and-wait protocol: each
	// batch waits for its predecessor's acknowledgement. Deeper
	// pipelines overlap the network round-trip and the follower's
	// group-commit fsync across consecutive batches; followers
	// acknowledge cumulative durable watermarks, so one acknowledgement
	// can resolve several in-flight batches at once.
	PipelineDepth int
	// Interval is the idle poll/heartbeat period, the base of the
	// retry backoff after errors, and the base of the watchdog deadline
	// max(1s, 10×Interval): a peer that has made no progress for that
	// long is marked stalled and demoted from the sync-ack set, so one
	// wedged follower cannot block WaitAcked forever (default 50ms).
	Interval time.Duration
	// Seed seeds the retry jitter; 0 picks a fixed default, so set it
	// per node for fleet-wide retry spreading or per test for
	// determinism.
	Seed int64
	// Net, when non-nil, is the simulated network chaos tests route
	// every batch through.
	Net *fault.Network
	// OnFenced is called (once, from its own goroutine) when a follower
	// refuses this node's token as stale — the node must step down.
	OnFenced func(token uint64)
}

// PeerStatus is one follower's view in Shipper.Status.
type PeerStatus struct {
	// Acked is the follower's last acknowledged durable sequence
	// number.
	Acked uint64 `json:"acked"`
	// Err is the follower's last error, empty when healthy. It clears
	// on the next acknowledgement that shows real progress — in
	// particular, automatically once a divergent follower finishes its
	// certified resync.
	Err string `json:"err,omitempty"`
	// Stalled reports the watchdog demoted this peer from the
	// sync-ack set: it has made no progress for max(1s, 10×Interval).
	// The flag clears on the peer's next acknowledged batch.
	Stalled bool `json:"stalled,omitempty"`
	// Divergent reports the peer refused shipping because its history
	// split from this node's; it clears once the peer resyncs and
	// acknowledges the shipped tail again.
	Divergent bool `json:"divergent,omitempty"`
	// InFlight is the number of batches currently pipelined to this
	// peer (posted but not yet resolved by a watermark
	// acknowledgement).
	InFlight int `json:"in_flight,omitempty"`
}

// Shipper is the primary half of replication: one goroutine per peer
// streams journal records, anchored with the log-matching check, and
// tracks each peer's acknowledged durable sequence number. Errors are
// retried with exponential backoff and jitter; a per-peer watchdog
// marks peers that stop making progress as stalled so the
// synchronous-replication gate degrades instead of hanging. It is safe
// for concurrent use.
type Shipper[N comparable, L any] struct {
	cfg Config[N, L]
	hc  *http.Client

	mu        sync.Mutex
	cond      *sync.Cond
	acked     map[string]uint64
	errs      map[string]string
	stalled   map[string]bool
	divergent map[string]bool
	inflight  map[string]int
	lastOK    map[string]time.Time
	rng       *rand.Rand
	fenced    bool
	stopped   bool

	kicks map[string]chan struct{}
	stop  chan struct{}
	wg    sync.WaitGroup
}

// fencedError carries the newer token a follower fenced us with.
type fencedError struct {
	token uint64
	msg   string
}

func (e *fencedError) Error() string { return e.msg }
func (e *fencedError) Unwrap() error { return fault.ErrFenced }

// NewShipper builds a shipper; call Start to begin streaming.
func NewShipper[N comparable, L any](cfg Config[N, L]) *Shipper[N, L] {
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 256
	}
	if cfg.PipelineDepth <= 0 {
		cfg.PipelineDepth = 4
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 50 * time.Millisecond
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	sh := &Shipper[N, L]{
		cfg:       cfg,
		hc:        &http.Client{Timeout: shipTimeout},
		acked:     map[string]uint64{},
		errs:      map[string]string{},
		stalled:   map[string]bool{},
		divergent: map[string]bool{},
		inflight:  map[string]int{},
		lastOK:    map[string]time.Time{},
		rng:       rand.New(rand.NewSource(seed)),
		kicks:     map[string]chan struct{}{},
		stop:      make(chan struct{}),
	}
	sh.cond = sync.NewCond(&sh.mu)
	now := time.Now()
	for _, p := range cfg.Peers {
		sh.kicks[p.Name] = make(chan struct{}, 1)
		sh.lastOK[p.Name] = now
	}
	return sh
}

// Start launches one shipping loop per peer.
func (sh *Shipper[N, L]) Start() {
	for _, p := range sh.cfg.Peers {
		sh.wg.Add(1)
		go sh.run(p)
	}
}

// Stop halts every shipping loop and wakes all WaitAcked callers.
func (sh *Shipper[N, L]) Stop() {
	sh.mu.Lock()
	if sh.stopped {
		sh.mu.Unlock()
		sh.wg.Wait()
		return
	}
	sh.stopped = true
	close(sh.stop)
	sh.cond.Broadcast()
	sh.mu.Unlock()
	sh.wg.Wait()
}

// Kick nudges every peer loop to ship immediately instead of waiting
// out the idle interval; the primary calls it after each local append.
func (sh *Shipper[N, L]) Kick() {
	for _, ch := range sh.kicks {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// WaitAcked blocks until at least one follower has acknowledged
// sequence number seq as durable — the synchronous-replication gate: a
// write acknowledged after WaitAcked survives the loss of the primary.
// It fails with a structured error when the context expires, the
// shipper stops, this node is fenced, or the watchdog has marked every
// follower stalled (so a fully wedged fleet degrades the write path
// immediately instead of holding each write until its deadline).
func (sh *Shipper[N, L]) WaitAcked(ctx context.Context, seq uint64) error {
	stopWatch := context.AfterFunc(ctx, func() {
		sh.mu.Lock()
		sh.cond.Broadcast()
		sh.mu.Unlock()
	})
	defer stopWatch()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for {
		for _, a := range sh.acked {
			if a >= seq {
				return nil
			}
		}
		if sh.fenced {
			return fault.Fencedf("fenced while waiting for replication of sequence %d", seq)
		}
		if sh.stopped {
			return fault.Unavailablef("replication stopped while waiting for sequence %d", seq)
		}
		if len(sh.cfg.Peers) > 0 && len(sh.stalled) == len(sh.cfg.Peers) {
			return fault.Unavailablef(
				"sequence %d not acknowledged: every follower is stalled (unreachable, wedged or divergent) and demoted from the sync-ack set — the write is durable locally but not replicated", seq)
		}
		if err := ctx.Err(); err != nil {
			return fault.Unavailablef("sequence %d not acknowledged by any follower before deadline (%v) — the write is durable locally but not yet replicated", seq, err)
		}
		sh.cond.Wait()
	}
}

// PipelineDepth returns the configured per-peer pipeline depth (after
// defaulting).
func (sh *Shipper[N, L]) PipelineDepth() int { return sh.cfg.PipelineDepth }

// Status returns each peer's acknowledged sequence number, last error
// and watchdog flags.
func (sh *Shipper[N, L]) Status() map[string]PeerStatus {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make(map[string]PeerStatus, len(sh.cfg.Peers))
	for _, p := range sh.cfg.Peers {
		out[p.Name] = PeerStatus{
			Acked:     sh.acked[p.Name],
			Err:       sh.errs[p.Name],
			Stalled:   sh.stalled[p.Name],
			Divergent: sh.divergent[p.Name],
			InFlight:  sh.inflight[p.Name],
		}
	}
	return out
}

// observeAck records a successful acknowledgement from peer p. The
// acknowledged position is a cumulative durable watermark and is
// applied max-monotone: pipelined replies can arrive out of order, and
// duplicated deliveries can re-report an older position, but a
// watermark the follower once fsynced never regresses here — a late or
// repeated ack is simply absorbed. A heartbeat ack from a peer marked
// divergent does not clear its state: reachability is not progress,
// and the divergence note must stay visible until the peer's resync
// actually catches it up to this node's tail.
func (sh *Shipper[N, L]) observeAck(p Peer, a Ack) {
	if sh.cfg.Lease != nil {
		sh.cfg.Lease.Renew()
	}
	sh.mu.Lock()
	if a.Durable > sh.acked[p.Name] {
		sh.acked[p.Name] = a.Durable
	}
	if !sh.divergent[p.Name] || a.Durable >= sh.cfg.Store.LastSeq() {
		delete(sh.errs, p.Name)
		delete(sh.stalled, p.Name)
		delete(sh.divergent, p.Name)
		sh.lastOK[p.Name] = time.Now()
	}
	sh.cond.Broadcast()
	sh.mu.Unlock()
}

// setInFlight publishes the peer's current pipeline occupancy for
// Status.
func (sh *Shipper[N, L]) setInFlight(p Peer, n int) {
	sh.mu.Lock()
	sh.inflight[p.Name] = n
	sh.mu.Unlock()
}

// observeErr records a peer error and runs the watchdog check; fatal
// reports whether the loop must stop, which only fencing is — a
// divergent peer keeps being probed at backoff pace, because a
// self-healing follower will resync and accept shipping again.
func (sh *Shipper[N, L]) observeErr(p Peer, err error) (fatal bool) {
	sh.mu.Lock()
	sh.errs[p.Name] = err.Error()
	if errors.Is(err, wal.ErrDivergence) {
		sh.divergent[p.Name] = true
	}
	if time.Since(sh.lastOK[p.Name]) > max(time.Second, 10*sh.cfg.Interval) {
		sh.stalled[p.Name] = true
	}
	var fe *fencedError
	if errors.As(err, &fe) {
		fatal = true
		if !sh.fenced {
			sh.fenced = true
			if sh.cfg.OnFenced != nil {
				// From its own goroutine: the demotion path may Stop()
				// this shipper, which joins this very loop.
				go sh.cfg.OnFenced(fe.token)
			}
		}
	}
	sh.cond.Broadcast()
	sh.mu.Unlock()
	return fatal
}

// run is the per-peer shipping loop: probe the peer's durable
// position, then stream pipelined batches from there, heartbeating
// when idle and backing off exponentially while the peer errors. Any
// streaming error collapses the pipeline back to a probe — the peer's
// reported durable position, not this node's bookkeeping, decides
// where resending restarts (the peer may have restarted and lost an
// unsynced tail, or a self-healing follower may have resynced to a new
// history).
func (sh *Shipper[N, L]) run(p Peer) {
	defer sh.wg.Done()
	failures := 0
	for {
		select {
		case <-sh.stop:
			return
		default:
		}
		ack, err := sh.post(p, sh.heartbeat())
		if err == nil {
			failures = 0
			sh.observeAck(p, ack)
			if err = sh.stream(p, ack.Durable); err == nil {
				return // stopping
			}
		}
		if sh.observeErr(p, err) {
			return
		}
		failures++
		sh.mu.Lock()
		d := backoff(sh.rng, sh.cfg.Interval, shipMaxBackoff, failures)
		sh.mu.Unlock()
		if !sleep(sh.stop, d) {
			return
		}
	}
}

// shipResult is one pipelined batch's outcome, reported by its sender
// goroutine.
type shipResult struct {
	ack Ack
	err error
}

// stream runs the pipelined shipping window against one peer: up to
// PipelineDepth batches are posted concurrently, each from its own
// goroutine, while the loop keeps reading ahead in the journal — the
// send position advances optimistically as batches are posted, and the
// follower's cumulative watermark acknowledgements resolve them as
// they land (in any order). It returns nil when the shipper stops and
// the first error otherwise, after draining the remaining in-flight
// posts so a retrying caller starts from a quiet wire.
func (sh *Shipper[N, L]) stream(p Peer, durable uint64) error {
	results := make(chan shipResult, sh.cfg.PipelineDepth)
	inflight := 0
	nextSend := durable
	var firstErr error
	// drain collects every outstanding result; posts are bounded by the
	// HTTP timeout, so this terminates.
	drain := func() {
		for inflight > 0 {
			r := <-results
			inflight--
			if r.err != nil && firstErr == nil {
				firstErr = r.err
			} else if r.err == nil {
				sh.observeAck(p, r.ack)
			}
		}
		sh.setInFlight(p, 0)
	}
	defer drain()
	for {
		// Fill the window from the journal. LastSeq is checked first
		// because even an empty cut reads and checksums its anchor.
		for inflight < sh.cfg.PipelineDepth && sh.cfg.Store.LastSeq() > nextSend {
			b, err := cut(sh.cfg.Store, sh.cfg.Advertise, nextSend, sh.cfg.BatchMax)
			if err != nil {
				return err
			}
			if b.Count == 0 {
				break
			}
			nextSend += uint64(b.Count)
			inflight++
			sh.setInFlight(p, inflight)
			go func() {
				ack, err := sh.post(p, b)
				results <- shipResult{ack: ack, err: err}
			}()
		}
		var idle <-chan time.Time
		if inflight == 0 {
			idle = time.After(sh.cfg.Interval)
		}
		select {
		case <-sh.stop:
			return nil
		case r := <-results:
			inflight--
			sh.setInFlight(p, inflight)
			if r.err != nil {
				firstErr = r.err
				drain()
				return firstErr
			}
			sh.observeAck(p, r.ack)
		case <-sh.kicks[p.Name]:
			// New records appended: loop around and extend the window.
		case <-idle:
			// Idle heartbeat: renews the lease and detects fencing even
			// when no writes flow.
			ack, err := sh.post(p, sh.heartbeat())
			if err != nil {
				return err
			}
			sh.observeAck(p, ack)
		}
	}
}

// heartbeat is the empty batch: no records and no anchor, only this
// node's fence and primary hint.
func (sh *Shipper[N, L]) heartbeat() Batch {
	return Batch{Fence: sh.cfg.Store.Fence(), Primary: sh.cfg.Advertise}
}

// post ships one batch through the simulated network, delivering
// duplicates when the network says so.
func (sh *Shipper[N, L]) post(p Peer, b Batch) (Ack, error) {
	duplicate, err := hop(sh.cfg.Net, sh.cfg.Self, p.Name)
	if err != nil {
		return Ack{}, err
	}
	ack, err := sh.doPost(p, b)
	if duplicate {
		// The network delivered the batch twice; apply is idempotent,
		// and the later delivery's acknowledgement supersedes.
		if ack2, err2 := sh.doPost(p, b); err2 == nil || err != nil {
			return ack2, err2
		}
	}
	return ack, err
}

// doPost performs one replication POST and classifies the reply.
func (sh *Shipper[N, L]) doPost(p Peer, b Batch) (Ack, error) {
	req, err := http.NewRequest(http.MethodPost, p.URL+ReplicatePath, bytes.NewReader(b.Frames))
	if err != nil {
		return Ack{}, fault.Invalidf("build replicate request for %s: %v", p.URL, err)
	}
	b.setHeaders(req.Header)
	resp, err := sh.hc.Do(req)
	if err != nil {
		return Ack{}, fault.Unavailablef("ship to %s: %v", p.Name, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return Ack{}, fault.Unavailablef("read reply from %s: %v", p.Name, err)
	}
	if resp.StatusCode != http.StatusOK {
		return Ack{}, peerRefusal(p.Name, resp, raw)
	}
	var ack Ack
	if err := json.Unmarshal(raw, &ack); err != nil {
		return Ack{}, fault.IOf("bad acknowledgement from %s: %v", p.Name, err)
	}
	return ack, nil
}

// peerRefusal reconstructs a typed error from a peer's structured
// refusal — a follower refusing a shipped batch or a snapshot source
// refusing a pull: a 403 comes back as the fence carrying the peer's
// accepted token (its X-Luf-Fence header), divergence refusals as
// *wal.DivergenceError with the peer's reported sequence number and
// checksums, invariant refusals as fault.ErrInvariantViolated,
// everything else as fault.ErrUnavailable.
func peerRefusal(peer string, resp *http.Response, raw []byte) error {
	var eb peerErrorBody
	_ = json.Unmarshal(raw, &eb)
	msg := eb.Error.Message
	if msg == "" {
		msg = string(raw)
	}
	switch {
	case resp.StatusCode == http.StatusForbidden:
		token, _ := strconv.ParseUint(resp.Header.Get(HeaderFence), 10, 64)
		return &fencedError{token: token, msg: fmt.Sprintf(
			"peer %s fenced this primary: it has accepted token %d (%s)", peer, token, msg)}
	case eb.Error.Kind == wal.DivergenceKind:
		de := &wal.DivergenceError{Detail: fmt.Sprintf("peer %s refused the batch: %s", peer, msg)}
		if d := eb.Error.Divergence; d != nil {
			de.Seq, de.LocalCRC, de.RemoteCRC = d.Seq, d.RemoteCRC, d.LocalCRC
		}
		return de
	case eb.Error.Kind == "invariant":
		return fault.Invariantf("peer %s refused the batch: %s", peer, msg)
	default:
		return fault.Unavailablef("peer %s: http %d: %s", peer, resp.StatusCode, msg)
	}
}

// peerErrorBody mirrors the server's structured error payload without
// importing the server package (which imports this one). The embedded
// divergence detail is read from the follower's perspective: its
// "local" checksum is this node's "remote" one.
type peerErrorBody struct {
	Error struct {
		Kind       string               `json:"kind"`
		Message    string               `json:"message"`
		Divergence *wal.DivergenceError `json:"divergence,omitempty"`
	} `json:"error"`
}
