package replica

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"luf/internal/cert"
	"luf/internal/concurrent"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/wal"
)

// SnapshotPath is the HTTP path nodes serve certified state transfer
// on: GET with query parameters after (pull records strictly above
// this sequence number) and max (records per chunk) answers with the
// same anchored batch, body and headers a /v1/replicate POST carries,
// plus HeaderLastSeq reporting the serving journal's tail so the
// puller knows when it has caught up.
const SnapshotPath = "/v1/snapshot"

// HeaderLastSeq carries the serving store's journal tail at the time
// the chunk was cut; a resyncing follower pulls until its own tail
// reaches it.
const HeaderLastSeq = "X-Luf-Last-Seq"

// SnapshotChunkMax is the upper bound (and default) for records per
// snapshot-transfer chunk.
const SnapshotChunkMax = 1024

// pullTimeout bounds each snapshot chunk request.
const pullTimeout = 5 * time.Second

// HealState names one stage of the self-healing lifecycle.
type HealState string

// The self-healing lifecycle: healthy → quarantined → resyncing →
// catching-up → healthy, with stuck as the attempt-capped dead end.
const (
	// HealHealthy is the steady state: local state is trusted and serves.
	HealHealthy HealState = "healthy"
	// HealQuarantined means divergence or corruption was detected: the
	// store is closed, reads are refused, and a resync is queued.
	HealQuarantined HealState = "quarantined"
	// HealResyncing means the node is pulling and re-proving the
	// primary's history chunk by chunk.
	HealResyncing HealState = "resyncing"
	// HealCatchingUp means resynced state was adopted and the node
	// serves again while the live replication stream closes the gap.
	HealCatchingUp HealState = "catching-up"
	// HealStuck means the resync attempt budget ran out; the node
	// refuses reads and waits for POST /v1/resync.
	HealStuck HealState = "stuck"
)

// HealStatus is the healer's inspectable state, surfaced in /v1/stats.
type HealStatus struct {
	// State is the current lifecycle stage.
	State HealState `json:"state"`
	// Attempts counts resync attempts in the current episode.
	Attempts int `json:"attempts,omitempty"`
	// Resyncs counts certified resyncs completed since the node
	// started.
	Resyncs int `json:"resyncs,omitempty"`
	// Cause describes what triggered the current (or last) episode.
	Cause string `json:"cause,omitempty"`
	// LastErr is the most recent resync attempt's failure, empty once
	// an attempt succeeds.
	LastErr string `json:"last_error,omitempty"`
}

// HealConfig configures a Healer.
type HealConfig[N comparable, L any] struct {
	// Dir is the follower's store directory; quarantine wipes it and
	// resync rebuilds it in place.
	Dir string
	// G is the label group.
	G group.Group[L]
	// Codec serializes assertions.
	Codec wal.Codec[N, L]
	// Self is this node's name (the fault.Network link source).
	Self string
	// Source resolves the node to pull certified state from — the
	// current primary, learned from its replication stream. An empty
	// URL means no source is known yet and the attempt fails (and is
	// retried after backoff).
	Source func() (name, url string)
	// Net, when non-nil, is the simulated network chaos tests route
	// every pull through.
	Net *fault.Network
	// ChunkMax bounds records pulled per request (default
	// SnapshotChunkMax).
	ChunkMax int
	// MaxAttempts caps resync attempts per episode before the healer
	// degrades to HealStuck (default 8).
	MaxAttempts int
	// BaseBackoff is the first retry delay; attempts back off
	// exponentially with full jitter from it (default 50ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth (default 5s).
	MaxBackoff time.Duration
	// Seed seeds the backoff jitter (0 picks a fixed default).
	Seed int64
	// OnAdopt hands the verified, freshly resynced state to the owning
	// node, which must atomically swap it in for the quarantined one.
	OnAdopt func(store *wal.Store[N, L], uf *concurrent.UF[N, L], journal *cert.SyncJournal[N, L])
}

// pendingState is a partially resynced store kept across attempts so a
// transfer interrupted by a transient failure resumes where it
// stopped instead of starting over.
type pendingState[N comparable, L any] struct {
	store   *wal.Store[N, L]
	uf      *concurrent.UF[N, L]
	journal *cert.SyncJournal[N, L]
	ap      *Applier[N, L]
}

// Healer drives the follower half of self-healing: on quarantine it
// wipes the damaged store, pulls the primary's history from
// SnapshotPath as anchored batches — the same batches, headers and
// decoder (ReadBatch) as live shipping — applies each through an
// Applier, which re-proves every record with the independent
// certificate checker, and only then hands the rebuilt state back for
// adoption. All transitions are driven from one background goroutine;
// Quarantine, ForceResync, MarkHealthy and Status are safe to call from
// any goroutine.
type Healer[N comparable, L any] struct {
	cfg HealConfig[N, L]
	hc  *http.Client

	mu      sync.Mutex
	st      HealStatus
	rng     *rand.Rand
	pending *pendingState[N, L]
	stopped bool

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

// NewHealer builds a healer in the healthy state; call Start to launch
// its background loop.
func NewHealer[N comparable, L any](cfg HealConfig[N, L]) *Healer[N, L] {
	if cfg.ChunkMax <= 0 || cfg.ChunkMax > SnapshotChunkMax {
		cfg.ChunkMax = SnapshotChunkMax
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 8
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	h := &Healer[N, L]{
		cfg:  cfg,
		hc:   &http.Client{Timeout: pullTimeout},
		st:   HealStatus{State: HealHealthy},
		rng:  rand.New(rand.NewSource(seed)),
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}
	return h
}

// Start launches the healing loop.
func (h *Healer[N, L]) Start() {
	h.wg.Add(1)
	go h.run()
}

// Stop halts the healing loop and releases any partially resynced
// store.
func (h *Healer[N, L]) Stop() {
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		h.wg.Wait()
		return
	}
	h.stopped = true
	close(h.stop)
	h.mu.Unlock()
	h.wg.Wait()
	h.mu.Lock()
	if h.pending != nil {
		_ = h.pending.store.Close()
		h.pending = nil
	}
	h.mu.Unlock()
}

// Status returns the healer's current lifecycle state.
func (h *Healer[N, L]) Status() HealStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.st
}

// Quarantine begins a self-healing episode for cause: the owner has
// detected divergence or corruption and already closed the suspect
// store. Quarantining an already-healing node only refreshes the
// recorded cause; a stuck node stays stuck (ForceResync restarts it).
func (h *Healer[N, L]) Quarantine(cause error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch h.st.State {
	case HealQuarantined, HealResyncing, HealStuck:
		h.st.Cause = cause.Error()
		return
	}
	h.st.State = HealQuarantined
	h.st.Cause = cause.Error()
	h.st.Attempts = 0
	h.st.LastErr = ""
	// A fresh episode invalidates any leftover partial resync: the new
	// damage may be in what it already pulled.
	if h.pending != nil {
		_ = h.pending.store.Close()
		h.pending = nil
	}
	h.kickLocked()
}

// ForceResync is the manual escape hatch: it restarts healing from
// any state — including HealStuck, which no automatic transition
// leaves — with a fresh attempt budget. It returns the status it
// installed; by the time a later Status call runs, the kicked healing
// loop may already have moved on.
func (h *Healer[N, L]) ForceResync(cause error) HealStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.st.State = HealQuarantined
	h.st.Cause = cause.Error()
	h.st.Attempts = 0
	h.st.LastErr = ""
	if h.pending != nil {
		_ = h.pending.store.Close()
		h.pending = nil
	}
	h.kickLocked()
	return h.st
}

// MarkHealthy completes the lifecycle: the owner calls it when a
// catching-up node applies a live replication batch cleanly, proving
// it has rejoined shipping.
func (h *Healer[N, L]) MarkHealthy() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.st.State == HealCatchingUp {
		h.st.State = HealHealthy
	}
}

// kickLocked nudges the healing loop; callers hold h.mu.
func (h *Healer[N, L]) kickLocked() {
	select {
	case h.kick <- struct{}{}:
	default:
	}
}

// run is the healing loop: on each kick it retries certified resync
// with exponential backoff and full jitter until it succeeds or the
// attempt budget is exhausted.
func (h *Healer[N, L]) run() {
	defer h.wg.Done()
	for {
		select {
		case <-h.stop:
			return
		case <-h.kick:
		}
		for {
			h.mu.Lock()
			state, attempts := h.st.State, h.st.Attempts
			h.mu.Unlock()
			if state != HealQuarantined && state != HealResyncing {
				break
			}
			if attempts >= h.cfg.MaxAttempts {
				h.mu.Lock()
				h.st.State = HealStuck
				h.mu.Unlock()
				break
			}
			err := h.resync()
			if err == nil {
				break
			}
			h.mu.Lock()
			h.st.State = HealQuarantined
			h.st.Attempts++
			h.st.LastErr = err.Error()
			d := backoff(h.rng, h.cfg.BaseBackoff, h.cfg.MaxBackoff, h.st.Attempts)
			h.mu.Unlock()
			if !sleep(h.stop, d) {
				return
			}
		}
	}
}

// resync performs one certified resync attempt: wipe (first attempt of
// an episode only — later attempts resume the partial transfer), pull
// the source's history chunk by chunk, verify every record through the
// full replication check (certificate re-proved, structure
// cross-checked, frames CRC-verified), and adopt once caught up to the
// source's tail. Any verification failure discards the partial state
// so the next attempt starts clean; transport failures keep it for
// resumption.
func (h *Healer[N, L]) resync() error {
	h.mu.Lock()
	h.st.State = HealResyncing
	p := h.pending
	h.mu.Unlock()
	srcName, srcURL := h.cfg.Source()
	if srcURL == "" {
		return fault.Unavailablef("resync: no primary known yet to pull certified state from")
	}
	if p == nil {
		if err := os.RemoveAll(h.cfg.Dir); err != nil {
			return fault.IOf("resync: wipe %s: %v", h.cfg.Dir, err)
		}
		store, rec, err := wal.Open(h.cfg.Dir, h.cfg.G, h.cfg.Codec, wal.Options{})
		if err != nil {
			return err
		}
		p = &pendingState[N, L]{
			store:   store,
			uf:      rec.UF,
			journal: rec.Journal,
			ap:      &Applier[N, L]{G: h.cfg.G, UF: rec.UF, Journal: rec.Journal, Store: store},
		}
		h.mu.Lock()
		h.pending = p
		h.mu.Unlock()
	}
	for {
		select {
		case <-h.stop:
			return fault.Unavailablef("resync: healer stopping")
		default:
		}
		b, tail, err := h.pull(srcName, srcURL, p.store.LastSeq())
		if err != nil {
			return err
		}
		if _, err := p.ap.Apply(b); err != nil {
			// The pulled state failed verification; it cannot be resumed.
			h.mu.Lock()
			h.pending = nil
			h.mu.Unlock()
			_ = p.store.Close()
			return err
		}
		if p.store.LastSeq() >= tail {
			break
		}
		if b.Count == 0 {
			h.mu.Lock()
			h.pending = nil
			h.mu.Unlock()
			_ = p.store.Close()
			return fault.Unavailablef("resync: source reports tail %d but shipped nothing past %d", tail, p.store.LastSeq())
		}
	}
	h.mu.Lock()
	h.pending = nil
	h.st.State = HealCatchingUp
	h.st.Resyncs++
	h.st.Attempts = 0
	h.st.LastErr = ""
	h.mu.Unlock()
	if h.cfg.OnAdopt != nil {
		h.cfg.OnAdopt(p.store, p.uf, p.journal)
	}
	return nil
}

// pull fetches one snapshot chunk strictly above after and returns it
// as a replication batch plus the source's journal tail.
func (h *Healer[N, L]) pull(srcName, srcURL string, after uint64) (Batch, uint64, error) {
	if _, err := hop(h.cfg.Net, h.cfg.Self, srcName); err != nil {
		return Batch{}, 0, err
	}
	url := fmt.Sprintf("%s%s?after=%d&max=%d", srcURL, SnapshotPath, after, h.cfg.ChunkMax)
	resp, err := h.hc.Get(url)
	if err != nil {
		return Batch{}, 0, fault.Unavailablef("pull snapshot from %s: %v", srcName, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// The refusal stands whether or not its message arrives whole.
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return Batch{}, 0, peerRefusal(srcName, resp, raw)
	}
	b, err := ReadBatch(resp.Header, resp.Body)
	if err != nil {
		return Batch{}, 0, fmt.Errorf("snapshot chunk from %s: %w", srcName, err)
	}
	tail, err := strconv.ParseUint(resp.Header.Get(HeaderLastSeq), 10, 64)
	if err != nil {
		return Batch{}, 0, fault.Invalidf("snapshot chunk from %s: bad %s header: %v", srcName, HeaderLastSeq, err)
	}
	return b, tail, nil
}

// ServeSnapshot answers one snapshot-transfer request from store with
// the anchored batch of up to max records strictly above the after
// query parameter — the same batch, body and headers a /v1/replicate
// POST carries, so the puller decodes it with ReadBatch and its
// log-matching check covers resync too — plus HeaderLastSeq reporting
// the journal tail. A non-nil return means nothing was written and the
// caller must render the error; on success the response is complete.
// The chunk is cut from the store's in-memory record mirror, which
// journal trims never shrink, so a transfer spanning a concurrent Trim
// still serves the full history.
func ServeSnapshot[N comparable, L any](w http.ResponseWriter, r *http.Request, store *wal.Store[N, L], advertise string) error {
	q := r.URL.Query()
	var after uint64
	if s := q.Get("after"); s != "" {
		u, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return fault.Invalidf("snapshot: bad after parameter %q: %v", s, err)
		}
		after = u
	}
	max := SnapshotChunkMax
	if s := q.Get("max"); s != "" {
		m, err := strconv.Atoi(s)
		if err != nil {
			return fault.Invalidf("snapshot: bad max parameter %q: %v", s, err)
		}
		if m > 0 && m < max {
			max = m
		}
	}
	if tail := store.LastSeq(); after > tail {
		return fault.Invalidf("snapshot: after=%d is beyond this node's journal tail %d", after, tail)
	}
	b, err := cut(store, advertise, after, max)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	b.setHeaders(w.Header())
	w.Header().Set(HeaderLastSeq, strconv.FormatUint(store.LastSeq(), 10))
	_, _ = w.Write(b.Frames)
	return nil
}
