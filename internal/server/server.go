// Package server exposes the durable labeled-union-find over HTTP/JSON
// with the self-protection mechanisms a long-running service needs.
//
// The serving instantiation is the string-node constant-difference
// structure (group.Delta): clients assert relations m - n = label,
// query them, and fetch machine-checkable certificates for every
// answer. When configured with a directory, every accepted assertion is
// appended to the write-ahead journal (internal/wal) and fsynced before
// the request is acknowledged — an acknowledged assert survives any
// crash, and recovery re-proves it through the independent certificate
// checker.
//
// Self-protection:
//
//   - admission control with brownout degradation: at most MaxInflight
//     requests run at once, with per-class caps below that so
//     certificate-heavy work (explain, solve) sheds first, stale-
//     tolerant reads second and writes last; shed requests get 429 +
//     Retry-After (go spread the load) while degraded-node refusals
//     stay 503 (leave this node alone), never unbounded queueing;
//   - deadline propagation: clients attach their remaining budget via
//     the X-Luf-Deadline header; the server clamps its per-request
//     deadline and step budget to it and refuses doomed work outright;
//   - per-request budgets: each request runs under a fault.Guard
//     deadline, and batch work under split step budgets, so one huge
//     request degrades deterministically instead of starving the rest;
//   - bounded-staleness reads: a request's X-Luf-Session token names
//     the durable frontier the client has observed; a replica serves
//     the read only once its own durable state covers it (briefly
//     waiting), else 421-redirects toward the primary — every replica
//     is a read path without giving up read-your-writes;
//   - a circuit breaker around the solver portfolio fails solve
//     requests fast after repeated failures while assert/query traffic
//     keeps flowing;
//   - graceful drain: Drain stops admitting, lets in-flight requests
//     finish, flushes the journal and writes a final snapshot;
//   - a failed journal (disk gone) degrades the server to read-only
//     serving with structured 503s on writes, never silent data loss.
//
// Every error response carries a structured body {"error": {"kind",
// "message"}} whose kind is the fault taxonomy label (fault.StopLabel),
// so clients can distinguish shed load (retryable) from conflicts
// (permanent) mechanically.
package server

import (
	"context"
	"errors"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"luf/internal/cert"
	"luf/internal/concurrent"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/replica"
	"luf/internal/scrub"
	"luf/internal/wal"
)

// Config configures a Server. The zero value serves from memory only.
type Config struct {
	// Dir, when non-empty, is the durable store directory: accepted
	// asserts are journaled and fsynced before acknowledgement, and
	// Open recovers (with certification) whatever a previous process
	// persisted. Empty means in-memory serving without durability.
	Dir string
	// MaxInflight bounds concurrently admitted requests; <= 0 means 64.
	MaxInflight int
	// RequestTimeout is the per-request deadline; <= 0 means 2s.
	RequestTimeout time.Duration
	// RequestSteps is the per-request step budget for batch work;
	// <= 0 means 1e6. A propagated client deadline shorter than
	// RequestTimeout scales the budget down proportionally.
	RequestSteps int
	// MinDeadline is the floor under propagated client deadlines: a
	// request arriving with less remaining budget than this is refused
	// immediately (504) instead of burning capacity on work the client
	// will abandon; <= 0 means 2ms.
	MinDeadline time.Duration
	// FollowerWaitMax bounds how long a read blocks waiting for this
	// node's durable state to cover the client's session token before
	// 421-redirecting toward the primary; <= 0 means 50ms.
	FollowerWaitMax time.Duration
	// SnapshotEvery triggers a background snapshot after that many
	// journaled asserts; <= 0 disables automatic snapshots (Drain still
	// writes a final one).
	SnapshotEvery int
	// BreakerFailures is the consecutive-failure threshold of the
	// solver circuit breaker; <= 0 means 3.
	BreakerFailures int
	// BreakerCooldown is the breaker's open-state cooldown; <= 0 means 5s.
	BreakerCooldown time.Duration
	// SolveSteps is the per-variant solver step budget; <= 0 uses the
	// solver default.
	SolveSteps int
	// Inject, when non-nil, threads deterministic faults through the
	// server (request delays, certificate sabotage) and its store (torn
	// writes, fsync failures). The injector is single-owner; the server
	// serializes access to it.
	Inject *fault.Injector

	// NodeName is this node's name: the source endpoint on the
	// simulated network and the name peers see; <= "" means "node".
	NodeName string
	// Role selects the node's replication role: "primary" (the default)
	// accepts writes and ships its journal to Peers; "follower" refuses
	// client writes with 421 and applies shipped batches on
	// /v1/replicate until promoted.
	Role string
	// Advertise is this node's client-facing base URL, shipped to
	// followers so they can redirect writes to the current primary.
	Advertise string
	// Peers are the other cluster members this node ships to while it
	// is (or becomes) primary. Requires Dir: replication is only
	// meaningful between durable stores.
	Peers []replica.Peer
	// LeaseTTL bounds how long the primary may accept writes without a
	// follower acknowledgement; <= 0 means 1s. Only meaningful with
	// Peers.
	LeaseTTL time.Duration
	// SyncReplication makes writes block until at least one follower
	// acknowledges the record as durable — an acknowledged write then
	// survives the loss of the primary.
	SyncReplication bool
	// ShipInterval is the shipper's idle heartbeat/retry period; <= 0
	// uses the replica default (50ms).
	ShipInterval time.Duration
	// PipelineDepth is the number of replication batches the shipper
	// keeps in flight per peer; <= 0 uses the replica default (4).
	// Depth 1 reproduces stop-and-wait shipping.
	PipelineDepth int
	// Net, when non-nil, routes replication through a simulated network
	// (chaos tests).
	Net *fault.Network

	// SelfHeal enables automated certified resync on this node:
	// detected divergence or corruption quarantines the store, wipes
	// it, pulls the primary's history over /v1/snapshot and re-proves
	// every record before adopting it — no operator involved. Requires
	// Dir; only acts while the node is a follower (a primary has no
	// source of truth to pull from and degrades instead).
	SelfHeal bool
	// ScrubInterval is the background integrity scrubber's period;
	// <= 0 disables the background loop (ScrubNow still scrubs on
	// demand). Requires Dir.
	ScrubInterval time.Duration
	// ScrubSample is the number of certificates the scrubber re-proves
	// per pass (rotating window); <= 0 means 32.
	ScrubSample int
	// ResyncMaxAttempts caps resync attempts per self-healing episode
	// before the node degrades to refusing reads and waits for
	// POST /v1/resync; <= 0 means 8.
	ResyncMaxAttempts int
	// ResyncBackoff is the base delay between resync attempts
	// (exponential with full jitter); <= 0 means 50ms.
	ResyncBackoff time.Duration
	// Seed seeds the node's jittered backoffs and the scrub sampling
	// window; fixed seeds make chaos tests deterministic (0 picks a
	// library default).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.RequestSteps <= 0 {
		c.RequestSteps = 1_000_000
	}
	if c.MinDeadline <= 0 {
		c.MinDeadline = 2 * time.Millisecond
	}
	if c.FollowerWaitMax <= 0 {
		c.FollowerWaitMax = 50 * time.Millisecond
	}
	if c.BreakerFailures <= 0 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Role == "" {
		c.Role = RolePrimary
	}
	if c.NodeName == "" {
		c.NodeName = "node"
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = time.Second
	}
	if c.ScrubSample <= 0 {
		c.ScrubSample = 32
	}
	if c.ResyncMaxAttempts <= 0 {
		c.ResyncMaxAttempts = 8
	}
	if c.ResyncBackoff <= 0 {
		c.ResyncBackoff = 50 * time.Millisecond
	}
	return c
}

// Replication role names used in Config.Role and surfaced in stats.
const (
	// RolePrimary marks the node that accepts writes and ships its
	// journal.
	RolePrimary = "primary"
	// RoleFollower marks a node that applies shipped batches and
	// redirects writes.
	RoleFollower = "follower"
)

// nodeState bundles the swappable serving state — the union-find, its
// certificate journal, the durable store and the replication applier
// built over them. Self-healing replaces the whole bundle atomically
// when a resync adopts a rebuilt store, so every handler reads it once
// per request and works against one consistent generation.
type nodeState struct {
	uf      *concurrent.UF[string, int64]
	journal *cert.SyncJournal[string, int64]
	store   *wal.Store[string, int64]       // nil when Config.Dir is empty
	applier *replica.Applier[string, int64] // nil without a store
}

// errBox wraps an error for storage in an atomic.Value (which needs a
// consistent concrete type).
type errBox struct{ err error }

// Server is the HTTP serving layer over a concurrent labeled
// union-find, optionally backed by a durable WAL store.
type Server struct {
	cfg     Config
	g       group.Delta
	state   atomic.Pointer[nodeState]
	breaker *Breaker
	mux     *http.ServeMux

	sem      chan struct{} // admission tokens
	draining atomic.Bool

	injMu sync.Mutex // Injector is not safe for concurrent use

	shed     atomic.Int64 // requests rejected by admission control
	served   atomic.Int64 // requests admitted
	snapping atomic.Bool  // a background snapshot is running
	appends  atomic.Int64 // journaled asserts since the last snapshot

	// Brownout state: per-class inflight counts against per-class caps
	// (heavy work sheds first, writes last), plus the overload-control
	// counters surfaced in /v1/stats.
	classLimit       [numClasses]int64
	classInflight    [numClasses]atomic.Int64
	classShed        [numClasses]atomic.Int64
	deadlineRefused  atomic.Int64 // doomed requests refused before admission
	sessionWaits     atomic.Int64 // reads served after waiting for catch-up
	sessionRedirects atomic.Int64 // reads 421-redirected: session not covered in time

	// Replication state. follower flips atomically on promotion and on
	// fencing; repMu serializes the shipper lifecycle transitions
	// (promote, demote, drain).
	follower    atomic.Bool
	primaryHint atomic.Value // string: last known primary base URL
	lease       *replica.Lease
	repMu       sync.Mutex
	shipper     *replica.Shipper[string, int64]

	// Self-healing state. healer is non-nil with Config.SelfHeal,
	// scrubber with a durable store; integrity holds the errBox of a
	// corruption this node cannot heal from (primary, or healing
	// disabled), which degrades it to refusing reads and writes.
	healer    *replica.Healer[string, int64]
	scrubber  *scrub.Scrubber[string, int64]
	integrity atomic.Value // errBox

	// Control-plane participant state (see window.go): the class-window
	// table holding 2PC prepare and migration freeze windows, the
	// moved-node stale-write fences, each window kind's coordinator
	// fence, and the counters surfaced in /v1/stats. All under ctlMu.
	ctlMu    sync.Mutex
	windows  map[windowKey]*classWindow
	moved    map[string]migMoved
	fences   [2]kindFence // indexed by windowKind
	prepared int64        // 2PC yes votes returned
	aborted  int64        // prepare windows released by an abort message
	stalled  int64        // client writes 503-stalled by a freeze window
}

// st returns the current serving-state generation.
func (s *Server) st() *nodeState { return s.state.Load() }

// New builds a server, recovering durable state from cfg.Dir when set.
// The returned Recovered describes what recovery restored (nil without
// a store directory).
func New(cfg Config) (*Server, *wal.Recovered[string, int64], error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		breaker:    NewBreaker(cfg.BreakerFailures, cfg.BreakerCooldown),
		sem:        make(chan struct{}, cfg.MaxInflight),
		classLimit: classLimits(cfg.MaxInflight),
		windows:    map[windowKey]*classWindow{},
		moved:      map[string]migMoved{},
	}
	var rec *wal.Recovered[string, int64]
	var startCause error
	st := &nodeState{}
	if cfg.Dir != "" {
		store, r, err := wal.Open(cfg.Dir, s.g, wal.DeltaCodec{}, wal.Options{Inject: cfg.Inject})
		if err != nil && cfg.SelfHeal && cfg.Role == RoleFollower &&
			(errors.Is(err, fault.ErrIO) || errors.Is(err, fault.ErrInvariantViolated)) {
			// The local state is damaged beyond the torn-tail repair
			// recovery performs. A self-healing follower does not need an
			// operator for this: wipe, start quarantined, and resync the
			// whole history from the primary with every record re-proved.
			startCause = err
			if rmErr := os.RemoveAll(cfg.Dir); rmErr != nil {
				return nil, nil, fault.IOf("self-heal: wipe damaged store %s: %v", cfg.Dir, rmErr)
			}
			store, r, err = wal.Open(cfg.Dir, s.g, wal.DeltaCodec{}, wal.Options{Inject: cfg.Inject})
		}
		if err != nil {
			return nil, nil, err
		}
		st.store, rec = store, r
		st.uf, st.journal = r.UF, r.Journal
	} else {
		st.journal = cert.NewSyncJournal[string, int64](s.g)
		st.uf = concurrent.New[string, int64](s.g, concurrent.WithRecorder[string, int64](st.journal.Record))
	}
	if cfg.Role != RolePrimary && cfg.Role != RoleFollower {
		return nil, nil, fault.Invalidf("unknown role %q (want %q or %q)", cfg.Role, RolePrimary, RoleFollower)
	}
	if (cfg.Role == RoleFollower || len(cfg.Peers) > 0) && st.store == nil {
		return nil, nil, fault.Invalidf("replication requires a durable store directory")
	}
	if cfg.SelfHeal && st.store == nil {
		return nil, nil, fault.Invalidf("self-healing requires a durable store directory")
	}
	s.primaryHint.Store("")
	s.integrity.Store(errBox{})
	if st.store != nil {
		st.applier = &replica.Applier[string, int64]{G: s.g, UF: st.uf, Journal: st.journal, Store: st.store}
	}
	s.state.Store(st)
	s.follower.Store(cfg.Role == RoleFollower)
	if st.store != nil {
		s.restoreFences(st.store.Entries())
	}
	if len(cfg.Peers) > 0 {
		// The lease starts expired: a freshly started (or revived)
		// primary must earn a follower acknowledgement before it may
		// accept writes — a stale primary is fenced during that probe
		// instead of accepting doomed writes. Followers carry the same
		// (expired) lease so a later promotion inherits the gate.
		s.lease = replica.NewLease(cfg.LeaseTTL)
	}
	if cfg.SelfHeal {
		s.healer = replica.NewHealer(replica.HealConfig[string, int64]{
			Dir:         cfg.Dir,
			G:           s.g,
			Codec:       wal.DeltaCodec{},
			Self:        cfg.NodeName,
			Source:      s.healSource,
			Net:         cfg.Net,
			MaxAttempts: cfg.ResyncMaxAttempts,
			BaseBackoff: cfg.ResyncBackoff,
			Seed:        cfg.Seed,
			OnAdopt:     s.adopt,
		})
		s.healer.Start()
	}
	if st.store != nil && cfg.Dir != "" {
		s.scrubber = scrub.New(scrub.Config[string, int64]{
			Dir:   cfg.Dir,
			G:     s.g,
			Codec: wal.DeltaCodec{},
			State: func() (*wal.Store[string, int64], *concurrent.UF[string, int64], *cert.SyncJournal[string, int64]) {
				cur := s.st()
				return cur.store, cur.uf, cur.journal
			},
			Gate:         s.scrubbable,
			Sample:       cfg.ScrubSample,
			Interval:     cfg.ScrubInterval,
			Seed:         cfg.Seed,
			OnCorruption: s.quarantine,
		})
		s.scrubber.Start()
	}
	if cfg.Role == RolePrimary && len(cfg.Peers) > 0 {
		s.startShipping()
	}
	if cfg.Role == RolePrimary && cfg.Advertise != "" {
		s.primaryHint.Store(cfg.Advertise)
	}
	if startCause != nil {
		s.quarantine(startCause)
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s, rec, nil
}

// adopt atomically swaps in the state a completed certified resync
// rebuilt; the healer calls it exactly once per successful resync.
func (s *Server) adopt(store *wal.Store[string, int64], uf *concurrent.UF[string, int64], journal *cert.SyncJournal[string, int64]) {
	s.state.Store(&nodeState{
		uf:      uf,
		journal: journal,
		store:   store,
		applier: &replica.Applier[string, int64]{G: s.g, UF: uf, Journal: journal, Store: store},
	})
	s.restoreFences(store.Entries())
}

// healSource resolves the node to pull certified resync state from:
// the primary this follower last heard from, mapped back to its peer
// name so chaos tests can partition the pull path too. It returns an
// empty URL while no primary is known (the healer retries after
// backoff; the quarantined replicate handler still learns the hint
// from refused batches).
func (s *Server) healSource() (string, string) {
	hint, _ := s.primaryHint.Load().(string)
	if hint == "" || hint == s.cfg.Advertise {
		return "", ""
	}
	for _, p := range s.cfg.Peers {
		if p.URL == hint {
			return p.Name, hint
		}
	}
	return "primary", hint
}

// quarantine reacts to detected divergence or corruption. A
// self-healing follower closes the suspect store and hands the episode
// to the healer; any other node (a primary has no source of truth to
// pull from) records the cause and degrades to refusing reads and
// writes until an operator steps in.
func (s *Server) quarantine(cause error) {
	if s.healer != nil && s.follower.Load() {
		if st := s.st(); st.store != nil {
			_ = st.store.Close()
		}
		s.healer.Quarantine(cause)
		return
	}
	s.integrity.Store(errBox{err: cause})
}

// integrityErr returns the unrecoverable integrity failure pinning this
// node in the degraded state, or nil.
func (s *Server) integrityErr() error {
	if b, ok := s.integrity.Load().(errBox); ok {
		return b.err
	}
	return nil
}

// healthyState reports whether this node's local state is currently
// trustworthy to serve: a non-nil return (always fault.ErrUnavailable)
// means the state is quarantined, resyncing, stuck, or failed an
// integrity check it cannot heal from.
func (s *Server) healthyState() error {
	if b, ok := s.integrity.Load().(errBox); ok && b.err != nil {
		return fault.Unavailablef("node state failed an integrity check and cannot self-heal: %v — operator action required", b.err)
	}
	if s.healer == nil {
		return nil
	}
	hs := s.healer.Status()
	switch hs.State {
	case replica.HealQuarantined, replica.HealResyncing:
		return fault.Unavailablef("node state is %s (%s) — self-healing in progress", hs.State, hs.Cause)
	case replica.HealStuck:
		return fault.Unavailablef("self-healing gave up after %d resync attempts (last error: %s) — POST /v1/resync to retry", hs.Attempts, hs.LastErr)
	}
	return nil
}

// scrubbable gates the integrity scrubber: only a node whose state is
// trustworthy and whose journal is not already sticky-failed gets
// scrubbed — scrubbing a store mid-resync (wiped from disk) or after a
// known disk failure would only re-report what the node already knows.
func (s *Server) scrubbable() bool {
	if s.healthyState() != nil {
		return false
	}
	st := s.st()
	return st.store != nil && st.store.Err() == nil
}

// ScrubNow runs one synchronous integrity pass (disk frames plus a
// certificate sample window) and returns its verdict; tests and the
// chaos scheduler drive scrubbing deterministically through it. A nil
// return means clean, skipped (gated off), or no scrubber (in-memory
// server).
func (s *Server) ScrubNow() error {
	if s.scrubber == nil {
		return nil
	}
	return s.scrubber.Tick()
}

// HealStatus returns the self-healing lifecycle state, or nil when
// self-healing is not enabled.
func (s *Server) HealStatus() *replica.HealStatus {
	if s.healer == nil {
		return nil
	}
	hs := s.healer.Status()
	return &hs
}

// Kill hard-stops the node's background machinery — shipper, healer,
// scrubber — without draining, flushing or closing the store: the
// in-process stand-in for a crash. Chaos tests restart the node by
// reopening its directory with New.
func (s *Server) Kill() {
	s.draining.Store(true)
	s.repMu.Lock()
	sh := s.shipper
	s.shipper = nil
	s.repMu.Unlock()
	if sh != nil {
		sh.Stop()
	}
	if s.scrubber != nil {
		s.scrubber.Stop()
	}
	if s.healer != nil {
		s.healer.Stop()
	}
}

// startShipping builds and starts the shipper for this node's peers.
// Callers hold repMu or are still single-threaded (New).
func (s *Server) startShipping() {
	sh := replica.NewShipper(replica.Config[string, int64]{
		Store:         s.st().store,
		Self:          s.cfg.NodeName,
		Advertise:     s.cfg.Advertise,
		Peers:         s.cfg.Peers,
		Lease:         s.lease,
		Interval:      s.cfg.ShipInterval,
		PipelineDepth: s.cfg.PipelineDepth,
		Seed:          s.cfg.Seed,
		Net:           s.cfg.Net,
		OnFenced:      s.demote,
	})
	s.shipper = sh
	sh.Start()
}

// demote steps this node down to follower after a newer fencing token
// was observed: writes start redirecting, the lease is expired, and the
// shipper is stopped. Called from the shipper's OnFenced goroutine and
// from the replicate handler when a newer primary ships to us.
func (s *Server) demote(token uint64) {
	s.repMu.Lock()
	sh := s.shipper
	s.shipper = nil
	s.follower.Store(true)
	if s.lease != nil {
		s.lease.Expire()
	}
	// The old hint may point at this very node; the new primary's
	// stream will supply the real one.
	s.primaryHint.Store("")
	s.repMu.Unlock()
	if sh != nil {
		sh.Stop()
	}
}

// Promote turns this node into the primary under the given fencing
// token, which must exceed every token this node has accepted; the
// token is made durable before the role flips. The new primary starts
// shipping to its configured peers; its lease starts expired until a
// follower acknowledges (in a single-surviving-node emergency there is
// nobody to acknowledge — see OPERATIONS.md for the escape hatch).
func (s *Server) Promote(token uint64) error {
	st := s.st()
	if st.store == nil {
		return fault.Invalidf("promotion requires a durable store")
	}
	if err := s.healthyState(); err != nil {
		// A quarantined, resyncing or stuck node must never become the
		// source of truth: its local state is exactly what is in doubt.
		return fault.Unavailablef("refusing promotion: %v", err)
	}
	s.repMu.Lock()
	defer s.repMu.Unlock()
	if cur := st.store.Fence(); token <= cur {
		return fault.Fencedf("promotion token %d is not above the accepted fencing token %d", token, cur)
	}
	if err := st.store.SetFence(token); err != nil {
		return err
	}
	s.follower.Store(false)
	// A promoted follower applied its tagged bridge edges through
	// replication, never through its own write gate: pick the 2PC epoch
	// fence and the migration moved-node fences up from the journal
	// before accepting coordinator or client traffic.
	s.restoreFences(st.store.Entries())
	if s.cfg.Advertise != "" {
		s.primaryHint.Store(s.cfg.Advertise)
	}
	if s.lease != nil {
		// The election confers one TTL of write authority: the token the
		// promoter computed had to beat the cluster-wide maximum, so no
		// older primary can replicate past us, and any *newer* election
		// fences us at first contact. Sustained authority still requires
		// follower acknowledgements to keep renewing the lease.
		s.lease.Renew()
	}
	if s.shipper == nil && len(s.cfg.Peers) > 0 {
		s.startShipping()
	}
	return nil
}

// Role returns the node's current replication role, which changes at
// runtime through Promote and fencing-driven demotion.
func (s *Server) Role() string {
	if s.follower.Load() {
		return RoleFollower
	}
	return RolePrimary
}

// writable reports whether this node may accept a client write right
// now: followers redirect (421 + primary hint), and a primary whose
// lease lapsed — no follower acknowledgement within the TTL, i.e. it
// may be partitioned while a new primary is elected — refuses with a
// retryable 503 instead of accepting writes that fencing would doom.
func (s *Server) writable() error {
	if s.follower.Load() {
		if hint, _ := s.primaryHint.Load().(string); hint != "" {
			return fault.NotPrimaryf("this node is a follower; write to the primary at %s", hint)
		}
		return fault.NotPrimaryf("this node is a follower; write to the primary")
	}
	if err := s.healthyState(); err != nil {
		return err
	}
	if s.lease != nil && !s.lease.Valid() {
		return fault.Unavailablef("primary lease lapsed (no follower acknowledgement within %v); refusing writes until a follower acks", s.cfg.LeaseTTL)
	}
	return nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// persist journals one accepted assertion and blocks until it is
// durable. Without a store it is a no-op. A sticky journal failure
// surfaces as the store's classified error; the caller turns it into a
// structured 503 (the in-memory accept stands, but the client was told
// durability failed, so it must not rely on it).
func (s *Server) persist(e cert.Entry[string, int64]) (uint64, error) {
	st := s.st()
	if st.store == nil {
		return 0, nil
	}
	seq, err := st.store.Append(e)
	if err != nil {
		return 0, err
	}
	if err := st.store.Commit(seq); err != nil {
		return 0, err
	}
	if n := s.appends.Add(1); s.cfg.SnapshotEvery > 0 && n >= int64(s.cfg.SnapshotEvery) {
		s.maybeSnapshot()
	}
	s.repMu.Lock()
	sh := s.shipper
	s.repMu.Unlock()
	if sh != nil {
		sh.Kick()
	}
	return seq, nil
}

// syncWait gates the acknowledgement of a durable write behind
// synchronous replication, when configured: it blocks (bounded by ctx)
// until at least one follower acknowledged seq as durable, so the
// write survives the loss of this primary.
func (s *Server) syncWait(ctx context.Context, seq uint64) error {
	if !s.cfg.SyncReplication || seq == 0 || len(s.cfg.Peers) == 0 {
		return nil
	}
	s.repMu.Lock()
	sh := s.shipper
	s.repMu.Unlock()
	if sh == nil {
		// A drain or demotion stopped the shipper while this write was
		// in flight. Acknowledging now would promise failover
		// durability the record does not have — refuse instead.
		return fault.Unavailablef("write is durable locally but replication is stopped; it may not survive failover")
	}
	return sh.WaitAcked(ctx, seq)
}

// maybeSnapshot starts a background snapshot unless one is running.
func (s *Server) maybeSnapshot() {
	if !s.snapping.CompareAndSwap(false, true) {
		return
	}
	s.appends.Store(0)
	st := s.st()
	go func() {
		defer s.snapping.Store(false)
		// A snapshot failure is not fatal: the journal still holds
		// everything. The next trigger retries. Once a snapshot covers a
		// journal prefix, the prefix is trimmed away (atomically) so the
		// journal does not grow without bound.
		if err := st.store.Snapshot(); err != nil {
			return
		}
		_ = st.store.Trim()
	}()
}

// Drain gracefully shuts the server down: new requests are refused
// with 503 (structured "unavailable" error), in-flight requests run to
// completion (bounded by ctx), the journal is flushed, and — when the
// drain completed cleanly — a final snapshot is written so the next
// start recovers without replaying the whole journal. Drain is
// idempotent; it returns the first error encountered.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil
	}
	s.repMu.Lock()
	sh := s.shipper
	s.shipper = nil
	s.repMu.Unlock()
	if sh != nil {
		sh.Stop()
	}
	if s.scrubber != nil {
		s.scrubber.Stop()
	}
	if s.healer != nil {
		s.healer.Stop()
	}
	// Acquire every admission token: once we hold all of them, no
	// request is in flight (each in-flight request holds one until it
	// finishes, and new requests are already refused).
	for i := 0; i < cap(s.sem); i++ {
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return fault.Unavailablef("drain aborted with requests in flight: %v", ctx.Err())
		}
	}
	st := s.st()
	if st.store == nil || s.healthyState() != nil {
		// A quarantined or degraded store has nothing worth flushing: its
		// contents are either already closed (pending resync) or suspect.
		return nil
	}
	var first error
	if err := st.store.Sync(); err != nil {
		first = err
	}
	if first == nil {
		if err := st.store.Snapshot(); err != nil {
			first = err
		}
	}
	if err := st.store.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Store returns the durable store (nil for in-memory servers); tests
// and the daemon use it for stats. Self-healing may swap the store a
// resync rebuilt in at any time, so callers must not cache it.
func (s *Server) Store() *wal.Store[string, int64] { return s.st().store }

// UF returns the serving union-find; like Store, it must not be
// cached across a self-healing resync.
func (s *Server) UF() *concurrent.UF[string, int64] { return s.st().uf }
