package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"luf/internal/cert"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/scrub"
	"luf/internal/server"
	"luf/internal/wal"
)

// Conn is the coordinator's connection to one replica group. The
// failover-aware cluster client (internal/client.Cluster) satisfies it;
// the indirection keeps this package free of a client dependency so the
// client can, in turn, route through the shard map.
type Conn interface {
	// Assert asserts m - n = label against the group's primary.
	Assert(ctx context.Context, n, m string, label int64, reason string) (server.AssertResponse, error)
	// Relation queries the relation between n and m inside the group.
	Relation(ctx context.Context, n, m string) (label int64, related bool, err error)
	// Explain fetches a verified certificate for the relation.
	Explain(ctx context.Context, n, m string) (cert.Certificate[string, int64], error)
	// Prepare runs the 2PC vote round against the group's primary.
	Prepare(ctx context.Context, req server.PrepareRequest) (server.PrepareResponse, error)
	// Abort releases the group's prepare-window reservation.
	Abort(ctx context.Context, req server.AbortRequest) (server.AbortResponse, error)
	// Stats fetches the group primary's stats.
	Stats(ctx context.Context) (server.StatsResponse, error)
	// MigrateFreeze reserves a migration freeze window on the group's
	// primary: writes to the class stall, reads keep serving.
	MigrateFreeze(ctx context.Context, req server.MigrateFreezeRequest) (server.MigrateFreezeResponse, error)
	// MigrateRelease thaws a freeze window (abort path).
	MigrateRelease(ctx context.Context, req server.MigrateReleaseRequest) (server.MigrateReleaseResponse, error)
	// MigrateComplete installs the post-flip stale-write fence on the
	// migration's source owner and releases the freeze.
	MigrateComplete(ctx context.Context, req server.MigrateCompleteRequest) (server.MigrateCompleteResponse, error)
	// MigrateSlice fetches one window of a class's certified journal
	// slice from the group's primary.
	MigrateSlice(ctx context.Context, class string, after, limit int) (server.MigrateSliceResponse, error)
}

// StatusError is the structured-error surface the coordinator needs
// from a Conn's failures: the HTTP status and the taxonomy detail, so
// refusals (409 conflict certificates above all) pass through the
// router verbatim. client.APIError satisfies it.
type StatusError interface {
	error
	// HTTPStatus returns the response's status code.
	HTTPStatus() int
	// Detail returns the structured error detail.
	Detail() server.ErrorDetail
}

// Config configures a Coordinator.
type Config struct {
	// Dir is the coordinator's durable directory: the fenced intent log
	// lives at Dir/intents.luf. Required.
	Dir string
	// Map is the static shard map. Required, validated.
	Map Map
	// Advertise is the coordinator's own base URL, handed to
	// participants so a lapsed reservation can re-probe intent status.
	Advertise string
	// Dial opens the connection to one replica group. Required.
	Dial func(g Group) Conn
	// PrepareTTL bounds each participant reservation (and therefore the
	// prepare round trip); <= 0 means 1s.
	PrepareTTL time.Duration
	// RedriveInterval is the redrive loop's base period (committed
	// intents and flipped migrations); <= 0 means 100ms.
	RedriveInterval time.Duration
	// RedriveMax caps the redrive loop's jittered exponential backoff
	// after failed rounds; <= 0 means 2s.
	RedriveMax time.Duration
	// RebalanceInterval enables the automatic rebalancer at the given
	// period; <= 0 disables it (migrations still run on demand).
	RebalanceInterval time.Duration
	// RebalanceMaxConcurrent caps concurrently running migrations;
	// <= 0 means 1.
	RebalanceMaxConcurrent int
	// RebalanceMinBridges is the cross-shard bridge-edge count between a
	// group pair below which the rebalancer leaves it alone (hysteresis);
	// <= 0 means 2.
	RebalanceMinBridges int
	// MigrateChunk is the journal-slice window size the copy stream
	// pulls per request; <= 0 means 256.
	MigrateChunk int
	// ScrubInterval enables the coordinator's background integrity
	// scrubber over its fenced intent and migration logs; <= 0 disables
	// the loop (a corrupt log tail is then found only at redrive time).
	ScrubInterval time.Duration
	// StepHook, when non-nil, is called at each 2PC stage boundary
	// ("intent", "prepared", "committed", "applied") with the intent id
	// — the crash-point lever chaos tests and the recovery bench pull
	// (typically calling Kill inside the hook).
	StepHook func(stage string, intent uint64)
	// Inject threads deterministic I/O faults through the intent log.
	Inject *fault.Injector
}

// bridge is one committed-and-applied cross-shard edge, usable for
// routing: node N (owned by group A) relates to M (owned by B) with
// Label, on both sides.
type bridge struct {
	intent uint64
	a, b   int
	n, m   string
	label  int64
}

// groupLoad is the per-group load counter block in coordinator stats.
type groupLoad struct {
	// Unions counts 2PC rounds this group participated in.
	Unions int64 `json:"unions"`
	// Asserts counts same-shard asserts routed to the group.
	Asserts int64 `json:"asserts"`
	// Reads counts relation/explain segments routed to the group.
	Reads int64 `json:"reads"`
}

// intentRec and migRec are the coordinator's two decision-record
// kinds: cross-shard union intents and class-ownership migrations.
type (
	intentRec = wal.IntentRecord[string, int64]
	migRec    = wal.MigrationRecord[string]
)

// opKey names one decided operation in the redrive bookkeeping. Intent
// and migration ids come from separate logs, so the kind is part of
// the key.
type opKey struct {
	migration bool
	id        uint64
}

// redrive is one decided operation the redrive loop retries until it
// is done: a committed intent's bridge applies (intent) or a flipped
// migration's source fence (mig), as key says.
type redrive struct {
	key    opKey
	since  time.Time // when the operation entered the queue
	intent intentRec
	mig    migRec
}

// Coordinator drives crash-safe two-phase cross-shard unions and routes
// cross-shard queries over the committed bridge edges. It is safe for
// concurrent use.
type Coordinator struct {
	cfg   Config
	m     Map
	vm    *VersionedMap
	conns []Conn
	g     group.Delta
	log   *wal.DecisionLog[intentRec, wal.IntentState]
	mig   *wal.DecisionLog[migRec, wal.MigrationState]

	mu          sync.Mutex
	bridges     []bridge
	redrives    map[opKey]redrive    // decided, not yet applied everywhere
	poisoned    map[opKey]string     // impossible-by-protocol apply conflicts and groups gone from the map: never retried, never silent
	migActive   map[uint64]bool      // migrations with a live driver
	migPending  int                  // admitted migrations awaiting their durable id
	migClasses  map[string]uint64    // class rep → admitted/running migration id (0 while pending)
	migAbortReq map[uint64]bool      // operator abort requests, honored at chunk boundaries
	migStart    map[uint64]time.Time // migration start times (age in stats)
	recentMoves map[string]time.Time // rebalancer hysteresis: class rep → last move attempt
	load        []groupLoad
	unions      int64 // cross-shard unions decided commit
	aborted     int64 // cross-shard unions decided abort
	reads       int64 // cross-shard queries routed

	scrubber *scrub.Scrubber[string, int64]

	killed  chan struct{}
	once    sync.Once
	redrive sync.WaitGroup
}

// New opens the coordinator: validates the map, opens the fenced intent
// log (bumping the epoch durably), replays recovery — pending intents
// are presumed aborted, committed ones queued for redrive, done ones
// re-registered as bridges — and starts the redrive loop.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	if cfg.Dir == "" {
		return nil, fault.Invalidf("coordinator requires a durable directory")
	}
	if cfg.Dial == nil {
		return nil, fault.Invalidf("coordinator requires a Dial function")
	}
	if cfg.PrepareTTL <= 0 {
		cfg.PrepareTTL = time.Second
	}
	if cfg.RedriveInterval <= 0 {
		cfg.RedriveInterval = 100 * time.Millisecond
	}
	if cfg.RedriveMax <= 0 {
		cfg.RedriveMax = 2 * time.Second
	}
	if cfg.RedriveMax < cfg.RedriveInterval {
		cfg.RedriveMax = cfg.RedriveInterval
	}
	if cfg.RebalanceMaxConcurrent <= 0 {
		cfg.RebalanceMaxConcurrent = 1
	}
	if cfg.RebalanceMinBridges <= 0 {
		cfg.RebalanceMinBridges = 2
	}
	if cfg.MigrateChunk <= 0 {
		cfg.MigrateChunk = 256
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fault.IOf("create coordinator directory: %v", err)
	}
	il, err := wal.OpenIntents(cfg.Dir+"/intents.luf", wal.DeltaCodec{}, cfg.Inject)
	if err != nil {
		return nil, err
	}
	ml, err := wal.OpenMigrations(cfg.Dir+"/migrations.luf", wal.DeltaCodec{}, cfg.Inject)
	if err != nil {
		il.Close()
		return nil, err
	}
	c := &Coordinator{
		cfg:         cfg,
		m:           cfg.Map,
		vm:          NewVersionedMap(cfg.Map),
		log:         il,
		mig:         ml,
		redrives:    map[opKey]redrive{},
		poisoned:    map[opKey]string{},
		migActive:   map[uint64]bool{},
		migClasses:  map[string]uint64{},
		migAbortReq: map[uint64]bool{},
		migStart:    map[uint64]time.Time{},
		recentMoves: map[string]time.Time{},
		load:        make([]groupLoad, len(cfg.Map.Groups)),
		killed:      make(chan struct{}),
	}
	for _, g := range cfg.Map.Groups {
		c.conns = append(c.conns, cfg.Dial(g))
	}
	if err := c.recover(); err != nil {
		il.Close()
		ml.Close()
		return nil, err
	}
	// The coordinator's scrubber sweeps only its fenced auxiliary logs:
	// a corrupt intent or migration tail must surface as a detected
	// integrity event, not at redrive time when the log is needed most.
	c.scrubber = scrub.New(scrub.Config[string, int64]{
		G:        group.Delta{},
		Codec:    wal.DeltaCodec{},
		AuxLogs:  []string{cfg.Dir + "/intents.luf", cfg.Dir + "/migrations.luf"},
		Interval: cfg.ScrubInterval,
	})
	c.scrubber.Start()
	c.redrive.Add(1)
	go c.redriveLoop()
	if cfg.RebalanceInterval > 0 {
		c.redrive.Add(1)
		go c.rebalanceLoop()
	}
	return c, nil
}

// recover replays the folded intent log — presumed abort for pending,
// redrive queue for committed, bridge registry for done — and the
// folded migration log: pre-flip migrations are presumed aborted (the
// source's freeze TTL-lapses on its own), flipped ones re-apply their
// ownership overrides and queue the completion redrive, done ones
// re-apply their overrides only.
func (c *Coordinator) recover() error {
	for _, r := range c.log.Records() {
		switch r.State {
		case wal.IntentPending:
			// Presumed abort: the commit record is what makes a commit a
			// commit, and it is not there.
			if err := c.abortIntent(r); err != nil {
				return err
			}
		case wal.IntentCommitted:
			c.enqueue(redrive{key: opKey{id: r.ID}, intent: r})
		case wal.IntentDone:
			c.registerBridge(r)
		}
	}
	for _, r := range c.mig.Records() {
		switch r.State {
		case wal.MigrationPlanned, wal.MigrationFrozen, wal.MigrationCopying, wal.MigrationVerifying:
			// Pre-flip crash: the Flipped record is what moves ownership,
			// and it is not there. Presume abort and thaw the source.
			if err := c.abortMigration(r.ID, r.From); err != nil {
				return err
			}
		case wal.MigrationFlipped:
			if !c.applyOverride(r) {
				continue
			}
			c.enqueue(redrive{key: opKey{migration: true, id: r.ID}, mig: r})
			c.migStart[r.ID] = time.Now()
		case wal.MigrationDone:
			c.applyOverride(r)
		}
	}
	return nil
}

// applyOverride routes a flipped migration's nodes to its destination
// group in the versioned map; a destination no longer in the shard map
// poisons the migration (loud in stats) instead of guessing.
func (c *Coordinator) applyOverride(r migRec) bool {
	ti := c.m.Index(r.To)
	if ti < 0 {
		c.poisoned[opKey{migration: true, id: r.ID}] = fmt.Sprintf("migration destination group %q is not in the shard map", r.To)
		return false
	}
	c.vm.Override(r.Nodes, ti, r.MapEpoch)
	return true
}

// registerBridge adds a done intent's edge to the routing registry.
func (c *Coordinator) registerBridge(r intentRec) {
	a, b := c.m.Index(r.GroupA), c.m.Index(r.GroupB)
	if a < 0 || b < 0 {
		// The shard map changed under a durable intent; refuse to route
		// over it rather than guess.
		c.poisoned[opKey{id: r.ID}] = fmt.Sprintf("bridge groups %q/%q are not in the shard map", r.GroupA, r.GroupB)
		return
	}
	c.bridges = append(c.bridges, bridge{intent: r.ID, a: a, b: b, n: r.N, m: r.M, label: r.Label})
}

// abortIntent durably aborts an undecided intent and releases both
// groups' prepare windows, best effort: participants also self-release
// by probing, so a miss here only costs them a probe round.
func (c *Coordinator) abortIntent(r intentRec) error {
	if err := c.log.Transition(intentRec{ID: r.ID, State: wal.IntentAborted}); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, name := range []string{r.GroupA, r.GroupB} {
		if i := c.m.Index(name); i >= 0 {
			_, _ = c.conns[i].Abort(ctx, server.AbortRequest{Intent: r.ID, Epoch: r.Epoch})
		}
	}
	return nil
}

// Kill hard-stops the coordinator without flushing: the in-process
// stand-in for a coordinator crash. In-flight unions abort at their
// next stage boundary; handlers refuse. Restart by reopening the same
// directory with New — recovery takes it from the intent log.
func (c *Coordinator) Kill() {
	c.once.Do(func() { close(c.killed) })
	c.redrive.Wait()
	c.scrubber.Stop()
}

// Close stops the coordinator and closes both durable logs.
func (c *Coordinator) Close() error {
	c.Kill()
	merr := c.mig.Close()
	if err := c.log.Close(); err != nil {
		return err
	}
	return merr
}

// owner resolves the owning group index for a node through the
// versioned map: migration overrides first, the FNV hash otherwise.
func (c *Coordinator) owner(n string) int { return c.vm.Owner(n) }

// MapView snapshots the versioned shard map (the /v1/shard/map body).
func (c *Coordinator) MapView() MapView { return c.vm.View() }

// dead reports whether Kill has been called.
func (c *Coordinator) dead() bool {
	select {
	case <-c.killed:
		return true
	default:
		return false
	}
}

// step runs the crash-point hook and refuses to continue once killed —
// the stage boundaries at which a chaos test's Kill takes effect.
func (c *Coordinator) step(stage string, intent uint64) error {
	if c.cfg.StepHook != nil {
		c.cfg.StepHook(stage, intent)
	}
	if c.dead() {
		return fault.Unavailablef("coordinator killed at stage %q of intent %d", stage, intent)
	}
	return nil
}

// Epoch returns the coordinator's fencing epoch.
func (c *Coordinator) Epoch() uint64 { return c.log.Epoch() }

// classify shapes a Conn failure for the coordinator's caller:
// structured refusals (participant HTTP errors, taxonomy-classified
// failures) pass through labeled with the group name; raw transport
// errors — the group is unreachable or timed out — become a 503-class
// unavailable refusal so a down shard group degrades only its own key
// range with a retryable error instead of an opaque 500 or a hang.
func (c *Coordinator) classify(gi int, err error) error {
	if err == nil {
		return nil
	}
	name := c.m.Groups[gi].Name
	var se StatusError
	if errors.As(err, &se) || fault.StopLabel(err) != "other" {
		return fmt.Errorf("shard group %q: %w", name, err)
	}
	return fault.Unavailablef("shard group %q unreachable: %v", name, err)
}

// bridgeReason builds the tagged certificate reason of a bridge edge.
func bridgeReason(id, epoch uint64, userReason string) string {
	tag := server.FormatIntentTag(id, epoch)
	if userReason == "" {
		return tag
	}
	return tag + " " + userReason
}

// UnionResult is a completed Union's outcome.
type UnionResult struct {
	// OK reports the union is applied and durable on every owner shard.
	OK bool `json:"ok"`
	// SameShard reports the fast path: both nodes share an owner and the
	// assert was routed directly, no 2PC round.
	SameShard bool `json:"same_shard,omitempty"`
	// Intent is the 2PC intent sequence number (0 on the fast path).
	Intent uint64 `json:"intent,omitempty"`
	// Groups names the owner shard groups involved.
	Groups []string `json:"groups,omitempty"`
}

// Union asserts m - n = label across the shard map: same-owner pairs
// route directly to the owner group, cross-shard pairs run the full
// two-phase round. The returned error is structured: 409 conflicts
// (with certificate) from either owner, 503 with Retry-After when an
// owner group is down (only that key range degrades), and a retryable
// "in doubt" refusal when the decision committed but a crash or
// partition delayed the bridge application — the redrive loop finishes
// it, and queries refuse rather than expose the half-applied state.
func (c *Coordinator) Union(ctx context.Context, n, m string, label int64, reason string) (UnionResult, error) {
	if c.dead() {
		return UnionResult{}, fault.Unavailablef("coordinator is down")
	}
	if n == "" || m == "" {
		return UnionResult{}, fault.Invalidf("both nodes are required")
	}
	ga, gb := c.owner(n), c.owner(m)
	if ga == gb {
		c.mu.Lock()
		c.load[ga].Asserts++
		c.mu.Unlock()
		if _, err := c.conns[ga].Assert(ctx, n, m, label, reason); err != nil {
			return UnionResult{}, err
		}
		return UnionResult{OK: true, SameShard: true, Groups: []string{c.m.Groups[ga].Name}}, nil
	}

	c.mu.Lock()
	c.load[ga].Unions++
	c.load[gb].Unions++
	c.mu.Unlock()
	groups := []string{c.m.Groups[ga].Name, c.m.Groups[gb].Name}

	// Phase 0: the durable intent precedes every message (presumed
	// abort covers any crash from here on).
	id, err := c.log.Begin(intentRec{GroupA: groups[0], GroupB: groups[1], N: n, M: m, Label: label, Reason: reason})
	if err != nil {
		return UnionResult{}, err
	}
	if err := c.step("intent", id); err != nil {
		return UnionResult{}, err
	}

	// Phase 1: both owners vote. A no vote or an unreachable owner
	// aborts the intent durably before the refusal is returned.
	epoch := c.log.Epoch()
	prep := server.PrepareRequest{
		Intent: id, Epoch: epoch, Coordinator: c.cfg.Advertise,
		N: n, M: m, Label: label, TTLMillis: c.cfg.PrepareTTL.Milliseconds(),
	}
	pctx, cancel := context.WithTimeout(ctx, c.cfg.PrepareTTL)
	type vote struct {
		gi  int
		err error
	}
	votes := make(chan vote, 2)
	for _, gi := range []int{ga, gb} {
		go func(gi int) {
			_, err := c.conns[gi].Prepare(pctx, prep)
			votes <- vote{gi: gi, err: err}
		}(gi)
	}
	var voteErr error
	for i := 0; i < 2; i++ {
		v := <-votes
		if v.err == nil {
			continue
		}
		err := v.err
		if errors.Is(err, fault.ErrCanceled) || errors.Is(err, fault.ErrDeadlineExceeded) ||
			errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			// The prepare window (pctx) expired before the group answered:
			// from the union's point of view that group is unavailable, and
			// the refusal must say so — retryable, scoped to its key range.
			err = fault.Unavailablef("shard group %q did not answer its prepare vote within %v: %v",
				c.m.Groups[v.gi].Name, c.cfg.PrepareTTL, v.err)
		}
		classified := c.classify(v.gi, err)
		// A definite no vote (409 conflict, with its certificate) beats
		// an unreachable-group refusal as the reported cause.
		if voteErr == nil || errors.Is(classified, fault.ErrConflict) || statusOf(classified) == http.StatusConflict {
			voteErr = classified
		}
	}
	cancel()
	if voteErr != nil {
		rec, _ := c.log.Get(id)
		if derr := c.abortIntent(rec); derr != nil {
			return UnionResult{}, derr
		}
		c.mu.Lock()
		c.aborted++
		c.mu.Unlock()
		return UnionResult{Intent: id, Groups: groups}, voteErr
	}
	if err := c.step("prepared", id); err != nil {
		// Killed between the votes and the decision: the intent stays
		// pending on disk and restart presumes abort — exactly the
		// "intent persisted, commit unsent" crash.
		return UnionResult{Intent: id, Groups: groups}, err
	}

	// Phase 2: the fsynced commit record is the decision.
	if err := c.log.Transition(intentRec{ID: id, State: wal.IntentCommitted}); err != nil {
		return UnionResult{Intent: id, Groups: groups}, err
	}
	c.mu.Lock()
	c.unions++
	c.mu.Unlock()
	rec, _ := c.log.Get(id)
	c.enqueue(redrive{key: opKey{id: id}, intent: rec})
	if err := c.step("committed", id); err != nil {
		return UnionResult{Intent: id, Groups: groups}, fault.Unavailablef(
			"cross-shard union %d committed but its bridge edges are still being applied; retry the query shortly", id)
	}

	// Apply: idempotent tagged asserts on both sides, then the done
	// record. Failure leaves the intent in doubt for the redrive loop.
	if err := c.applyBridge(ctx, rec); err != nil {
		return UnionResult{Intent: id, Groups: groups}, fault.Unavailablef(
			"cross-shard union %d committed but a bridge apply failed (%v); the redrive loop completes it — retry shortly", id, err)
	}
	_ = c.step("applied", id)
	return UnionResult{OK: true, Intent: id, Groups: groups}, nil
}

// applyBridge asserts the committed intent's bridge edge on the owner
// groups (idempotent), marks the intent done and registers the bridge.
// Each endpoint's target is resolved through the live versioned map at
// apply time, not the owners recorded at intent time: a migration that
// flips a class between the commit and this apply would otherwise
// fence the original owner forever (403 moved-node refusal), and a
// committed union must never be lost to that race. A conflict refusal
// poisons the intent: by protocol it cannot happen (the prepare window
// reserves both sides), so it is surfaced as a loud invariant in stats
// rather than retried forever.
func (c *Coordinator) applyBridge(ctx context.Context, r intentRec) error {
	tag := bridgeReason(r.ID, r.Epoch, r.Reason)
	ga, err := c.assertBridgeEdge(ctx, c.owner(r.N), r, tag)
	if err != nil {
		return err
	}
	gb := ga
	if bi := c.owner(r.M); bi != ga {
		if gb, err = c.assertBridgeEdge(ctx, bi, r, tag); err != nil {
			return err
		}
	}
	if err := c.log.Transition(intentRec{ID: r.ID, State: wal.IntentDone}); err != nil {
		return err
	}
	// The union's own apply and a redrive round can race on one intent;
	// only the call that retires its queue entry registers the bridge,
	// so the registry (and the rebalancer's bridge counts) hold it once.
	c.mu.Lock()
	_, queued := c.redrives[opKey{id: r.ID}]
	delete(c.redrives, opKey{id: r.ID})
	if queued && ga != gb {
		c.bridges = append(c.bridges, bridge{intent: r.ID, a: ga, b: gb, n: r.N, m: r.M, label: r.Label})
	}
	c.mu.Unlock()
	return nil
}

// assertBridgeEdge asserts one committed bridge edge on group gi,
// following migrated-class refusals: a 403 moved-node fence names the
// class's new owner, so the apply re-resolves (recording the override
// so routing follows too) and lands there instead of retrying against
// the fence forever. Returns the group index that adopted the edge.
func (c *Coordinator) assertBridgeEdge(ctx context.Context, gi int, r intentRec, tag string) (int, error) {
	for hops := 0; ; hops++ {
		_, err := c.conns[gi].Assert(ctx, r.N, r.M, r.Label, tag)
		if err == nil {
			return gi, nil
		}
		name := c.m.Groups[gi].Name
		var se StatusError
		if errors.As(err, &se) {
			switch se.HTTPStatus() {
			case http.StatusConflict:
				c.mu.Lock()
				c.poisoned[opKey{id: r.ID}] = fmt.Sprintf("bridge apply on %q refused as conflict: %v", name, err)
				c.mu.Unlock()
				return gi, fault.Invariantf("intent %d bridge apply conflicts on %q despite its prepare vote: %v", r.ID, name, err)
			case http.StatusForbidden:
				d := se.Detail()
				if next := c.m.Index(d.NewOwner); d.NewOwner != "" && next >= 0 && next != gi && hops < len(c.m.Groups) {
					if d.MovedNode != "" {
						c.vm.Override([]string{d.MovedNode}, next, d.MapEpoch)
					}
					gi = next
					continue
				}
			}
		}
		return gi, c.classify(gi, err)
	}
}

// redriveLoop re-applies committed-but-unapplied intents and redrives
// flipped-but-uncompleted migrations until they are done: after a
// coordinator restart or a mid-union partition this is what heals the
// half-applied window. Failed rounds back off exponentially with full
// jitter, bounded by RedriveMax, so a fleet of coordinators hammering
// a down group does not synchronize its retries; a clean round resets
// the period to RedriveInterval.
func (c *Coordinator) redriveLoop() {
	defer c.redrive.Done()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	base, max := c.cfg.RedriveInterval, c.cfg.RedriveMax
	wait, ceil := base, base
	for {
		select {
		case <-c.killed:
			return
		case <-time.After(wait):
		}
		c.mu.Lock()
		due := make([]redrive, 0, len(c.redrives))
		for k, r := range c.redrives {
			if _, bad := c.poisoned[k]; !bad {
				due = append(due, r)
			}
		}
		c.mu.Unlock()
		failed := false
		for _, r := range due {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			var err error
			if r.key.migration {
				err = c.completeMigration(ctx, r.mig)
			} else {
				err = c.applyBridge(ctx, r.intent)
			}
			if err != nil {
				failed = true
			}
			cancel()
			if c.dead() {
				return
			}
		}
		if !failed {
			wait, ceil = base, base
			continue
		}
		if ceil *= 2; ceil > max {
			ceil = max
		}
		// Full jitter inside [base, ceil]: decorrelated retries without
		// ever polling faster than the base period.
		wait = base
		if span := ceil - base; span > 0 {
			wait += time.Duration(rng.Int63n(int64(span) + 1))
		}
	}
}

// enqueue parks a decided operation for the redrive loop; one already
// queued keeps the time it entered.
func (c *Coordinator) enqueue(r redrive) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.redrives[r.key]; !ok {
		r.since = time.Now()
		c.redrives[r.key] = r
	}
}

// InDoubt returns the ids of committed intents whose bridge edges are
// not yet applied on both sides (tests and stats).
func (c *Coordinator) InDoubt() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []uint64
	for k := range c.redrives {
		if !k.migration {
			out = append(out, k.id)
		}
	}
	return out
}

// settled refuses queries that would have to route over a group party
// to an in-doubt (committed, not fully applied) or poisoned intent:
// during that window the group pair is between two consistent states,
// and a wrong "not related" would be a lost acked union.
func (c *Coordinator) settled(gi int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := c.m.Groups[gi].Name
	for k, r := range c.redrives {
		if !k.migration && (r.intent.GroupA == name || r.intent.GroupB == name) {
			return fault.Unavailablef("cross-shard union intent %d is being re-driven on group %q; retry shortly", k.id, name)
		}
	}
	for k, why := range c.poisoned {
		if k.migration {
			continue
		}
		if r, ok := c.log.Get(k.id); ok && (r.GroupA == name || r.GroupB == name) {
			return fault.Invariantf("intent %d is poisoned on group %q: %s — operator action required", k.id, name, why)
		}
	}
	return nil
}

// pathSeg is one per-shard leg of a routed cross-shard answer.
type pathSeg struct {
	g        int
	from, to string
	label    int64
}

// route finds a path from n to m across the bridge registry: a BFS over
// (group, entry-node) states, probing each group's own union-find for
// the in-group legs. It returns the per-shard segments and the composed
// label. A group that is down surfaces its structured error; a group
// mid-redrive refuses retryably.
func (c *Coordinator) route(ctx context.Context, n, m string) ([]pathSeg, int64, bool, error) {
	ga, gb := c.owner(n), c.owner(m)
	type relKey struct {
		g    int
		a, b string
	}
	type relAns struct {
		label   int64
		related bool
	}
	memo := map[relKey]relAns{}
	rel := func(g int, a, b string) (int64, bool, error) {
		if a == b {
			return 0, true, nil
		}
		k := relKey{g: g, a: a, b: b}
		if ans, ok := memo[k]; ok {
			return ans.label, ans.related, nil
		}
		c.mu.Lock()
		c.load[g].Reads++
		c.mu.Unlock()
		l, ok, err := c.conns[g].Relation(ctx, a, b)
		if err != nil {
			return 0, false, c.classify(g, err)
		}
		memo[k] = relAns{label: l, related: ok}
		return l, ok, nil
	}

	for _, gi := range []int{ga, gb} {
		if err := c.settled(gi); err != nil {
			return nil, 0, false, err
		}
	}

	c.mu.Lock()
	edges := make([]bridge, len(c.bridges))
	copy(edges, c.bridges)
	c.mu.Unlock()

	type state struct {
		g     int
		entry string
		acc   int64
		segs  []pathSeg
	}
	type visit struct {
		g     int
		entry string
	}
	seen := map[visit]bool{{g: ga, entry: n}: true}
	queue := []state{{g: ga, entry: n}}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		if err := c.settled(s.g); err != nil {
			return nil, 0, false, err
		}
		if s.g == gb {
			l, ok, err := rel(s.g, s.entry, m)
			if err != nil {
				return nil, 0, false, err
			}
			if ok {
				segs := s.segs
				if s.entry != m {
					segs = append(segs, pathSeg{g: s.g, from: s.entry, to: m, label: l})
				}
				return segs, c.g.Compose(s.acc, l), true, nil
			}
		}
		for _, b := range edges {
			var other int
			switch s.g {
			case b.a:
				other = b.b
			case b.b:
				other = b.a
			default:
				continue
			}
			// Both bridge endpoints exist on both sides of the edge; hop
			// through the A-side endpoint as the canonical shared node.
			hop := b.n
			v := visit{g: other, entry: hop}
			if seen[v] {
				continue
			}
			l, ok, err := rel(s.g, s.entry, hop)
			if err != nil {
				return nil, 0, false, err
			}
			if !ok {
				continue
			}
			seen[v] = true
			segs := make([]pathSeg, len(s.segs), len(s.segs)+1)
			copy(segs, s.segs)
			if s.entry != hop {
				segs = append(segs, pathSeg{g: s.g, from: s.entry, to: hop, label: l})
			}
			queue = append(queue, state{g: other, entry: hop, acc: c.g.Compose(s.acc, l), segs: segs})
		}
	}
	return nil, 0, false, nil
}

// Relation answers n ~ m across the shard map by walking the bridge
// registry. Same-owner pairs are NOT special-cased to their group
// alone: two nodes of one shard can be related only through a path
// that leaves the shard and comes back, so the router always runs (its
// first probe is the direct in-group check, memoized). "Not related"
// is only ever answered from a settled registry — queries touching a
// group with an in-doubt union refuse retryably instead.
func (c *Coordinator) Relation(ctx context.Context, n, m string) (int64, bool, error) {
	if c.dead() {
		return 0, false, fault.Unavailablef("coordinator is down")
	}
	c.mu.Lock()
	c.reads++
	c.mu.Unlock()
	_, label, ok, err := c.route(ctx, n, m)
	return label, ok, err
}

// Explain returns one concatenated certificate for a cross-shard
// relation: per-shard chains fetched from each group along the routed
// path, stitched end to end, and verified by the unmodified independent
// checker before it is returned — the coordinator never serves a chain
// cert.Check rejects.
func (c *Coordinator) Explain(ctx context.Context, n, m string) (cert.Certificate[string, int64], error) {
	var out cert.Certificate[string, int64]
	if c.dead() {
		return out, fault.Unavailablef("coordinator is down")
	}
	c.mu.Lock()
	c.reads++
	c.mu.Unlock()
	segs, total, ok, err := c.route(ctx, n, m)
	if err != nil {
		return out, err
	}
	if !ok {
		return out, fault.Invalidf("no derivation between %q and %q across the shard map", n, m)
	}
	out = cert.Certificate[string, int64]{Kind: cert.Relation, X: n, Y: m, Label: total}
	for _, seg := range segs {
		c.mu.Lock()
		c.load[seg.g].Reads++
		c.mu.Unlock()
		sc, err := c.conns[seg.g].Explain(ctx, seg.from, seg.to)
		if err != nil {
			return cert.Certificate[string, int64]{}, c.classify(seg.g, err)
		}
		out.Steps = append(out.Steps, sc.Steps...)
	}
	// The concatenated chain must satisfy the same independent checker
	// a single-shard answer does, end to end.
	if err := cert.Check(out, c.g); err != nil {
		return cert.Certificate[string, int64]{}, fault.Invariantf(
			"refusing to emit a stitched certificate the checker rejects: %v", err)
	}
	return out, nil
}

// IntentStatus reports the folded state of one intent; unknown ids are
// presumed aborted (the log is never trimmed, so unknown means never
// durably begun).
func (c *Coordinator) IntentStatus(id uint64) server.IntentStatusResponse {
	r, ok := c.log.Get(id)
	if !ok {
		return server.IntentStatusResponse{Intent: id, State: wal.IntentAborted.String(), Epoch: c.log.Epoch()}
	}
	return server.IntentStatusResponse{Intent: id, State: r.State.String(), Epoch: c.log.Epoch()}
}

// GroupStats is one group's row in the coordinator stats: the
// coordinator-side load counters plus (when the group is reachable) the
// primary's own headline numbers — the observability a later rebalancer
// needs to pick a split.
type GroupStats struct {
	// Name is the group's shard-map name.
	Name string `json:"name"`
	// Load is the coordinator-side per-group load counter block.
	Load groupLoad `json:"load"`
	// Assertions is the group primary's assertion count (when reachable).
	Assertions int `json:"assertions,omitempty"`
	// DurableSeq is the group primary's durable watermark (reachable).
	DurableSeq uint64 `json:"durable_seq,omitempty"`
	// Unavailable reports the group primary did not answer its stats
	// probe — its key range is degraded.
	Unavailable bool `json:"unavailable,omitempty"`
}

// Stats is the coordinator's /v1/stats body.
type Stats struct {
	// Epoch is the coordinator's fencing epoch.
	Epoch uint64 `json:"epoch"`
	// Unions counts committed cross-shard unions this process decided.
	Unions int64 `json:"unions"`
	// Aborted counts aborted cross-shard unions (vote-no or unreachable).
	Aborted int64 `json:"aborted"`
	// CrossReads counts cross-shard queries routed.
	CrossReads int64 `json:"cross_reads"`
	// Bridges is the number of registered (fully applied) bridge edges.
	Bridges int `json:"bridges"`
	// InDoubt is the number of committed intents still being re-driven.
	InDoubt int `json:"in_doubt"`
	// Poisoned is the number of intents stuck on an apply conflict plus
	// migrations referencing groups no longer in the shard map — always
	// 0 unless an invariant broke; never silent.
	Poisoned int `json:"poisoned"`
	// MapEpoch is the versioned shard map's epoch (bumped per flip).
	MapEpoch uint64 `json:"map_epoch"`
	// Overrides is the ownership-override table's size.
	Overrides int `json:"overrides"`
	// Migrated counts migrations durably completed (log-wide).
	Migrated int `json:"migrated"`
	// MigrationsAborted counts migrations durably aborted (log-wide).
	MigrationsAborted int `json:"migrations_aborted"`
	// OldestInDoubtAgeMS is the age of the oldest entry still in a
	// redrive queue — committed intents awaiting their bridge applies
	// and flipped migrations awaiting completion. 0 when both queues
	// are empty; a growing value is the page-an-operator signal.
	OldestInDoubtAgeMS int64 `json:"oldest_in_doubt_age_ms"`
	// Migrations lists the non-terminal migrations with their ages.
	Migrations []MigrationInfo `json:"migrations,omitempty"`
	// Scrub is the coordinator's aux-log integrity scrubber counters.
	Scrub scrub.Stats `json:"scrub"`
	// PerShard is the per-group load table.
	PerShard []GroupStats `json:"per_shard"`
}

// MigrationInfo is one non-terminal migration's row in coordinator
// stats and the rebalance status body.
type MigrationInfo struct {
	ID       uint64 `json:"id"`
	Class    string `json:"class"`
	From     string `json:"from"`
	To       string `json:"to"`
	State    string `json:"state"`
	Copied   uint64 `json:"copied,omitempty"`
	MapEpoch uint64 `json:"map_epoch,omitempty"`
	// AgeMS is the time since this process began or recovered the
	// migration.
	AgeMS int64 `json:"age_ms"`
}

// StatsNow snapshots coordinator stats, probing each group's primary
// with the given per-probe timeout (0 skips the probes).
func (c *Coordinator) StatsNow(ctx context.Context, probeTimeout time.Duration) Stats {
	now := time.Now()
	c.mu.Lock()
	st := Stats{
		Epoch:      c.log.Epoch(),
		Unions:     c.unions,
		Aborted:    c.aborted,
		CrossReads: c.reads,
		Bridges:    len(c.bridges),
		Poisoned:   len(c.poisoned),
		MapEpoch:   c.vm.Epoch(),
		Overrides:  c.vm.Len(),
		Scrub:      c.scrubber.Stats(),
	}
	var oldest time.Time
	for k, r := range c.redrives {
		if !k.migration {
			st.InDoubt++
		}
		if oldest.IsZero() || r.since.Before(oldest) {
			oldest = r.since
		}
	}
	if !oldest.IsZero() {
		st.OldestInDoubtAgeMS = now.Sub(oldest).Milliseconds()
	}
	loads := make([]groupLoad, len(c.load))
	copy(loads, c.load)
	c.mu.Unlock()
	st.Migrations, st.Migrated, st.MigrationsAborted = c.migrationRows(now)
	for i, g := range c.m.Groups {
		row := GroupStats{Name: g.Name, Load: loads[i]}
		if probeTimeout > 0 {
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			if gs, err := c.conns[i].Stats(pctx); err != nil {
				row.Unavailable = true
			} else {
				row.Assertions = gs.Assertions
				row.DurableSeq = gs.DurableSeq
			}
			cancel()
		}
		st.PerShard = append(st.PerShard, row)
	}
	return st
}
