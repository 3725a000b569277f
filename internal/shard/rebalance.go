package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"luf/internal/cert"
	"luf/internal/fault"
	"luf/internal/server"
	"luf/internal/wal"
)

// Certified online shard rebalancing: the coordinator moves one class's
// ownership from its current owner group to another through a durable
// state machine (planned → frozen → copying → verifying → flipped →
// done, with aborted reachable from every pre-flip state), journaled
// through the fenced migration log exactly like 2PC intents. The
// Flipped record is the fsynced decision: a crash before it presumes
// abort (the source's freeze window TTL-lapses on its own), a crash
// after it redrives completion. The destination re-proves each copied
// window of records as one batch assert — trust is re-derived, never
// copied — and the flip is spot-checked against the independent
// certificate checker before it is allowed to happen.

const (
	// rebalanceMaxConcurrent caps concurrently running migrations.
	rebalanceMaxConcurrent = 1
	// rebalanceMinBridges is the cross-shard bridge-edge count between a
	// group pair below which the rebalancer leaves it alone (hysteresis).
	rebalanceMinBridges = 2
)

// RebalancePath is the coordinator's migration-control endpoint:
// GET for status, POST to start a migration by hand.
const RebalancePath = "/v1/rebalance"

// RebalanceAbortPath requests an abort of a running (pre-flip)
// migration — the operator escape hatch.
const RebalanceAbortPath = "/v1/rebalance/abort"

// migVerifySample caps how many member nodes the pre-flip verification
// spot-checks against the source's answers and the certificate checker.
const migVerifySample = 8

// MigrateRequest is the POST /v1/rebalance body.
type MigrateRequest struct {
	// Class is any node of the class to move (the slice is taken from
	// its whole equivalence class on the source owner).
	Class string `json:"class"`
	// To names the destination shard group.
	To string `json:"to"`
	// Reason is threaded into the migration log and copy-stream tags.
	Reason string `json:"reason,omitempty"`
}

// MigrateResult is a completed (or decided) migration's outcome.
type MigrateResult struct {
	// OK reports the migration ran to done: ownership flipped and the
	// source's stale-write fence is installed.
	OK bool `json:"ok"`
	// Migration is the durable migration sequence number.
	Migration uint64 `json:"migration"`
	// Class, From, To identify the move.
	Class string `json:"class"`
	From  string `json:"from"`
	To    string `json:"to"`
	// Nodes is the moved class's member count.
	Nodes int `json:"nodes,omitempty"`
	// Entries is the number of journal entries re-proved on the
	// destination.
	Entries int `json:"entries,omitempty"`
	// MapEpoch is the shard-map epoch the flip established (0 if the
	// migration never flipped).
	MapEpoch uint64 `json:"map_epoch,omitempty"`
}

// Migrate moves the ownership of class's equivalence class to the named
// destination group, end to end: durable intent, freeze window on the
// source, certified journal-slice copy re-proved by the destination one
// batch per window, checker-verified spot checks, fsynced ownership
// flip, fence install on the source. Any failure before the flip
// durably aborts and thaws the source; any failure after the flip
// leaves the migration in the redrive queue — ownership has moved and
// completion is retried until the source acknowledges its fence.
func (c *Coordinator) Migrate(ctx context.Context, class, to, reason string) (MigrateResult, error) {
	var res MigrateResult
	if c.dead() {
		return res, fault.Unavailablef("coordinator is down")
	}
	if class == "" {
		return res, fault.Invalidf("a class representative node is required")
	}
	ti := c.m.Index(to)
	if ti < 0 {
		return res, fault.Invalidf("destination group %q is not in the shard map", to)
	}
	fi := c.owner(class)
	if fi == ti {
		return res, fault.Invalidf("class of %q is already owned by group %q", class, to)
	}
	for _, gi := range []int{fi, ti} {
		if err := c.settled(gi); err != nil {
			return res, err
		}
	}
	res.Class, res.From, res.To = class, c.m.Groups[fi].Name, c.m.Groups[ti].Name

	// Admission: the concurrent-migration cap (running plus admitted
	// slots still awaiting their durable id) and the one-migration-per-
	// class rule are checked and the slot taken under one lock, so two
	// racing starts can neither exceed the cap nor double-migrate one
	// class to different destinations.
	c.mu.Lock()
	if n := len(c.migActive) + c.migPending; n >= rebalanceMaxConcurrent {
		c.mu.Unlock()
		return res, fault.Unavailablef("%d migration(s) already running (cap %d); retry shortly", n, rebalanceMaxConcurrent)
	}
	if id, busy := c.migClasses[class]; busy {
		c.mu.Unlock()
		return res, fault.Unavailablef("migration %d of class %q is already running; retry later", id, class)
	}
	for k, r := range c.redrives {
		if k.migration && r.mig.Class == class {
			c.mu.Unlock()
			return res, fault.Unavailablef("migration %d of class %q is still completing; retry later", k.id, class)
		}
	}
	c.migPending++
	c.migClasses[class] = 0
	c.mu.Unlock()

	// Durable plan: the migration exists before any message is sent, so
	// presumed abort covers every crash from here on.
	id, err := c.mig.Begin(migRec{Class: class, From: res.From, To: res.To, Reason: reason})
	c.mu.Lock()
	c.migPending--
	if err == nil {
		c.migActive[id] = true
		c.migClasses[class] = id
		c.migStart[id] = time.Now()
	} else {
		delete(c.migClasses, class)
	}
	c.mu.Unlock()
	if err != nil {
		return res, err
	}
	res.Migration = id
	defer func() {
		c.mu.Lock()
		delete(c.migActive, id)
		delete(c.migAbortReq, id)
		// A flipped migration entering the redrive queue keeps covering
		// its class through the redrive-queue scan above.
		delete(c.migClasses, class)
		c.mu.Unlock()
	}()
	if err := c.step("mig-planned", id); err != nil {
		// Killed with the plan durable and nothing sent: recovery
		// presumes abort.
		return res, err
	}
	epoch := c.mig.Epoch()

	// Freeze the class on the source: writes stall (503+Retry-After),
	// reads keep serving, and the source starts its own TTL probe loop
	// so a coordinator crash can never wedge the class.
	ttl := c.cfg.PrepareTTL
	fctx, cancel := context.WithTimeout(ctx, ttl)
	_, err = c.conns[fi].MigrateFreeze(fctx, server.MigrateFreezeRequest{
		Migration: id, Epoch: epoch, Coordinator: c.cfg.Advertise,
		Class: class, TTLMillis: ttl.Milliseconds(),
	})
	cancel()
	if err != nil {
		_ = c.abortMigration(id, res.From)
		return res, c.classify(fi, err)
	}
	if err := c.mig.Transition(migRec{ID: id, State: wal.MigrationFrozen}); err != nil {
		return res, err
	}
	if err := c.step("mig-frozen", id); err != nil {
		// Killed mid-freeze: the source probes MigrateStatusPath, sees
		// the abort recovery decides, and thaws itself.
		return res, err
	}

	// Copy: stream the class's certified journal slice in windows and
	// re-assert each on the destination as one migration-tagged batch,
	// re-proved there like any other write.
	nodes, entries, err := c.copySlice(ctx, id, epoch, class, fi, ti)
	if err != nil {
		_ = c.abortMigration(id, res.From)
		return res, err
	}
	res.Nodes, res.Entries = len(nodes), entries
	if err := c.step("mig-copied", id); err != nil {
		return res, err
	}

	// Verify: before the flip is allowed, spot-check that the
	// destination answers the same relations the source does and that
	// its certificates satisfy the unmodified independent checker.
	if err := c.mig.Transition(migRec{ID: id, State: wal.MigrationVerifying}); err != nil {
		return res, err
	}
	if err := c.verifyCopy(ctx, class, nodes, fi, ti); err != nil {
		_ = c.abortMigration(id, res.From)
		return res, err
	}
	if err := c.step("mig-verified", id); err != nil {
		return res, err
	}

	// Flip: the fsynced decision. The map epoch is allocated and the
	// override installed under the coordinator lock so concurrent flips
	// serialize; from this record on, recovery redrives completion and
	// never aborts.
	c.mu.Lock()
	mapEpoch := c.vm.Epoch() + 1
	if err := c.mig.Transition(migRec{ID: id, State: wal.MigrationFlipped, MapEpoch: mapEpoch, Nodes: nodes}); err != nil {
		c.mu.Unlock()
		return res, err
	}
	c.vm.Override(nodes, ti, mapEpoch)
	c.mu.Unlock()
	res.MapEpoch = mapEpoch
	rec, _ := c.mig.Get(id)
	queued := redrive{key: opKey{migration: true, id: id}, mig: rec}
	if err := c.step("mig-flipped", id); err != nil {
		c.enqueue(queued)
		return res, fault.Unavailablef(
			"migration %d flipped but its completion is still being redriven; the source fence installs shortly", id)
	}

	// Complete: install the durable stale-write fence on the source and
	// thaw the freeze. Failure leaves the migration in the redrive
	// queue — the decision stands.
	if err := c.completeMigration(ctx, rec); err != nil {
		c.enqueue(queued)
		return res, fault.Unavailablef(
			"migration %d flipped but the source fence install failed (%v); the redrive loop completes it", id, err)
	}
	_ = c.step("mig-done", id)
	res.OK = true
	return res, nil
}

// copySlice streams the class's journal slice from the source in
// windows of wal frames (a damaged frame fails its CRC-32C: fault.ErrIO
// before any destination write) and re-asserts each window on the
// destination as one batch, recording durable copy watermarks. A
// record the batch refuses is re-sent alone, so a conflict surfaces as
// the destination's own 409 with its certificate. It returns the
// class's members (representative first, then first-seen journal
// order) and the record count.
func (c *Coordinator) copySlice(ctx context.Context, id, epoch uint64, class string, fi, ti int) ([]string, int, error) {
	tag := server.FormatMigrateTag(id, epoch)
	nodes, seen := []string{class}, map[string]bool{class: true}
	after := 0
	for {
		if c.abortRequested(id) {
			return nil, 0, fault.Unavailablef("migration %d abort requested; ownership never moved", id)
		}
		sl, err := c.conns[fi].MigrateSlice(ctx, class, after, c.cfg.MigrateChunk)
		if err != nil {
			return nil, 0, c.classify(fi, err)
		}
		recs, err := wal.DecodeFrames(sl.Frames, wal.DeltaCodec{})
		if err != nil {
			return nil, 0, fmt.Errorf("migration %d slice window after record %d: %w", id, after, err)
		}
		batch := make([]server.AssertRequest, len(recs))
		for i, r := range recs {
			e := r.Entry
			for _, x := range [2]string{e.N, e.M} {
				if !seen[x] {
					seen[x] = true
					nodes = append(nodes, x)
				}
			}
			batch[i] = server.AssertRequest{N: e.N, M: e.M, Label: e.Label, Reason: tag}
			if e.Reason != "" {
				batch[i].Reason += " " + e.Reason
			}
		}
		out, err := c.conns[ti].BatchAssert(ctx, batch)
		if err != nil {
			return nil, 0, c.classify(ti, err)
		}
		for i, a := range batch {
			if i < len(out.Results) && out.Results[i].OK {
				continue
			}
			if _, err := c.conns[ti].Assert(ctx, a.N, a.M, a.Label, a.Reason); err != nil {
				// A destination conflict means its journal already holds a
				// contradicting relation: the copy cannot be adopted, and
				// the class stays where it is.
				var se StatusError
				if errors.As(err, &se) && se.HTTPStatus() == http.StatusConflict {
					return nil, 0, fmt.Errorf("migration %d: destination %q refused entry %q-%q as a conflict: %w",
						id, c.m.Groups[ti].Name, a.N, a.M, err)
				}
				return nil, 0, c.classify(ti, err)
			}
		}
		after += len(recs)
		if err := c.mig.Transition(migRec{ID: id, State: wal.MigrationCopying, Copied: uint64(after)}); err != nil {
			return nil, 0, err
		}
		if after >= sl.Total || len(recs) == 0 {
			return nodes, after, nil
		}
	}
}

// verifyCopy spot-checks the destination's adopted state against the
// source (still canonical until the flip): sampled member relations
// must agree label for label, and the destination's certificates must
// pass the unmodified independent checker.
func (c *Coordinator) verifyCopy(ctx context.Context, class string, nodes []string, fi, ti int) error {
	sample := nodes
	if len(sample) > migVerifySample+1 {
		sample = sample[:migVerifySample+1]
	}
	for _, x := range sample {
		if x == class {
			continue
		}
		want, ok, err := c.conns[fi].Relation(ctx, class, x)
		if err != nil {
			return c.classify(fi, err)
		}
		if !ok {
			return fault.Invariantf("source group %q does not relate %q and %q despite listing both in the class", c.m.Groups[fi].Name, class, x)
		}
		got, ok, err := c.conns[ti].Relation(ctx, class, x)
		if err != nil {
			return c.classify(ti, err)
		}
		if !ok || got != want {
			return fault.Invariantf("destination group %q re-proved %q-%q as (related=%v, label=%d) but the source holds label %d; refusing to flip",
				c.m.Groups[ti].Name, class, x, ok, got, want)
		}
		crt, err := c.conns[ti].Explain(ctx, class, x)
		if err != nil {
			return c.classify(ti, err)
		}
		if err := cert.Check(crt, c.g); err != nil {
			return fault.Invariantf("destination group %q served a certificate the checker rejects for %q-%q: %v; refusing to flip",
				c.m.Groups[ti].Name, class, x, err)
		}
	}
	return nil
}

// completeMigration installs the post-flip fence on the source owner,
// marks the migration done and clears its redrive entry.
func (c *Coordinator) completeMigration(ctx context.Context, r migRec) error {
	key := opKey{migration: true, id: r.ID}
	fi := c.m.Index(r.From)
	if fi < 0 {
		c.mu.Lock()
		c.poisoned[key] = fmt.Sprintf("migration source group %q is not in the shard map", r.From)
		delete(c.redrives, key)
		c.mu.Unlock()
		return fault.Invariantf("migration %d references source group %q not in the shard map", r.ID, r.From)
	}
	// The flip decision is identified by the migration id and MapEpoch;
	// the request's fencing epoch must be this coordinator's *current*
	// one, not the epoch recorded at Begin — a completion redriven after
	// a restart (epoch bump) would otherwise fence itself forever at a
	// source whose migEpoch newer migration traffic has raised.
	_, err := c.conns[fi].MigrateComplete(ctx, server.MigrateCompleteRequest{
		Migration: r.ID, Epoch: c.mig.Epoch(), MapEpoch: r.MapEpoch, To: r.To, Nodes: r.Nodes,
	})
	if err != nil {
		return c.classify(fi, err)
	}
	if err := c.mig.Transition(migRec{ID: r.ID, State: wal.MigrationDone}); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.redrives, key)
	c.mu.Unlock()
	return nil
}

// abortMigration durably aborts a pre-flip migration and thaws its
// source group, best effort: the source also self-thaws by probing, so
// a missed release only costs it a probe round.
func (c *Coordinator) abortMigration(id uint64, from string) error {
	if err := c.mig.Transition(migRec{ID: id, State: wal.MigrationAborted}); err != nil {
		return err
	}
	if fi := c.m.Index(from); fi >= 0 {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_, _ = c.conns[fi].MigrateRelease(ctx, server.MigrateReleaseRequest{Migration: id, Epoch: c.mig.Epoch()})
	}
	return nil
}

// abortRequested reports whether an operator asked this migration to
// stop; the copy loop honors it at window boundaries.
func (c *Coordinator) abortRequested(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.migAbortReq[id]
}

// AbortResult is the POST /v1/rebalance/abort outcome.
type AbortResult struct {
	Migration uint64 `json:"migration"`
	// State is the migration's folded state after the request.
	State string `json:"state"`
	// Requested reports the abort was queued for a running driver to
	// honor at its next window boundary (rather than applied directly).
	Requested bool `json:"requested,omitempty"`
}

// RequestAbort asks a migration to stop. A running pre-flip migration
// aborts at its next copy-window boundary; an orphaned pre-flip
// migration (no live driver) is aborted durably on the spot and its
// source thawed. A flipped migration is past its decision point and
// cannot abort — completion is redriven instead.
func (c *Coordinator) RequestAbort(id uint64) (AbortResult, error) {
	if c.dead() {
		return AbortResult{}, fault.Unavailablef("coordinator is down")
	}
	r, ok := c.mig.Get(id)
	if !ok {
		return AbortResult{}, fault.Invalidf("migration %d was never durably begun", id)
	}
	c.mu.Lock()
	running := c.migActive[id]
	if running {
		c.migAbortReq[id] = true
	}
	c.mu.Unlock()
	if running {
		return AbortResult{Migration: id, State: r.State.String(), Requested: true}, nil
	}
	switch r.State {
	case wal.MigrationPlanned, wal.MigrationFrozen, wal.MigrationCopying, wal.MigrationVerifying:
		if err := c.abortMigration(id, r.From); err != nil {
			return AbortResult{}, err
		}
		r, _ = c.mig.Get(id)
		return AbortResult{Migration: id, State: r.State.String()}, nil
	case wal.MigrationFlipped:
		return AbortResult{}, fault.Invalidf(
			"migration %d already flipped ownership durably; it cannot abort, only complete (redrive in progress)", id)
	default:
		return AbortResult{Migration: id, State: r.State.String()}, nil
	}
}

// MigrationStatus reports the folded state of one migration for
// participant probes; unknown ids are presumed aborted (the log is
// never trimmed, so unknown means never durably begun). Flipped
// migrations carry the decision's destination, map epoch and moved
// node list, so a probing source can fence provisionally and thaw
// instead of holding its freeze for as long as the redrive takes.
func (c *Coordinator) MigrationStatus(id uint64) server.MigrationStatusResponse {
	r, ok := c.mig.Get(id)
	if !ok {
		return server.MigrationStatusResponse{Migration: id, State: wal.MigrationAborted.String(), Epoch: c.mig.Epoch()}
	}
	out := server.MigrationStatusResponse{Migration: id, State: r.State.String(), Epoch: c.mig.Epoch()}
	if r.State == wal.MigrationFlipped {
		out.To, out.MapEpoch, out.Nodes = r.To, r.MapEpoch, r.Nodes
	}
	return out
}

// RebalanceStatus is the GET /v1/rebalance body.
type RebalanceStatus struct {
	// Enabled reports whether the automatic rebalancer loop is running.
	Enabled bool `json:"enabled"`
	// IntervalMS is the rebalancer's period (0 when disabled).
	IntervalMS int64 `json:"interval_ms,omitempty"`
	// MaxConcurrent and MinBridges echo the planner's knobs.
	MaxConcurrent int `json:"max_concurrent"`
	MinBridges    int `json:"min_bridges"`
	// MapEpoch and Overrides snapshot the versioned map.
	MapEpoch  uint64 `json:"map_epoch"`
	Overrides int    `json:"overrides"`
	// Active lists the non-terminal migrations.
	Active []MigrationInfo `json:"active,omitempty"`
	// Done and Aborted count terminal migrations (log-wide).
	Done    int `json:"done"`
	Aborted int `json:"aborted"`
}

// RebalanceStatusNow snapshots the migration-control status.
func (c *Coordinator) RebalanceStatusNow() RebalanceStatus {
	now := time.Now()
	st := RebalanceStatus{
		Enabled:       c.cfg.RebalanceInterval > 0,
		MaxConcurrent: rebalanceMaxConcurrent,
		MinBridges:    rebalanceMinBridges,
		MapEpoch:      c.vm.Epoch(),
		Overrides:     c.vm.Len(),
	}
	if st.Enabled {
		st.IntervalMS = c.cfg.RebalanceInterval.Milliseconds()
	}
	st.Active, st.Done, st.Aborted = c.migrationRows(now)
	return st
}

// migrationRows folds the migration log for the stats and status
// bodies: one row per non-terminal migration (aged from this process's
// start or recovery of it) plus the done and aborted counts.
func (c *Coordinator) migrationRows(now time.Time) (active []MigrationInfo, done, aborted int) {
	c.mu.Lock()
	starts := make(map[uint64]time.Time, len(c.migStart))
	for id, t := range c.migStart {
		starts[id] = t
	}
	c.mu.Unlock()
	for _, r := range c.mig.Records() {
		switch r.State {
		case wal.MigrationDone:
			done++
		case wal.MigrationAborted:
			aborted++
		default:
			info := MigrationInfo{
				ID: r.ID, Class: r.Class, From: r.From, To: r.To,
				State: r.State.String(), Copied: r.Copied, MapEpoch: r.MapEpoch,
			}
			if t, ok := starts[r.ID]; ok {
				info.AgeMS = now.Sub(t).Milliseconds()
			}
			active = append(active, info)
		}
	}
	return active, done, aborted
}

// rebalanceLoop runs the automatic planner at RebalanceInterval.
func (c *Coordinator) rebalanceLoop() {
	defer c.redrive.Done()
	t := time.NewTicker(c.cfg.RebalanceInterval)
	defer t.Stop()
	for {
		select {
		case <-c.killed:
			return
		case <-t.C:
		}
		c.rebalanceOnce()
	}
}

// rebalanceOnce plans at most one migration: it counts the bridge edges
// still crossing owner groups under the live (override-aware) map,
// picks the heaviest pair at or above the MinBridges threshold, sizes
// both sides of one of its bridged classes by journal-entry count, and
// moves the smaller side to the larger side's owner — each migration
// converts that pair's bridged queries into local ones. Hysteresis: a
// class attempted recently is left alone, and consolidated bridges
// (both endpoints now co-owned) stop counting, so the planner converges
// instead of thrashing.
func (c *Coordinator) rebalanceOnce() {
	if c.dead() {
		return
	}
	c.mu.Lock()
	if len(c.migActive)+c.migPending >= rebalanceMaxConcurrent {
		c.mu.Unlock()
		return
	}
	edges := make([]bridge, len(c.bridges))
	copy(edges, c.bridges)
	hot := make(map[string]time.Time, len(c.recentMoves))
	for cls, t := range c.recentMoves {
		hot[cls] = t
	}
	c.mu.Unlock()

	type pair struct{ a, b int }
	counts := map[pair]int{}
	pick := map[pair]bridge{}
	for _, b := range edges {
		pa, pb := c.owner(b.n), c.owner(b.m)
		if pa == pb {
			continue // consolidated by an earlier migration
		}
		if pa > pb {
			pa, pb = pb, pa
		}
		p := pair{pa, pb}
		counts[p]++
		if _, ok := pick[p]; !ok {
			pick[p] = b
		}
	}
	var best pair
	bestN := 0
	pairs := make([]pair, 0, len(counts))
	for p := range counts {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		return pairs[i].a < pairs[j].a || (pairs[i].a == pairs[j].a && pairs[i].b < pairs[j].b)
	})
	for _, p := range pairs {
		if n := counts[p]; n >= rebalanceMinBridges && n > bestN {
			best, bestN = p, n
		}
	}
	if bestN == 0 {
		return
	}
	b := pick[best]
	cool := 10 * c.cfg.RebalanceInterval
	for _, x := range [2]string{b.n, b.m} {
		if t, ok := hot[x]; ok && time.Since(t) < cool {
			return
		}
	}

	// Size both sides of the bridged class by journal-entry count and
	// move the smaller into the larger's owner (union-by-size, one
	// level up).
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	on, om := c.owner(b.n), c.owner(b.m)
	sn, err := c.conns[on].MigrateSlice(ctx, b.n, 0, 1)
	if err == nil {
		var sm server.MigrateSliceResponse
		sm, err = c.conns[om].MigrateSlice(ctx, b.m, 0, 1)
		if err == nil {
			class, dest := b.n, om
			if sn.Total > sm.Total {
				class, dest = b.m, on
			}
			c.mu.Lock()
			c.recentMoves[b.n] = time.Now()
			c.recentMoves[b.m] = time.Now()
			c.mu.Unlock()
			cancel()
			reason := fmt.Sprintf("rebalance: %d bridge edge(s) between %q and %q",
				bestN, c.m.Groups[best.a].Name, c.m.Groups[best.b].Name)
			mctx, mcancel := context.WithTimeout(context.Background(), 30*time.Second)
			_, _ = c.Migrate(mctx, class, c.m.Groups[dest].Name, reason)
			mcancel()
			return
		}
	}
	cancel()
}
