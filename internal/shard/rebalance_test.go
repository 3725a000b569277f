package shard_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"luf/internal/cert"
	"luf/internal/client"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/server"
	"luf/internal/shard"
)

// migRig is the online-rebalancing test rig: n single-primary groups
// plus a coordinator served over HTTP at a URL that stays stable across
// coordinator restarts — the Advertise a frozen source probes after its
// TTL lapses, and the map endpoint stale clients refresh from.
type migRig struct {
	t      *testing.T
	m      shard.Map
	fleets []*groupFleet
	dir    string
	url    string
	dial   func(shard.Group) shard.Conn
	front  atomic.Value // http.Handler of the current coordinator
}

func newMigRig(t *testing.T, n int, dial func(shard.Group) shard.Conn) *migRig {
	t.Helper()
	m, fleets := startGroups(t, n)
	rig := &migRig{t: t, m: m, fleets: fleets, dir: t.TempDir(), dial: dial}
	if rig.dial == nil {
		rig.dial = client.DialGroup
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rig.front.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	rig.url = ts.URL
	return rig
}

// start opens a coordinator on the rig's durable directory (call again
// after Kill/Close to model a restart) and swaps it in behind the
// stable URL. A small copy chunk exercises the windowed stream.
func (rig *migRig) start(hook func(stage string, id uint64), tweak func(*shard.Config)) *shard.Coordinator {
	rig.t.Helper()
	cfg := shard.Config{
		Dir: rig.dir, Map: rig.m, Dial: rig.dial, Advertise: rig.url,
		PrepareTTL:      400 * time.Millisecond,
		RedriveInterval: 20 * time.Millisecond,
		MigrateChunk:    2,
		StepHook:        hook,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	c, err := shard.New(cfg)
	if err != nil {
		rig.t.Fatal(err)
	}
	rig.front.Store(http.Handler(shard.NewHandler(c)))
	rig.t.Cleanup(func() { _ = c.Close() })
	return c
}

// probeClient is a no-retry client to one group primary, so a 503
// freeze stall or a 403 fence surfaces on the first attempt instead of
// being retried away.
func probeClient(url string) *client.Client {
	cl := client.New(url)
	cl.MaxRetries = 0
	return cl
}

// buildClass unions k group-gi-owned nodes into one equivalence class
// through the coordinator with a potential function, returning the
// members (index 0 is the representative) and the potential.
func buildClass(t *testing.T, c *shard.Coordinator, m shard.Map, gi, k int, prefix string) ([]string, map[string]int64) {
	t.Helper()
	ids := m.SampleOwned(gi, k, prefix)
	val := map[string]int64{}
	for i, id := range ids {
		val[id] = int64((i + 1) * 17)
	}
	for i := 1; i < k; i++ {
		if _, err := c.Union(context.Background(), ids[0], ids[i], val[ids[i]]-val[ids[0]], "class seed"); err != nil {
			t.Fatalf("class seed union %s-%s: %v", ids[0], ids[i], err)
		}
	}
	return ids, val
}

// TestMigrateMovesClassAndFencesSource is the happy path end to end: a
// class with a cross-shard bridge migrates to the bridge's other owner;
// every relation keeps answering (checker-verified), unions inside the
// consolidated class become the fast path, the source durably fences
// stale writers with the new-owner hint, and unrelated classes on the
// source never notice.
func TestMigrateMovesClassAndFencesSource(t *testing.T) {
	rig := newMigRig(t, 3, nil)
	c := rig.start(nil, nil)
	ctx := context.Background()

	ids, val := buildClass(t, c, rig.m, 0, 3, "mv")
	bn := rig.m.SampleOwned(1, 1, "mvb")[0]
	val[bn] = 99
	if _, err := c.Union(ctx, ids[0], bn, val[bn]-val[ids[0]], "bridge"); err != nil {
		t.Fatal(err)
	}

	res, err := c.Migrate(ctx, ids[0], "beta", "co-locate with the bridge")
	if err != nil || !res.OK {
		t.Fatalf("migrate = (%+v, %v)", res, err)
	}
	if res.From != "alpha" || res.To != "beta" || res.MapEpoch == 0 || res.Entries == 0 || res.Nodes < 3 {
		t.Fatalf("migrate result %+v", res)
	}

	// Every pre-move relation still answers with its label, and the
	// certificates pass the unmodified independent checker.
	for _, x := range append(ids[1:], bn) {
		label, ok, err := c.Relation(ctx, ids[0], x)
		if err != nil || !ok || label != val[x]-val[ids[0]] {
			t.Fatalf("relation(%s, %s) after migrate = (%d, %v, %v), want %d", ids[0], x, label, ok, err, val[x]-val[ids[0]])
		}
		crt, err := c.Explain(ctx, ids[0], x)
		if err != nil {
			t.Fatalf("explain(%s, %s): %v", ids[0], x, err)
		}
		if err := cert.Check(crt, group.Delta{}); err != nil {
			t.Fatalf("certificate after migrate rejected: %v", err)
		}
	}

	// The consolidated class now unions on the destination fast path —
	// the cross-shard→local win the rebalancer exists for.
	fresh := rig.m.SampleOwned(1, 1, "mvf")[0]
	ur, err := c.Union(ctx, ids[1], fresh, 5, "post-move")
	if err != nil || !ur.OK || !ur.SameShard {
		t.Fatalf("post-move union = (%+v, %v), want same-shard fast path", ur, err)
	}

	// A stale client writing to the source is fenced 403 with the
	// new-owner hint; writes to unrelated classes pass untouched.
	cl := probeClient(rig.fleets[0].url)
	_, err = cl.Assert(ctx, ids[0], "mv-stale", 1, "stale write")
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusForbidden {
		t.Fatalf("stale write to the source = %v, want 403", err)
	}
	if d := ae.Detail(); d.NewOwner != "beta" || d.MapEpoch != res.MapEpoch {
		t.Fatalf("fence detail = %+v, want new owner beta at epoch %d", d, res.MapEpoch)
	}
	if _, err := cl.Assert(ctx, "mv-other-1", "mv-other-2", 1, "unrelated class"); err != nil {
		t.Fatalf("unrelated write on the source after migrate: %v", err)
	}

	st := c.StatsNow(ctx, 0)
	if st.Migrated != 1 || st.MigrationsAborted != 0 || st.MapEpoch != res.MapEpoch || st.Overrides == 0 {
		t.Fatalf("stats after migrate: %+v", st)
	}
	view := c.MapView()
	if view.Epoch != res.MapEpoch || view.Overrides[ids[0]] != "beta" {
		t.Fatalf("map view after migrate: %+v", view)
	}
}

// TestMigrateKillMatrix kills the coordinator at every state-machine
// transition. Pre-flip kills must presume abort on restart — ownership
// never moves, the source thaws, writes flow again. The post-flip kill
// must redrive completion with zero operator action — ownership moved,
// the source fence installs, stale writers 403. In every case the
// class's relations survive, served from wherever ownership landed.
func TestMigrateKillMatrix(t *testing.T) {
	for _, stage := range []string{"mig-planned", "mig-frozen", "mig-copied", "mig-verified", "mig-flipped"} {
		t.Run(stage, func(t *testing.T) {
			rig := newMigRig(t, 2, nil)
			var arm atomic.Bool
			var c *shard.Coordinator
			c = rig.start(func(s string, id uint64) {
				if s == stage && arm.CompareAndSwap(true, false) {
					c.Kill()
				}
			}, nil)
			ctx := context.Background()
			ids, val := buildClass(t, c, rig.m, 0, 3, "km-"+stage)

			arm.Store(true)
			res, err := c.Migrate(ctx, ids[0], "beta", "kill matrix")
			if err == nil {
				t.Fatal("migrate through the dying coordinator must not report done")
			}
			_ = c.Close()

			c = rig.start(nil, nil)
			cl := probeClient(rig.fleets[0].url)
			if stage == "mig-flipped" {
				// The Flipped record is the decision: recovery re-applies
				// the override and the redrive loop installs the fence.
				waitFor(t, "redriven completion", func() bool {
					return c.MigrationStatus(res.Migration).State == "done"
				})
				if own := c.MapView().Overrides[ids[0]]; own != "beta" {
					t.Fatalf("override after redrive = %q, want beta", own)
				}
				_, werr := cl.Assert(ctx, ids[0], "km-stale", 1, "stale write")
				var ae *client.APIError
				if !errors.As(werr, &ae) || ae.Status != http.StatusForbidden || ae.Detail().NewOwner != "beta" {
					t.Fatalf("stale write after redriven flip = %v, want 403 with new-owner hint", werr)
				}
			} else {
				// No Flipped record on disk: recovery presumes abort.
				if st := c.MigrationStatus(res.Migration).State; st != "aborted" {
					t.Fatalf("migration state after %s crash = %q, want aborted", stage, st)
				}
				if n := len(c.MapView().Overrides); n != 0 {
					t.Fatalf("aborted migration left %d ownership overrides", n)
				}
				waitFor(t, "source thaw", func() bool {
					_, err := cl.Assert(ctx, ids[0], "km-extra", 7, "post-abort write")
					return err == nil
				})
			}
			for _, x := range ids[1:] {
				label, ok, rerr := c.Relation(ctx, ids[0], x)
				if rerr != nil || !ok || label != val[x]-val[ids[0]] {
					t.Fatalf("relation(%s, %s) after %s crash = (%d, %v, %v), want %d",
						ids[0], x, stage, label, ok, rerr, val[x]-val[ids[0]])
				}
			}
		})
	}
}

// TestMigrateDestinationConflictAborts: a destination whose journal
// already contradicts the copied class refuses the copy with a 409, and
// the migration durably aborts — the class stays where it is and keeps
// serving from the source.
func TestMigrateDestinationConflictAborts(t *testing.T) {
	rig := newMigRig(t, 2, nil)
	c := rig.start(nil, nil)
	ctx := context.Background()

	ids, val := buildClass(t, c, rig.m, 0, 2, "cf")
	// Pre-seed the destination with a contradicting label for the same
	// pair: re-proving the copy there must refuse.
	if _, err := probeClient(rig.fleets[1].url).Assert(ctx, ids[0], ids[1], val[ids[1]]-val[ids[0]]+1, "contradiction"); err != nil {
		t.Fatal(err)
	}

	res, err := c.Migrate(ctx, ids[0], "beta", "doomed")
	if err == nil {
		t.Fatal("migration into a contradicting destination must refuse")
	}
	var se shard.StatusError
	if !errors.As(err, &se) || se.HTTPStatus() != http.StatusConflict {
		t.Fatalf("conflict abort error = %v, want the destination's 409 passed through", err)
	}
	if st := c.MigrationStatus(res.Migration).State; st != "aborted" {
		t.Fatalf("migration state = %q, want aborted", st)
	}
	if n := len(c.MapView().Overrides); n != 0 {
		t.Fatalf("conflict abort left %d overrides", n)
	}
	// The class stayed put, thawed and correct on the source.
	cl := probeClient(rig.fleets[0].url)
	waitFor(t, "source thaw after conflict abort", func() bool {
		_, err := cl.Assert(ctx, ids[0], "cf-extra", 3, "post-abort write")
		return err == nil
	})
	if label, ok, err := c.Relation(ctx, ids[0], ids[1]); err != nil || !ok || label != val[ids[1]]-val[ids[0]] {
		t.Fatalf("relation after conflict abort = (%d, %v, %v)", label, ok, err)
	}
}

// damagedSliceConn flips one byte in every slice window a group serves
// and counts the writes the coordinator sends the group.
type damagedSliceConn struct {
	shard.Conn
	writes *atomic.Int64
}

func (d damagedSliceConn) MigrateSlice(ctx context.Context, class string, after, limit int) (server.MigrateSliceResponse, error) {
	sl, err := d.Conn.MigrateSlice(ctx, class, after, limit)
	if err == nil && len(sl.Frames) > 0 {
		sl.Frames[len(sl.Frames)-1] ^= 0x01
	}
	return sl, err
}

func (d damagedSliceConn) Assert(ctx context.Context, n, m string, label int64, reason string) (server.AssertResponse, error) {
	d.writes.Add(1)
	return d.Conn.Assert(ctx, n, m, label, reason)
}

func (d damagedSliceConn) BatchAssert(ctx context.Context, asserts []server.AssertRequest) (server.BatchAssertResponse, error) {
	d.writes.Add(1)
	return d.Conn.BatchAssert(ctx, asserts)
}

// TestMigrateDamagedSliceAborts: a slice window damaged in transit
// fails its frame checksum at the coordinator, and the migration aborts
// with fault.ErrIO before the destination receives any write — the
// class stays where it is and the source thaws.
func TestMigrateDamagedSliceAborts(t *testing.T) {
	writes := map[string]*atomic.Int64{}
	rig := newMigRig(t, 2, func(g shard.Group) shard.Conn {
		writes[g.Name] = new(atomic.Int64)
		return damagedSliceConn{Conn: client.DialGroup(g), writes: writes[g.Name]}
	})
	c := rig.start(nil, nil)
	ctx := context.Background()
	ids, val := buildClass(t, c, rig.m, 0, 3, "dm")

	res, err := c.Migrate(ctx, ids[0], "beta", "damaged window")
	if !errors.Is(err, fault.ErrIO) {
		t.Fatalf("migration over a damaged slice window = %v, want fault.ErrIO", err)
	}
	if n := writes["beta"].Load(); n != 0 {
		t.Fatalf("destination received %d writes from a damaged window, want 0", n)
	}
	if st := c.MigrationStatus(res.Migration).State; st != "aborted" {
		t.Fatalf("migration state = %q, want aborted", st)
	}
	if n := len(c.MapView().Overrides); n != 0 {
		t.Fatalf("damaged-window abort left %d overrides", n)
	}
	cl := probeClient(rig.fleets[0].url)
	waitFor(t, "source thaw after damaged-window abort", func() bool {
		_, err := cl.Assert(ctx, ids[0], "dm-extra", 5, "post-abort write")
		return err == nil
	})
	if label, ok, err := c.Relation(ctx, ids[0], ids[2]); err != nil || !ok || label != val[ids[2]]-val[ids[0]] {
		t.Fatalf("relation after damaged-window abort = (%d, %v, %v)", label, ok, err)
	}
}

// TestFreezeStallsWritesWithoutLoss pins the freeze-window contract at
// the participant: writes touching the frozen class 503 (stalled, not
// lost — the retry lands after the thaw), reads keep serving through
// the window, and unrelated classes never shed.
func TestFreezeStallsWritesWithoutLoss(t *testing.T) {
	_, fleets := startGroups(t, 1)
	cl := probeClient(fleets[0].url)
	ctx := context.Background()

	if _, err := cl.Assert(ctx, "fz-a", "fz-b", 3, "seed"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.MigrateFreeze(ctx, server.MigrateFreezeRequest{
		Migration: 1, Epoch: 1, Class: "fz-a", TTLMillis: 60_000,
	}); err != nil {
		t.Fatal(err)
	}

	// A write touching any member of the frozen class stalls with a
	// retryable 503 — including through class membership, not just the
	// representative.
	_, err := cl.Assert(ctx, "fz-b", "fz-c", 4, "stalled write")
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("write into the frozen class = %v, want 503", err)
	}
	// Reads serve throughout the freeze.
	if label, ok, err := cl.Relation(ctx, "fz-a", "fz-b"); err != nil || !ok || label != 3 {
		t.Fatalf("read during freeze = (%d, %v, %v)", label, ok, err)
	}
	// Unrelated classes pass untouched.
	if _, err := cl.Assert(ctx, "fz-other-1", "fz-other-2", 1, "unrelated"); err != nil {
		t.Fatalf("unrelated write during freeze: %v", err)
	}

	// Thaw; the stalled write retried now lands — stalled, never lost.
	if _, err := cl.MigrateRelease(ctx, server.MigrateReleaseRequest{Migration: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Assert(ctx, "fz-b", "fz-c", 4, "retried write"); err != nil {
		t.Fatalf("retried write after thaw: %v", err)
	}
	if label, ok, err := cl.Relation(ctx, "fz-a", "fz-c"); err != nil || !ok || label != 7 {
		t.Fatalf("relation after thaw = (%d, %v, %v), want 7", label, ok, err)
	}
}

// TestRequestAbortAtWindowBoundary: an operator abort against a running
// migration is honored at the next copy-window boundary — the migration
// durably aborts, ownership never moves, the source thaws.
func TestRequestAbortAtWindowBoundary(t *testing.T) {
	rig := newMigRig(t, 2, nil)
	var arm atomic.Bool
	var c *shard.Coordinator
	c = rig.start(func(stage string, id uint64) {
		if stage == "mig-frozen" && arm.CompareAndSwap(true, false) {
			r, err := c.RequestAbort(id)
			if err != nil || !r.Requested {
				t.Errorf("abort of a running migration = (%+v, %v), want requested", r, err)
			}
		}
	}, nil)
	ctx := context.Background()
	ids, _ := buildClass(t, c, rig.m, 0, 3, "ab")

	arm.Store(true)
	res, err := c.Migrate(ctx, ids[0], "beta", "operator abort")
	if err == nil {
		t.Fatal("aborted migration must not report done")
	}
	if st := c.MigrationStatus(res.Migration).State; st != "aborted" {
		t.Fatalf("migration state = %q, want aborted", st)
	}
	if n := len(c.MapView().Overrides); n != 0 {
		t.Fatalf("operator abort left %d overrides", n)
	}
	cl := probeClient(rig.fleets[0].url)
	waitFor(t, "source thaw after operator abort", func() bool {
		_, err := cl.Assert(ctx, ids[0], "ab-extra", 2, "post-abort write")
		return err == nil
	})

	// An id that was never durably begun refuses the abort and is
	// presumed aborted by status probes.
	if _, err := c.RequestAbort(999); err == nil {
		t.Fatal("abort of an unknown migration must refuse")
	}
	if st := c.MigrationStatus(999); st.State != "aborted" {
		t.Fatalf("unknown migration status = %q, want presumed aborted", st.State)
	}
}

// TestRequestAbortRefusedAfterFlip: once the Flipped record is durable
// the migration is past its decision point — abort refuses, ownership
// stays moved, and the dangling completion is visible in stats (the
// redrive queue and oldest_in_doubt_age_ms) until the source comes back.
func TestRequestAbortRefusedAfterFlip(t *testing.T) {
	rig := newMigRig(t, 2, nil)
	var arm atomic.Bool
	c := rig.start(func(stage string, id uint64) {
		if stage == "mig-flipped" && arm.CompareAndSwap(true, false) {
			// The source vanishes between the flip and the fence install.
			rig.fleets[0].ts.Close()
		}
	}, nil)
	ctx := context.Background()
	ids, val := buildClass(t, c, rig.m, 0, 3, "fl")

	arm.Store(true)
	res, err := c.Migrate(ctx, ids[0], "beta", "flip then lose the source")
	if err == nil {
		t.Fatal("completion cannot succeed with the source down")
	}
	if st := c.MigrationStatus(res.Migration).State; st != "flipped" {
		t.Fatalf("migration state = %q, want flipped (completion pending)", st)
	}
	if _, aerr := c.RequestAbort(res.Migration); aerr == nil {
		t.Fatal("flipped migration must refuse to abort")
	}

	// Ownership moved despite the dangling completion: the class serves
	// from the destination.
	if own := c.MapView().Overrides[ids[0]]; own != "beta" {
		t.Fatalf("override = %q, want beta", own)
	}
	if label, ok, err := c.Relation(ctx, ids[0], ids[1]); err != nil || !ok || label != val[ids[1]]-val[ids[0]] {
		t.Fatalf("relation served from the destination = (%d, %v, %v)", label, ok, err)
	}

	// The wedged completion is loud: the migration sits in stats with
	// its state and age, and the in-doubt age climbs until it resolves.
	waitFor(t, "visible in-doubt age", func() bool {
		st := c.StatsNow(ctx, 0)
		if st.OldestInDoubtAgeMS <= 0 {
			return false
		}
		for _, mi := range st.Migrations {
			if mi.ID == res.Migration && mi.State == "flipped" {
				return true
			}
		}
		return false
	})

	// A second migration of the same class must refuse while the first
	// one's completion is still redriving — admitting it would
	// double-move the class.
	if _, merr := c.Migrate(ctx, ids[0], "alpha", "double-migrate attempt"); merr == nil ||
		!strings.Contains(merr.Error(), "still completing") {
		t.Fatalf("same-class migrate while completion pending = %v, want a still-completing refusal", merr)
	}
}

// TestChaosMigrationCrashPartitionAndStaleClient is the end-to-end
// rebalancing chaos scenario from the acceptance bar: a consistent
// workload, the coordinator killed mid-copy, the destination partitioned
// mid-stream on the retry, a clean third attempt, then a stale client
// writing with the old map. Afterwards: zero acked answers lost (every
// pair agrees with a BFS oracle over exactly the acked edges), every
// served certificate passes the unmodified checker, migrations redrove
// or presumed abort with zero operator action, and non-migrating
// classes kept serving throughout.
func TestChaosMigrationCrashPartitionAndStaleClient(t *testing.T) {
	net := fault.NewNetwork()
	dial := func(g shard.Group) shard.Conn {
		return &netConn{Conn: client.DialGroup(g), net: net, name: g.Name}
	}
	rig := newMigRig(t, 3, dial)
	var onStage atomic.Value // func(stage string)
	onStage.Store(func(string) {})
	hook := func(stage string, id uint64) { onStage.Load().(func(string))(stage) }
	c := rig.start(hook, nil)
	ctx := context.Background()

	// Node universe with a potential function so every label is globally
	// consistent; every acked union feeds the oracle.
	val := map[string]int64{}
	next := int64(1)
	sample := func(gi, k int, pfx string) []string {
		ids := rig.m.SampleOwned(gi, k, pfx)
		for _, id := range ids {
			if _, ok := val[id]; !ok {
				val[id] = next * 13
				next++
			}
		}
		return ids
	}
	var acked []ackedEdge
	union := func(n, m string) error {
		label := val[m] - val[n]
		_, err := c.Union(ctx, n, m, label, "chaos workload")
		if err == nil {
			acked = append(acked, ackedEdge{n: n, m: m, label: label})
		}
		return err
	}
	al, be, ga := sample(0, 4, "mca"), sample(1, 3, "mcb"), sample(2, 3, "mcg")
	for _, p := range [][2]string{
		{al[0], al[1]}, {al[0], al[2]}, {be[0], be[1]}, {ga[0], ga[1]}, {al[0], be[0]},
	} {
		if err := union(p[0], p[1]); err != nil {
			t.Fatalf("workload union %v: %v", p, err)
		}
	}

	// Chaos 1 — coordinator killed mid-copy: the plan and the copy
	// watermarks are durable, the flip is not. Restart presumes abort;
	// ownership never moved and the source thaws with zero operator
	// action.
	var arm1 atomic.Bool
	arm1.Store(true)
	onStage.Store(func(stage string) {
		if stage == "mig-copied" && arm1.CompareAndSwap(true, false) {
			c.Kill()
		}
	})
	res1, err := c.Migrate(ctx, al[0], "beta", "chaos move")
	if err == nil {
		t.Fatal("migration through the dying coordinator must not report done")
	}
	_ = c.Close()
	c = rig.start(hook, nil)
	onStage.Store(func(string) {})
	if st := c.MigrationStatus(res1.Migration).State; st != "aborted" {
		t.Fatalf("crashed migration state = %q, want presumed abort", st)
	}
	if n := len(c.MapView().Overrides); n != 0 {
		t.Fatalf("crashed migration left %d overrides", n)
	}
	srcCl := probeClient(rig.fleets[0].url)
	waitFor(t, "source thaw after coordinator crash", func() bool {
		_, err := srcCl.Assert(ctx, al[0], al[3], val[al[3]]-val[al[0]], "post-crash write")
		return err == nil
	})
	acked = append(acked, ackedEdge{n: al[0], m: al[3], label: val[al[3]] - val[al[0]]})

	// Chaos 2 — destination partitioned mid-stream: the copy's re-prove
	// asserts cannot reach beta, the migration durably aborts, the class
	// stays put. Gamma — a non-migrating class on an unaffected group —
	// keeps serving through the episode.
	var arm2 atomic.Bool
	arm2.Store(true)
	onStage.Store(func(stage string) {
		if stage == "mig-frozen" && arm2.CompareAndSwap(true, false) {
			net.PartitionGroups([]string{"coord"}, []string{"beta"})
		}
	})
	res2, err := c.Migrate(ctx, al[0], "beta", "chaos move 2")
	if err == nil {
		t.Fatal("migration into a partitioned destination must abort")
	}
	if st := c.MigrationStatus(res2.Migration).State; st != "aborted" {
		t.Fatalf("partitioned migration state = %q, want aborted", st)
	}
	if err := union(ga[0], ga[2]); err != nil {
		t.Fatalf("gamma union during the beta partition: %v", err)
	}
	net.HealGroups([]string{"coord"}, []string{"beta"})
	onStage.Store(func(string) {})
	waitFor(t, "source thaw after partition abort", func() bool {
		_, err := srcCl.Assert(ctx, al[0], al[3], val[al[3]]-val[al[0]], "idempotent thaw probe")
		return err == nil
	})

	// Chaos 3 — healed retry: the migration lands.
	res3, err := c.Migrate(ctx, al[0], "beta", "chaos move 3")
	if err != nil || !res3.OK {
		t.Fatalf("healed migration = (%+v, %v)", res3, err)
	}

	// A stale client with the old map: the direct write is fenced 403
	// with the new-owner hint; a shard-map client refreshes its
	// versioned map off that fence and re-routes with zero operator
	// action.
	_, err = srcCl.Assert(ctx, al[0], al[1], val[al[1]]-val[al[0]], "stale write")
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusForbidden || ae.Detail().NewOwner != "beta" {
		t.Fatalf("stale write = %v, want 403 with new-owner beta", err)
	}
	sc, err := client.NewShardCluster(rig.m, rig.url)
	if err != nil {
		t.Fatal(err)
	}
	if ur, err := sc.Assert(ctx, al[0], al[1], val[al[1]]-val[al[0]], "stale client re-route"); err != nil || !ur.OK {
		t.Fatalf("stale shard-map client assert = (%+v, %v), want refreshed re-route", ur, err)
	}
	if sc.MapEpoch() != res3.MapEpoch {
		t.Fatalf("client map epoch after re-route = %d, want %d", sc.MapEpoch(), res3.MapEpoch)
	}

	// Verification sweep: every pair of workload nodes against the BFS
	// oracle over exactly the acked edges — nothing acked lost across
	// the crash, the partition and the move; nothing unacked appeared.
	// Every related pair's certificate must pass the unmodified checker.
	var all []string
	all = append(all, al...)
	all = append(all, be...)
	all = append(all, ga...)
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			x, y := all[i], all[j]
			wantL, wantOK := oracleRelation(acked, x, y)
			gotL, gotOK, err := c.Relation(ctx, x, y)
			if err != nil {
				t.Fatalf("relation(%s, %s): %v", x, y, err)
			}
			if gotOK != wantOK || (gotOK && gotL != wantL) {
				t.Fatalf("relation(%s, %s) = (%d, %v), oracle says (%d, %v)", x, y, gotL, gotOK, wantL, wantOK)
			}
			if !gotOK {
				continue
			}
			cc, err := c.Explain(ctx, x, y)
			if err != nil {
				t.Fatalf("explain(%s, %s): %v", x, y, err)
			}
			if err := cert.Check(cc, group.Delta{}); err != nil {
				t.Fatalf("certificate for (%s, %s) rejected by checker: %v", x, y, err)
			}
		}
	}

	// Final ledger: one migration done, two presumed/durably aborted,
	// nothing in a redrive queue, no operator-action flags.
	st := c.StatsNow(ctx, 0)
	if st.Migrated != 1 || st.MigrationsAborted != 2 || st.Poisoned != 0 || len(st.Migrations) != 0 {
		t.Fatalf("final migration ledger: %+v", st)
	}
}

// TestRebalancerConsolidatesHotPair: the automatic planner watches the
// live bridge registry, picks the group pair with enough cross-shard
// traffic, and moves the smaller class to the larger side's owner — the
// consolidated pair then unions on the fast path. Converged bridges
// stop counting, so one move at threshold 2 is also the last.
func TestRebalancerConsolidatesHotPair(t *testing.T) {
	rig := newMigRig(t, 3, nil)
	c := rig.start(nil, func(cfg *shard.Config) {
		cfg.RebalanceInterval = 30 * time.Millisecond
	})
	ctx := context.Background()

	// Two bridge edges between alpha and beta, from disjoint classes —
	// at the planner's default threshold.
	a1, b1 := crossPair(t, rig.m, 0, 1, "rb1")
	a2, b2 := crossPair(t, rig.m, 0, 1, "rb2")
	for _, p := range [][2]string{{a1, b1}, {a2, b2}} {
		if _, err := c.Union(ctx, p[0], p[1], 9, "hot pair"); err != nil {
			t.Fatalf("bridge union %v: %v", p, err)
		}
	}

	waitFor(t, "rebalancer consolidation", func() bool {
		return c.StatsNow(ctx, 0).Migrated >= 1
	})

	// Hysteresis and convergence: with the moved bridge converged, the
	// surviving single bridge is below threshold, so the planner stays
	// quiet instead of thrashing.
	time.Sleep(250 * time.Millisecond)
	st := c.StatsNow(ctx, 0)
	if st.Migrated != 1 || st.MigrationsAborted != 0 {
		t.Fatalf("planner kept moving after convergence: %+v", st)
	}
	rs := c.RebalanceStatusNow()
	if !rs.Enabled || rs.Done != 1 || rs.MapEpoch == 0 {
		t.Fatalf("rebalance status: %+v", rs)
	}

	// Whichever bridge the planner picked, its pair now unions on the
	// same-shard fast path instead of a 2PC round. (The other pair's
	// re-union is fresh cross-shard traffic — the planner may rightly
	// consolidate it next, so this probe comes after the quiescence
	// check.)
	ur1, err1 := c.Union(ctx, a1, b1, 9, "post-consolidation")
	ur2, err2 := c.Union(ctx, a2, b2, 9, "post-consolidation")
	if err1 != nil || err2 != nil || !ur1.OK || !ur2.OK {
		t.Fatalf("post-consolidation unions = (%+v, %v), (%+v, %v)", ur1, err1, ur2, err2)
	}
	if !ur1.SameShard && !ur2.SameShard {
		t.Fatalf("no bridge consolidated onto the fast path: %+v, %+v", ur1, ur2)
	}
}

// TestZombieCoordinatorMigrationFenced: migration traffic from a
// superseded coordinator epoch is fenced with 403 at the participant —
// a restarted coordinator's bumped epoch wins, exactly like 2PC
// prepares. Both the freeze and the copy stream are fenced.
func TestZombieCoordinatorMigrationFenced(t *testing.T) {
	_, fleets := startGroups(t, 1)
	cl := probeClient(fleets[0].url)
	ctx := context.Background()

	// The live coordinator's freeze stamps epoch 5 as the high water.
	if _, err := cl.MigrateFreeze(ctx, server.MigrateFreezeRequest{
		Migration: 7, Epoch: 5, Class: "zb-live", TTLMillis: 60_000,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.MigrateRelease(ctx, server.MigrateReleaseRequest{Migration: 7}); err != nil {
		t.Fatal(err)
	}

	// A zombie at a strictly lower epoch tries to freeze: fenced, and so
	// is its copy stream — the moved class cannot be resurrected by a
	// coordinator that lost its lease.
	_, err := cl.MigrateFreeze(ctx, server.MigrateFreezeRequest{
		Migration: 99, Epoch: 4, Class: "zb-any", TTLMillis: 1000,
	})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusForbidden {
		t.Fatalf("zombie freeze = %v, want 403 fence", err)
	}
	_, err = cl.Assert(ctx, "zb-c1", "zb-c2", 1, server.FormatMigrateTag(99, 4))
	if !errors.As(err, &ae) || ae.Status != http.StatusForbidden {
		t.Fatalf("zombie copy-stream assert = %v, want 403 fence", err)
	}
	// Current-epoch traffic is unaffected by the zombie's attempts.
	if _, err := cl.Assert(ctx, "zb-c1", "zb-c2", 1, server.FormatMigrateTag(100, 5)); err != nil {
		t.Fatalf("current-epoch copy-stream assert: %v", err)
	}
}

// TestRedrivenCompletionSurvivesEpochBump: the coordinator dies right
// after the flip, restarts (bumping its fencing epoch), and a second
// migration from the same source raises the source's high-water epoch
// before the first migration's completion redrives. The redriven
// complete must carry the coordinator's current epoch — resending the
// epoch recorded at Begin would fence the completion forever and wedge
// the class behind a fence only an operator could clear.
func TestRedrivenCompletionSurvivesEpochBump(t *testing.T) {
	rig := newMigRig(t, 3, nil)
	var arm atomic.Bool
	var c *shard.Coordinator
	c = rig.start(func(stage string, id uint64) {
		if stage == "mig-flipped" && arm.CompareAndSwap(true, false) {
			c.Kill()
		}
	}, nil)
	ctx := context.Background()
	ids, val := buildClass(t, c, rig.m, 0, 3, "eb")
	ids2, _ := buildClass(t, c, rig.m, 0, 3, "eb2")

	arm.Store(true)
	res, err := c.Migrate(ctx, ids[0], "beta", "flip then die")
	if err == nil {
		t.Fatal("migrate through the dying coordinator must not report done")
	}
	_ = c.Close()

	// Restart with a slow redrive so the epoch-raising migration runs
	// first, then let the dangling completion land.
	c = rig.start(nil, func(cfg *shard.Config) { cfg.RedriveInterval = 300 * time.Millisecond })
	if res2, err := c.Migrate(ctx, ids2[0], "gamma", "epoch raiser"); err != nil || !res2.OK {
		t.Fatalf("second migration = (%+v, %v)", res2, err)
	}
	waitFor(t, "redriven completion under the bumped epoch", func() bool {
		return c.MigrationStatus(res.Migration).State == "done"
	})

	// Both classes are fenced at their old home and serve from their new
	// owners.
	cl := probeClient(rig.fleets[0].url)
	var ae *client.APIError
	_, werr := cl.Assert(ctx, ids[0], "eb-stale", 1, "stale write")
	if !errors.As(werr, &ae) || ae.Status != http.StatusForbidden || ae.Detail().NewOwner != "beta" {
		t.Fatalf("stale write after redriven completion = %v, want 403 with new-owner beta", werr)
	}
	for _, x := range ids[1:] {
		if label, ok, err := c.Relation(ctx, ids[0], x); err != nil || !ok || label != val[x]-val[ids[0]] {
			t.Fatalf("relation(%s, %s) = (%d, %v, %v)", ids[0], x, label, ok, err)
		}
	}
}

// TestMigrateBackThenSourceRestartLiftsFence: a class migrates away and
// back, then its home group restarts. Fence replay must honor journal
// order — the return trip's migrate-tagged copy entries lift the fence
// the away trip's marker installed. Replaying markers alone would
// resurrect the stale fence and the class would come back refusing its
// own writes forever.
func TestMigrateBackThenSourceRestartLiftsFence(t *testing.T) {
	rig := newMigRig(t, 2, nil)
	c := rig.start(nil, nil)
	ctx := context.Background()

	ids, val := buildClass(t, c, rig.m, 0, 3, "pp")
	if res, err := c.Migrate(ctx, ids[0], "beta", "away"); err != nil || !res.OK {
		t.Fatalf("migrate away = (%+v, %v)", res, err)
	}
	if res, err := c.Migrate(ctx, ids[0], "alpha", "and back"); err != nil || !res.OK {
		t.Fatalf("migrate back = (%+v, %v)", res, err)
	}

	// Home again: alpha serves class writes live.
	cl := probeClient(rig.fleets[0].url)
	if _, err := cl.Assert(ctx, ids[0], "pp-live", 3, "write after the return trip"); err != nil {
		t.Fatalf("class write on alpha after the return trip: %v", err)
	}

	rig.fleets[0].restart(t)
	if _, err := cl.Assert(ctx, ids[0], "pp-after", 4, "write after restart"); err != nil {
		t.Fatalf("class write on restarted alpha after ping-pong = %v, want accepted", err)
	}
	for _, x := range ids[1:] {
		if label, ok, err := c.Relation(ctx, ids[0], x); err != nil || !ok || label != val[x]-val[ids[0]] {
			t.Fatalf("relation(%s, %s) after restart = (%d, %v, %v)", ids[0], x, label, ok, err)
		}
	}
}

// TestMigrateRefusesSameClassWhileRunning: while one migration of a
// class is mid-flight, a racing start for the same class must refuse —
// and once the first finishes, the class is free to move again.
func TestMigrateRefusesSameClassWhileRunning(t *testing.T) {
	rig := newMigRig(t, 3, nil)
	var rep atomic.Value // the class representative, set before arming
	var racing atomic.Value
	var arm atomic.Bool
	var c *shard.Coordinator
	c = rig.start(func(stage string, id uint64) {
		if stage == "mig-copied" && arm.CompareAndSwap(true, false) {
			_, err := c.Migrate(context.Background(), rep.Load().(string), "gamma", "racing same class")
			racing.Store(err)
		}
	}, nil)
	ctx := context.Background()

	ids, _ := buildClass(t, c, rig.m, 0, 3, "rc")
	rep.Store(ids[0])
	arm.Store(true)
	if res, err := c.Migrate(ctx, ids[0], "beta", "first mover"); err != nil || !res.OK {
		t.Fatalf("migrate = (%+v, %v)", res, err)
	}
	rerr, _ := racing.Load().(error)
	if rerr == nil || !strings.Contains(rerr.Error(), "already running") {
		t.Fatalf("racing same-class migrate = %v, want an already-running refusal", rerr)
	}

	// The registry releases with the migration: the class moves again.
	if res, err := c.Migrate(ctx, ids[0], "gamma", "second hop"); err != nil || !res.OK {
		t.Fatalf("migrate after release = (%+v, %v)", res, err)
	}
}

// TestCommittedBridgeApplySurvivesConcurrentFlip: a cross-shard union
// commits, and before its bridge edge applies the class flips to a new
// owner (the source installs its moved fence). The apply's 403 carries
// the new-owner hint; the coordinator must follow it — the union was
// acked at commit, so retrying against the fence forever (or dropping
// the edge) loses an acked answer.
func TestCommittedBridgeApplySurvivesConcurrentFlip(t *testing.T) {
	rig := newMigRig(t, 2, nil)
	var flip func()
	var arm atomic.Bool
	c := rig.start(func(stage string, id uint64) {
		if stage == "committed" && arm.CompareAndSwap(true, false) {
			flip()
		}
	}, nil)
	ctx := context.Background()

	ids, _ := buildClass(t, c, rig.m, 0, 2, "cf")
	y := rig.m.SampleOwned(1, 1, "cfy")[0]

	cl := probeClient(rig.fleets[0].url)
	flip = func() {
		// The class flips to beta behind the union's back: commit record
		// durable, bridge edge not yet applied, source fence installed.
		if _, err := cl.MigrateComplete(ctx, server.MigrateCompleteRequest{
			Migration: 41, Epoch: 1, MapEpoch: 1, To: "beta", Nodes: ids,
		}); err != nil {
			t.Error(err)
		}
	}
	arm.Store(true)
	res, err := c.Union(ctx, ids[0], y, 9, "bridge chasing the flip")
	if err != nil || !res.OK {
		t.Fatalf("union across the concurrent flip = (%+v, %v), want applied", res, err)
	}
	if label, ok, err := c.Relation(ctx, ids[0], y); err != nil || !ok || label != 9 {
		t.Fatalf("relation after the followed apply = (%d, %v, %v), want 9", label, ok, err)
	}
}
