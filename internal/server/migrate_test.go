package server_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"luf/internal/client"
	"luf/internal/fault"
	"luf/internal/server"
)

// TestFlippedFreezeFencesProvisionallyNeverThaws: a freeze window whose
// coordinator reports "flipped" is past the decision point — when the
// TTL lapses the source must not presume abort and reopen the write
// path (acked unions on the new owner would silently diverge from a
// stale writer's view). Instead the probe's flip material installs a
// provisional moved-fence: class writes go 503 → 403 with the
// new-owner hint, never back to accepted. The redriven complete must
// then still journal the durable marker (the provisional fence does
// not count as installed), so the fence survives a source restart.
func TestFlippedFreezeFencesProvisionallyNeverThaws(t *testing.T) {
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != server.MigrateStatusPath {
			http.NotFound(w, r)
			return
		}
		writeJSONTest(t, w, server.MigrationStatusResponse{
			Migration: 7, State: "flipped", Epoch: 1,
			To: "beta", MapEpoch: 3, Nodes: []string{"a", "b", "c"},
		})
	}))
	defer coord.Close()

	dir := t.TempDir()
	s, _, c := newTestServer(t, server.Config{Dir: dir})
	c.MaxRetries = 0
	ctx := context.Background()

	if _, err := c.Assert(ctx, "a", "b", 1, "seed"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Assert(ctx, "a", "c", 2, "seed"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MigrateFreeze(ctx, server.MigrateFreezeRequest{
		Migration: 7, Epoch: 1, Coordinator: coord.URL, Class: "a", TTLMillis: 40,
	}); err != nil {
		t.Fatal(err)
	}

	// Class writes stall 503 while frozen, then 403 once the probe sees
	// the flip — at no point is one accepted.
	var ae *client.APIError
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := c.Assert(ctx, "a", "d", 5, "stale write")
		if err == nil {
			t.Fatal("class write accepted during a flipped migration — lost to the new owner")
		}
		if !errors.As(err, &ae) {
			t.Fatalf("class write = %v, want APIError", err)
		}
		if ae.Status == http.StatusForbidden {
			break
		}
		if ae.Status != http.StatusServiceUnavailable {
			t.Fatalf("class write status %d, want 503 while frozen or 403 once flipped", ae.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("freeze never upgraded to the provisional moved-fence")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d := ae.Detail(); d.NewOwner != "beta" || d.MapEpoch != 3 {
		t.Fatalf("provisional fence detail = %+v, want new owner beta at map epoch 3", d)
	}
	// The fence thawed the window: unrelated classes write freely.
	if _, err := c.Assert(ctx, "x", "y", 1, "unrelated"); err != nil {
		t.Fatalf("unrelated write behind the provisional fence: %v", err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Migration == nil || st.Migration.Frozen != 0 || st.Migration.Migrated == 0 {
		t.Fatalf("migration stats = %+v, want zero frozen windows and fenced nodes", st.Migration)
	}

	// The redriven complete lands: despite the provisional fence already
	// covering every node at this map epoch, the marker must hit the
	// journal — Durable reports it did.
	cr, err := c.MigrateComplete(ctx, server.MigrateCompleteRequest{
		Migration: 7, Epoch: 1, MapEpoch: 3, To: "beta", Nodes: []string{"a", "b", "c"},
	})
	if err != nil || !cr.OK || !cr.Durable {
		t.Fatalf("redriven complete = (%+v, %v), want a journaled marker", cr, err)
	}

	// And because it did, a restarted source still refuses stale writers.
	s.Kill()
	s2, _, err := server.New(server.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	c2 := client.New(ts2.URL)
	c2.MaxRetries = 0
	_, werr := c2.Assert(ctx, "a", "e", 9, "stale write after restart")
	if !errors.As(werr, &ae) || ae.Status != http.StatusForbidden || ae.Detail().NewOwner != "beta" {
		t.Fatalf("stale write after source restart = %v, want 403 with the new-owner hint", werr)
	}
}

// TestFreezeAndPrepareWindowsExcludeEachOther: a migration freeze and a
// 2PC prepare reservation over one class must never coexist — a
// committed bridge edge applied after the class flips away would be
// permanently fenced. Both sides install first and re-check second, so
// whichever window arrives second backs out with a retryable 503.
func TestFreezeAndPrepareWindowsExcludeEachOther(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{Dir: t.TempDir()})
	c.MaxRetries = 0
	ctx := context.Background()

	if _, err := c.Assert(ctx, "a", "b", 1, "seed"); err != nil {
		t.Fatal(err)
	}

	// Prepare first: a freeze over the reserved class is refused and
	// holds nothing.
	if _, err := c.Prepare(ctx, server.PrepareRequest{
		Intent: 1, Epoch: 1, N: "b", M: "remote", Label: 5, TTLMillis: 60_000,
	}); err != nil {
		t.Fatalf("prepare: %v", err)
	}
	_, err := c.MigrateFreeze(ctx, server.MigrateFreezeRequest{
		Migration: 3, Epoch: 1, Class: "a", TTLMillis: 60_000,
	})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("freeze during the prepare window = %v, want retryable 503", err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Migration != nil && st.Migration.Frozen != 0 {
		t.Fatalf("refused freeze left a window held: %+v", st.Migration)
	}
	// The reservation still clears normally via its tagged bridge assert.
	if _, err := c.Assert(ctx, "b", "remote", 5, server.FormatIntentTag(1, 1)); err != nil {
		t.Fatalf("bridge assert after refused freeze: %v", err)
	}

	// Freeze first: a prepare over the frozen class is refused and holds
	// nothing.
	if _, err := c.MigrateFreeze(ctx, server.MigrateFreezeRequest{
		Migration: 4, Epoch: 2, Class: "a", TTLMillis: 60_000,
	}); err != nil {
		t.Fatalf("freeze: %v", err)
	}
	_, err = c.Prepare(ctx, server.PrepareRequest{
		Intent: 2, Epoch: 1, N: "fresh", M: "a", Label: 7, TTLMillis: 60_000,
	})
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("prepare during the freeze window = %v, want retryable 503", err)
	}
	if st, err = c.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if st.TwoPhase == nil || st.TwoPhase.Reserved != 0 {
		t.Fatalf("refused prepare left a reservation held: %+v", st.TwoPhase)
	}
	// Thawing the freeze reopens the prepare path.
	if _, err := c.MigrateRelease(ctx, server.MigrateReleaseRequest{Migration: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Prepare(ctx, server.PrepareRequest{
		Intent: 3, Epoch: 1, N: "fresh", M: "a", Label: 7, TTLMillis: 60_000,
	}); err != nil {
		t.Fatalf("prepare after thaw: %v", err)
	}
}

// TestBatchAssertValidatesBeforeLiftingFence: a batch that pairs a
// migration-tagged item (which would lift a moved fence) with a
// malformed item is refused with 400 before any side effect — the
// fence stays up and no lift marker is journaled, so a plain write to
// the moved node is still refused 403 with the new-owner hint, also
// after a restart.
func TestBatchAssertValidatesBeforeLiftingFence(t *testing.T) {
	dir := t.TempDir()
	s, _, c := newTestServer(t, server.Config{Dir: dir})
	c.MaxRetries = 0
	ctx := context.Background()

	if _, err := c.Assert(ctx, "a", "b", 1, "seed"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MigrateComplete(ctx, server.MigrateCompleteRequest{
		Migration: 7, Epoch: 1, MapEpoch: 3, To: "beta", Nodes: []string{"a", "b"},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := c.BatchAssert(ctx, []server.AssertRequest{
		{N: "a", M: "b", Label: 1, Reason: server.FormatMigrateTag(8, 1) + " copy"},
		{N: "x", M: "", Label: 2},
	})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("batch with an empty node = %v, want 400", err)
	}
	fenced := func(c *client.Client, when string) {
		t.Helper()
		_, err := c.Assert(ctx, "a", "c", 4, "stale write")
		if !errors.As(err, &ae) || ae.Status != http.StatusForbidden || ae.Detail().NewOwner != "beta" {
			t.Fatalf("plain write to the moved node %s = %v, want 403 with the new-owner hint", when, err)
		}
	}
	fenced(c, "after the refused batch")

	s.Kill()
	s2, _, err := server.New(server.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	c2 := client.New(ts2.URL)
	c2.MaxRetries = 0
	fenced(c2, "after a restart")
}

// TestMigrateForgedFenceMarkerRefused: fence markers are written only
// by the server, and a restart replays every one it finds, so the
// client write path refuses anything that could pass for one: a reason
// with a marker prefix, or a node in the markers' namespace. Otherwise
// one forged moved marker on an unrelated pair would, after a restart,
// 403 every write to the nodes it names.
func TestMigrateForgedFenceMarkerRefused(t *testing.T) {
	dir := t.TempDir()
	s, _, c := newTestServer(t, server.Config{Dir: dir})
	c.MaxRetries = 0
	ctx := context.Background()

	forged := []server.AssertRequest{
		{N: "p", M: "q", Label: 1, Reason: server.MovedMarkerPrefix + `{"migration":1,"epoch":0,"map_epoch":1,"to":"elsewhere","nodes":["alice"]}`},
		{N: "p", M: "q", Label: 1, Reason: server.LiftMarkerPrefix + `{"migration":1,"epoch":0,"node":"alice"}`},
		{N: server.MovedMarkerNode + "1@e0", M: "q", Label: 0, Reason: "forged"},
		{N: "p", M: server.LiftMarkerNode + "1@e0:alice:b", Label: 0, Reason: "forged"},
	}
	var ae *client.APIError
	for _, a := range forged {
		_, err := c.Assert(ctx, a.N, a.M, a.Label, a.Reason)
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Fatalf("assert %+v = %v, want 400", a, err)
		}
		_, err = c.BatchAssert(ctx, []server.AssertRequest{{N: "x", M: "y", Label: 1}, a})
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Fatalf("batch carrying %+v = %v, want 400", a, err)
		}
	}
	if _, related, err := c.Relation(ctx, "x", "y"); err != nil || related {
		t.Fatalf("refused batch applied its valid item: related=%v err=%v", related, err)
	}

	s.Kill()
	_, _, c2 := newTestServer(t, server.Config{Dir: dir})
	c2.MaxRetries = 0
	if _, err := c2.Assert(ctx, "alice", "bob", 1, "after restart"); err != nil {
		t.Fatalf("write to alice after restart: %v", err)
	}
}

// TestMigrationFenceLiftsCommitWithWrite: a copy-stream write that lifts
// k moved-fences journals its k lift markers in the write's own commit,
// one fsync in all. The injector fails the fourth fsync after start-up:
// the seed and the complete take the first two, so a write paying one
// fsync per lift would hit it and answer 500. The lifts are durable: a
// restarted node still accepts writes to the class.
func TestMigrationFenceLiftsCommitWithWrite(t *testing.T) {
	dir := t.TempDir()
	s, _, c := newTestServer(t, server.Config{Dir: dir, Inject: &fault.Injector{FailSyncAt: 4}})
	c.MaxRetries = 0
	ctx := context.Background()

	if _, err := c.Assert(ctx, "a", "b", 1, "seed"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MigrateComplete(ctx, server.MigrateCompleteRequest{
		Migration: 7, Epoch: 1, MapEpoch: 3, To: "beta", Nodes: []string{"a", "b"},
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.BatchAssert(ctx, []server.AssertRequest{
		{N: "a", M: "b", Label: 1, Reason: server.FormatMigrateTag(8, 1) + " seed"},
	})
	if err != nil || !resp.Results[0].OK {
		t.Fatalf("copy write lifting two fences = (%+v, %v), want accepted with one fsync", resp, err)
	}

	s.Kill()
	_, _, c2 := newTestServer(t, server.Config{Dir: dir})
	c2.MaxRetries = 0
	if _, err := c2.Assert(ctx, "a", "c", 2, "after restart"); err != nil {
		t.Fatalf("write to the class after restart: %v (lift markers not journaled)", err)
	}
}

// TestMigrationGateRefusalStillJournalsLifts: a batch whose copy-stream
// item lifts fences and whose later item the gate refuses answers the
// refusal, but the lifts already made are live, so they reach the
// journal first: after a restart the lifted class stays writable and
// the refused item's class stays fenced.
func TestMigrationGateRefusalStillJournalsLifts(t *testing.T) {
	dir := t.TempDir()
	s, _, c := newTestServer(t, server.Config{Dir: dir})
	c.MaxRetries = 0
	ctx := context.Background()

	if _, err := c.BatchAssert(ctx, []server.AssertRequest{{N: "a", M: "b", Label: 1}, {N: "c", M: "d", Label: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.MigrateComplete(ctx, server.MigrateCompleteRequest{
		Migration: 7, Epoch: 1, MapEpoch: 3, To: "beta", Nodes: []string{"a", "b", "c", "d"},
	}); err != nil {
		t.Fatal(err)
	}
	_, err := c.BatchAssert(ctx, []server.AssertRequest{
		{N: "a", M: "b", Label: 1, Reason: server.FormatMigrateTag(8, 1)},
		{N: "c", M: "e", Label: 1, Reason: "stale"},
	})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusForbidden {
		t.Fatalf("batch with a stale item = %v, want 403", err)
	}

	s.Kill()
	_, _, c2 := newTestServer(t, server.Config{Dir: dir})
	c2.MaxRetries = 0
	if _, err := c2.Assert(ctx, "a", "f", 2, "after restart"); err != nil {
		t.Fatalf("write to the lifted class after restart: %v", err)
	}
	if _, err := c2.Assert(ctx, "c", "f", 2, "after restart"); !errors.As(err, &ae) || ae.Status != http.StatusForbidden {
		t.Fatalf("write to the still-fenced class after restart = %v, want 403", err)
	}
}

// TestMigrateSliceRejectsMalformedCursor: the slice cursor and window
// size are decimal integers; trailing garbage is refused with 400, not
// read as its numeric prefix.
func TestMigrateSliceRejectsMalformedCursor(t *testing.T) {
	_, ts, c := newTestServer(t, server.Config{Dir: t.TempDir()})
	if _, err := c.Assert(context.Background(), "a", "b", 1, "seed"); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query string
		want  int
	}{
		{"after=0&limit=1", http.StatusOK},
		{"after=5abc", http.StatusBadRequest},
		{"after=-1", http.StatusBadRequest},
		{"after=1.5", http.StatusBadRequest},
		{"limit=3x", http.StatusBadRequest},
		{"limit=0", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + server.SlicePath + "?class=a&" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("slice ?%s: status %d, want %d", tc.query, resp.StatusCode, tc.want)
		}
	}
}
