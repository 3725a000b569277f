package server_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"luf/internal/client"
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
