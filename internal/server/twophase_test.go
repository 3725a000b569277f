package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"luf/internal/client"
	"luf/internal/server"
)

// jsonBody marshals v for a raw HTTP request body.
func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

// writeJSONTest writes v as a 200 JSON response from a stub handler.
func writeJSONTest(t *testing.T, w http.ResponseWriter, v any) {
	t.Helper()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		t.Error(err)
	}
}

// TestIntentTagRoundTrip: the bridge-edge reason tag survives a
// format/parse round trip, with and without a trailing user reason,
// and untagged reasons parse as such.
func TestIntentTagRoundTrip(t *testing.T) {
	tag := server.FormatIntentTag(42, 7)
	for _, reason := range []string{tag, tag + " user says so"} {
		id, epoch, ok := server.ParseIntentTag(reason)
		if !ok || id != 42 || epoch != 7 {
			t.Fatalf("ParseIntentTag(%q) = (%d, %d, %v), want (42, 7, true)", reason, id, epoch, ok)
		}
	}
	for _, reason := range []string{"", "ordinary reason", "xshard#garbage"} {
		if _, _, ok := server.ParseIntentTag(reason); ok {
			t.Fatalf("ParseIntentTag(%q) unexpectedly parsed", reason)
		}
	}
}

// TestTagParseStrict: intent and migration tags parse only in the exact
// form the formatters write, so a reason with trailing bytes, a sign, a
// second epoch or a missing number stays untagged.
func TestTagParseStrict(t *testing.T) {
	for _, parse := range []struct {
		prefix string
		fn     func(string) (uint64, uint64, bool)
	}{
		{server.IntentTagPrefix, server.ParseIntentTag},
		{server.MigrateTagPrefix, server.ParseMigrateTag},
	} {
		for _, tag := range []string{"5@e1abc", "+5@e1", "5@e1@e2", "5@e", "@e1", "5@e+1", "5@e-1", "5"} {
			if id, epoch, ok := parse.fn(parse.prefix + tag); ok {
				t.Errorf("%q parsed as (%d, %d)", parse.prefix+tag, id, epoch)
			}
		}
		if id, epoch, ok := parse.fn(parse.prefix + "5@e1 reason"); !ok || id != 5 || epoch != 1 {
			t.Errorf("%q = (%d, %d, %v), want (5, 1, true)", parse.prefix+"5@e1 reason", id, epoch, ok)
		}
	}
}

// TestPrepareReservationGatesClientWrites: a yes vote holds the prepare
// window — ordinary client writes are shed with a retryable 503 (and a
// Retry-After header) until the coordinator's tagged bridge assert
// lands, which clears the reservation and reopens the write path.
func TestPrepareReservationGatesClientWrites(t *testing.T) {
	_, ts, c := newTestServer(t, server.Config{Dir: t.TempDir()})
	ctx := context.Background()

	if _, err := c.Prepare(ctx, server.PrepareRequest{
		Intent: 1, Epoch: 1, N: "a", M: "b", Label: 5, TTLMillis: 60_000,
	}); err != nil {
		t.Fatalf("prepare: %v", err)
	}

	// An untagged write inside the window is refused 503; use a raw
	// request so the client's own retry loop doesn't mask the refusal.
	resp, err := http.Post(ts.URL+"/v1/assert", "application/json",
		jsonBody(t, server.AssertRequest{N: "p", M: "q", Label: 1, Reason: "client write"}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("untagged assert inside prepare window: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 inside prepare window must carry Retry-After")
	}

	// The coordinator's tagged bridge assert passes the gate and clears
	// the reservation.
	if _, err := c.Assert(ctx, "a", "b", 5, server.FormatIntentTag(1, 1)); err != nil {
		t.Fatalf("tagged bridge assert: %v", err)
	}
	if _, err := c.Assert(ctx, "p", "q", 1, "client write after"); err != nil {
		t.Fatalf("untagged assert after window cleared: %v", err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TwoPhase == nil || st.TwoPhase.Prepared != 1 || st.TwoPhase.Reserved != 0 {
		t.Fatalf("two-phase stats = %+v, want prepared 1, reserved 0", st.TwoPhase)
	}
}

// TestPrepareConflictVotesNoWithCert: an existing contradicting
// relation makes prepare vote no — a 409 carrying the machine-checkable
// conflict certificate — and holds no reservation afterwards.
func TestPrepareConflictVotesNoWithCert(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{Dir: t.TempDir()})
	ctx := context.Background()

	if _, err := c.Assert(ctx, "x", "y", 3, "truth"); err != nil {
		t.Fatal(err)
	}
	_, err := c.Prepare(ctx, server.PrepareRequest{Intent: 2, Epoch: 1, N: "x", M: "y", Label: 8})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.HTTPStatus() != http.StatusConflict {
		t.Fatalf("conflicting prepare: %v, want 409", err)
	}
	if apiErr.Detail().ConflictCert == nil {
		t.Fatal("no vote must carry the conflict certificate")
	}
	// No reservation held: an ordinary write sails through.
	if _, err := c.Assert(ctx, "p", "q", 1, "after no vote"); err != nil {
		t.Fatalf("write after no vote: %v", err)
	}
}

// TestStaleCoordinatorEpochFenced: once a participant has seen epoch E,
// prepares and tagged bridge asserts from any lower epoch are rejected
// 403 — a zombie coordinator cannot finish a round its successor
// superseded.
func TestStaleCoordinatorEpochFenced(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{Dir: t.TempDir()})
	ctx := context.Background()

	if _, err := c.Prepare(ctx, server.PrepareRequest{Intent: 3, Epoch: 5, N: "a", M: "b", Label: 1, TTLMillis: 60_000}); err != nil {
		t.Fatalf("prepare@5: %v", err)
	}
	_, err := c.Prepare(ctx, server.PrepareRequest{Intent: 4, Epoch: 4, N: "c", M: "d", Label: 1})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.HTTPStatus() != http.StatusForbidden {
		t.Fatalf("stale-epoch prepare: %v, want 403", err)
	}
	// A zombie's bridge assert is fenced too.
	_, err = c.Assert(ctx, "a", "b", 1, server.FormatIntentTag(3, 4))
	if !errors.As(err, &apiErr) || apiErr.HTTPStatus() != http.StatusForbidden {
		t.Fatalf("stale-epoch bridge assert: %v, want 403", err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TwoPhase == nil || st.TwoPhase.Fenced != 2 || st.TwoPhase.MaxEpoch != 5 {
		t.Fatalf("two-phase stats = %+v, want fenced 2, max epoch 5", st.TwoPhase)
	}
}

// TestReservationLapseProbesCoordinatorAndAborts: when the reservation
// TTL lapses and the coordinator reports the intent aborted (here: a
// stub coordinator), the participant releases the window on its own —
// a coordinator crash cannot wedge the write path.
func TestReservationLapseProbesCoordinatorAndAborts(t *testing.T) {
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSONTest(t, w, server.IntentStatusResponse{Intent: 9, State: "aborted", Epoch: 1})
	}))
	defer coord.Close()

	_, _, c := newTestServer(t, server.Config{Dir: t.TempDir()})
	ctx := context.Background()
	if _, err := c.Prepare(ctx, server.PrepareRequest{
		Intent: 9, Epoch: 1, N: "a", M: "b", Label: 5,
		Coordinator: coord.URL, TTLMillis: 30,
	}); err != nil {
		t.Fatalf("prepare: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.TwoPhase != nil && st.TwoPhase.Reserved == 0 && st.TwoPhase.Expired == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reservation never expired: %+v", st.TwoPhase)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := c.Assert(ctx, "p", "q", 1, "after presumed abort"); err != nil {
		t.Fatalf("write after presumed abort: %v", err)
	}
}

// TestAbortEndpointReleasesReservation: the abort endpoint (coordinator
// rollback, or the operator escape hatch from OPERATIONS.md) releases a
// held reservation idempotently.
func TestAbortEndpointReleasesReservation(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{Dir: t.TempDir()})
	ctx := context.Background()

	if _, err := c.Prepare(ctx, server.PrepareRequest{Intent: 11, Epoch: 1, N: "a", M: "b", Label: 5, TTLMillis: 60_000}); err != nil {
		t.Fatal(err)
	}
	ab, err := c.Abort(ctx, server.AbortRequest{Intent: 11})
	if err != nil || !ab.Released {
		t.Fatalf("abort = (%+v, %v), want released", ab, err)
	}
	ab, err = c.Abort(ctx, server.AbortRequest{Intent: 11})
	if err != nil || ab.Released {
		t.Fatalf("second abort = (%+v, %v), want idempotent not-released", ab, err)
	}
	if _, err := c.Assert(ctx, "p", "q", 1, "after abort"); err != nil {
		t.Fatalf("write after abort: %v", err)
	}
}

// TestBatchAssertGatedByPrepareWindow: the batch write path honors the
// same reservation gate as single asserts.
func TestBatchAssertGatedByPrepareWindow(t *testing.T) {
	_, ts, c := newTestServer(t, server.Config{Dir: t.TempDir()})
	ctx := context.Background()

	if _, err := c.Prepare(ctx, server.PrepareRequest{Intent: 13, Epoch: 1, N: "a", M: "b", Label: 5, TTLMillis: 60_000}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/batch/assert", "application/json",
		jsonBody(t, server.BatchAssertRequest{Asserts: []server.AssertRequest{{N: "p", M: "q", Label: 1}}}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("batch assert inside prepare window: status %d, want 503", resp.StatusCode)
	}
	if _, err := c.Abort(ctx, server.AbortRequest{Intent: 13}); err != nil {
		t.Fatal(err)
	}
}

// TestEpochFenceSurvivesRestart: the zombie-coordinator fence is not an
// in-memory nicety — a restarted participant recovers the highest
// coordinator epoch from the intent tags its journal carries and keeps
// fencing stale coordinators.
func TestEpochFenceSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	s1, _, c := newTestServer(t, server.Config{Dir: dir})
	if _, err := c.Assert(ctx, "a", "b", 5, server.FormatIntentTag(7, 9)); err != nil {
		t.Fatalf("tagged bridge assert: %v", err)
	}
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	_, _, c2 := newTestServer(t, server.Config{Dir: dir})
	_, err := c2.Prepare(ctx, server.PrepareRequest{Intent: 8, Epoch: 8, N: "c", M: "d", Label: 1})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.HTTPStatus() != http.StatusForbidden {
		t.Fatalf("stale-epoch prepare after restart: %v, want 403", err)
	}
	if _, err := c2.Prepare(ctx, server.PrepareRequest{Intent: 8, Epoch: 9, N: "c", M: "d", Label: 1, TTLMillis: 50}); err != nil {
		t.Fatalf("current-epoch prepare after restart: %v", err)
	}
	st, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TwoPhase == nil || st.TwoPhase.MaxEpoch != 9 || st.TwoPhase.Fenced != 1 {
		t.Fatalf("2pc stats after restart: %+v", st.TwoPhase)
	}
}

// TestEpochFenceSurvivesFailover: a follower applies tagged bridge
// edges through replication, never through its own write gate; on
// promotion it restores the 2PC epoch fence from the journal, so the
// replication fence (against stale primaries) and the 2PC epoch fence
// (against stale coordinators) travel together through a failover.
func TestEpochFenceSurvivesFailover(t *testing.T) {
	p, f, pURL, fURL := newPair(t, server.Config{}, server.Config{})
	ctx := context.Background()
	c := client.New(pURL)
	if _, err := c.Assert(ctx, "a", "b", 5, server.FormatIntentTag(7, 9)); err != nil {
		t.Fatalf("tagged bridge assert on primary: %v", err)
	}
	waitUntil(t, "tagged edge replicated", func() bool { return f.Store().LastSeq() == p.Store().LastSeq() })

	if err := f.Promote(1); err != nil {
		t.Fatalf("promote: %v", err)
	}
	fc := client.New(fURL)
	_, err := fc.Assert(ctx, "c", "d", 1, server.FormatIntentTag(8, 8))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.HTTPStatus() != http.StatusForbidden {
		t.Fatalf("stale-epoch bridge assert on promoted follower: %v, want 403", err)
	}
	if _, err := fc.Assert(ctx, "c", "d", 1, server.FormatIntentTag(8, 9)); err != nil {
		t.Fatalf("current-epoch bridge assert on promoted follower: %v", err)
	}
}

// TestPrepareWindowReleasedByBatchBridge: a decided bridge edge applied
// through /v1/batch/assert ends its prepare window exactly as one
// applied through /v1/assert does, so untagged client writes are
// accepted again at once instead of 503-stalling until the TTL probe
// gives up.
func TestPrepareWindowReleasedByBatchBridge(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{Dir: t.TempDir()})
	c.MaxRetries = 0
	ctx := context.Background()

	if _, err := c.Prepare(ctx, server.PrepareRequest{Intent: 5, Epoch: 1, N: "a", M: "remote", Label: 5, TTLMillis: 60_000}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.BatchAssert(ctx, []server.AssertRequest{{N: "a", M: "remote", Label: 5, Reason: server.FormatIntentTag(5, 1)}})
	if err != nil || !resp.Results[0].OK {
		t.Fatalf("batch bridge assert = (%+v, %v), want accepted", resp, err)
	}
	if _, err := c.Assert(ctx, "x", "y", 1, "after the bridge"); err != nil {
		t.Fatalf("untagged write after the batch-applied bridge edge: %v", err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.TwoPhase == nil || st.TwoPhase.Reserved != 0 {
		t.Fatalf("2pc stats after the bridge edge = %+v, want no reservation held", st.TwoPhase)
	}
}
