package replica

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"luf/internal/wal"
)

// TestWatermarkAcksDuplicateAndReordered drives observeAck directly
// with the delivery patterns pipelining produces: acknowledgements
// arriving out of order (a batch posted earlier resolving after a
// later one) and duplicated deliveries re-reporting an older durable
// position. The recorded watermark must be max-monotone — it never
// regresses — and WaitAcked must resolve off the highest watermark
// seen, regardless of arrival order.
func TestWatermarkAcksDuplicateAndReordered(t *testing.T) {
	p := primary(t, consistentEntries(10, 21))
	peer := Peer{Name: "f", URL: "http://unused.test"}
	sh := shipperFor(p, []Peer{peer}, nil, nil, nil)
	// Never Start()ed: observeAck is exercised directly.

	sh.observeAck(peer, Ack{Durable: 5})
	if got := sh.Status()["f"].Acked; got != 5 {
		t.Fatalf("acked = %d after first ack, want 5", got)
	}
	// A reordered (older) watermark arrives late: absorbed, no regress.
	sh.observeAck(peer, Ack{Durable: 3})
	if got := sh.Status()["f"].Acked; got != 5 {
		t.Fatalf("acked = %d after reordered older ack, want 5 (watermark regressed)", got)
	}
	// An exact duplicate: absorbed.
	sh.observeAck(peer, Ack{Durable: 5})
	if got := sh.Status()["f"].Acked; got != 5 {
		t.Fatalf("acked = %d after duplicate ack, want 5", got)
	}
	// Progress still moves the watermark forward.
	sh.observeAck(peer, Ack{Durable: 9})
	if got := sh.Status()["f"].Acked; got != 9 {
		t.Fatalf("acked = %d after newer ack, want 9", got)
	}
	// WaitAcked resolves against the watermark without any peer loop.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := sh.WaitAcked(ctx, 9); err != nil {
		t.Fatalf("WaitAcked(9) with watermark 9: %v", err)
	}
}

// TestFollowerCrashBetweenApplyAndAck covers the ack-loss window
// pipelining widens: the follower applies and fsyncs a batch, then
// "crashes" before its acknowledgement reaches the primary. The
// primary must collapse the pipeline, re-probe the follower's durable
// position, resume from what the follower actually holds — and the
// writes whose acks were lost must end up acknowledged without being
// double-applied.
func TestFollowerCrashBetweenApplyAndAck(t *testing.T) {
	entries := consistentEntries(30, 22)
	p := primary(t, entries)
	f := newNode(t, t.TempDir(), wal.Options{})

	// Proxy handler: the real applier runs (the batch becomes durable),
	// but the first two data-batch acknowledgements are swallowed and
	// replaced with a transport-level failure.
	var swallow atomic.Int32
	swallow.Store(2)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := ReadBatch(r.Header, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		ack, err := f.applier.Apply(b)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if b.Count > 0 && swallow.Add(-1) >= 0 {
			http.Error(w, "follower crashed before acking", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(ack)
	}))
	defer proxy.Close()

	sh := NewShipper(Config[string, int64]{
		Store: p, Self: "p", Advertise: "http://primary.test",
		Peers:    []Peer{{Name: "f", URL: proxy.URL}},
		Interval: 2 * time.Millisecond,
		BatchMax: 8, // several batches, so losses hit mid-stream
	})
	sh.Start()
	defer sh.Stop()

	// Every record — including those whose original acks were lost —
	// must become acknowledged via the re-probed watermark.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sh.WaitAcked(ctx, p.LastSeq()); err != nil {
		t.Fatalf("WaitAcked after lost acks: %v", err)
	}
	if swallow.Load() > 0 {
		t.Fatalf("premise failed: only %d of 2 acks were swallowed", 2-swallow.Load())
	}
	// No duplicate application: exactly one record per shipped entry.
	if got := len(f.store.Entries()); got != len(entries) {
		t.Fatalf("follower holds %d records, want %d (duplicated or lost applies)", got, len(entries))
	}
	verifyFollower(t, f, entries)
	// The cumulative watermark can reach LastSeq while earlier posts'
	// results are still being collected; wait for the pipeline to drain.
	waitFor(t, "drained pipeline", func() bool { return sh.Status()["f"].InFlight == 0 })
	if st := sh.Status()["f"]; st.Acked != p.LastSeq() || st.InFlight != 0 {
		t.Fatalf("status = %+v, want acked %d with an empty pipeline", st, p.LastSeq())
	}
}

// TestPipelinedStreamDeliversAll forces a deep pipeline (small batches,
// slow follower) and verifies the optimistic send window delivers the
// whole journal exactly once, with the cumulative watermark resolving
// batches that were in flight concurrently.
func TestPipelinedStreamDeliversAll(t *testing.T) {
	entries := consistentEntries(120, 23)
	p := primary(t, entries)
	f := newNode(t, t.TempDir(), wal.Options{})

	// Delay each apply a little so several batches are genuinely in
	// flight at once.
	var maxInFlight atomic.Int32
	var cur atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := cur.Add(1)
		defer cur.Add(-1)
		for {
			old := maxInFlight.Load()
			if n <= old || maxInFlight.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(3 * time.Millisecond)
		f.handleReplicate(w, r)
	}))
	defer proxy.Close()

	sh := NewShipper(Config[string, int64]{
		Store: p, Self: "p", Advertise: "http://primary.test",
		Peers:         []Peer{{Name: "f", URL: proxy.URL}},
		Interval:      2 * time.Millisecond,
		BatchMax:      8,
		PipelineDepth: 4,
	})
	sh.Start()
	defer sh.Stop()

	waitFor(t, "pipelined delivery", func() bool { return f.store.LastSeq() == p.LastSeq() })
	if got := len(f.store.Entries()); got != len(entries) {
		t.Fatalf("follower holds %d records, want %d", got, len(entries))
	}
	verifyFollower(t, f, entries)
	if got := maxInFlight.Load(); got < 2 {
		t.Fatalf("max concurrent batches = %d; the pipeline never overlapped", got)
	}
}

// TestPipelineDepthOneIsStopAndWait pins the compatibility knob:
// depth 1 must still replicate correctly (it reproduces the
// pre-pipelining protocol) and must never have two batches in flight.
func TestPipelineDepthOneIsStopAndWait(t *testing.T) {
	entries := consistentEntries(60, 24)
	p := primary(t, entries)
	f := newNode(t, t.TempDir(), wal.Options{})

	var overlapped atomic.Bool
	var cur atomic.Int32
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if cur.Add(1) > 1 {
			overlapped.Store(true)
		}
		defer cur.Add(-1)
		f.handleReplicate(w, r)
	}))
	defer proxy.Close()

	sh := NewShipper(Config[string, int64]{
		Store: p, Self: "p", Advertise: "http://primary.test",
		Peers:         []Peer{{Name: "f", URL: proxy.URL}},
		Interval:      2 * time.Millisecond,
		BatchMax:      8,
		PipelineDepth: 1,
	})
	if got := sh.PipelineDepth(); got != 1 {
		t.Fatalf("PipelineDepth() = %d, want 1", got)
	}
	sh.Start()
	defer sh.Stop()
	waitFor(t, "stop-and-wait delivery", func() bool { return f.store.LastSeq() == p.LastSeq() })
	verifyFollower(t, f, entries)
	if overlapped.Load() {
		t.Fatal("depth-1 shipper had two batches in flight")
	}
}

// TestApplierWaitsForPipelineGap covers out-of-order arrival inside
// the pipeline window: a successor batch arriving before its
// predecessor must wait (up to WaitGap) for the anchor instead of
// refusing, and then apply cleanly.
func TestApplierWaitsForPipelineGap(t *testing.T) {
	entries := consistentEntries(16, 25)
	p := primary(t, entries)
	f := newNode(t, t.TempDir(), wal.Options{})
	f.applier.WaitGap = time.Second

	recs := p.RecordsSince(0, 0)
	first, second := recs[:8], recs[8:]

	// Deliver the second batch first, from its own goroutine: it must
	// block awaiting its anchor, not refuse.
	type applyResult struct {
		ack Ack
		err error
	}
	done := make(chan applyResult, 1)
	go func() {
		anchor, _ := p.RecordAt(second[0].Seq - 1)
		ack, err := f.applier.Apply(Batch{
			PrevSeq: second[0].Seq - 1,
			PrevCRC: wal.RecordCRC(p.Codec(), anchor),
			Count:   len(second),
			Frames:  wal.EncodeFrames(p.Codec(), second),
		})
		done <- applyResult{ack, err}
	}()

	select {
	case r := <-done:
		t.Fatalf("successor batch applied before its predecessor: ack=%+v err=%v", r.ack, r.err)
	case <-time.After(50 * time.Millisecond):
		// Still waiting on the anchor — as it must be.
	}

	if _, err := f.applier.Apply(Batch{Count: len(first), Frames: wal.EncodeFrames(p.Codec(), first)}); err != nil {
		t.Fatalf("predecessor batch: %v", err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("successor batch after anchor arrived: %v", r.err)
		}
		if r.ack.Durable != p.LastSeq() {
			t.Fatalf("successor ack durable = %d, want %d", r.ack.Durable, p.LastSeq())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("successor batch never applied after its anchor arrived")
	}
	verifyFollower(t, f, entries)
}

// TestApplierGapTimeoutRefuses pins the other side of the gap wait: a
// batch whose predecessor never arrives is refused with the precise
// anchor error once WaitGap expires, so a lost batch cannot wedge the
// follower forever.
func TestApplierGapTimeoutRefuses(t *testing.T) {
	entries := consistentEntries(16, 26)
	p := primary(t, entries)
	f := newNode(t, t.TempDir(), wal.Options{})
	f.applier.WaitGap = 30 * time.Millisecond

	recs := p.RecordsSince(0, 0)
	second := recs[8:]
	anchor, _ := p.RecordAt(second[0].Seq - 1)
	t0 := time.Now()
	_, err := f.applier.Apply(Batch{
		PrevSeq: second[0].Seq - 1,
		PrevCRC: wal.RecordCRC(p.Codec(), anchor),
		Count:   len(second),
		Frames:  wal.EncodeFrames(p.Codec(), second),
	})
	if err == nil {
		t.Fatal("gapped batch applied without its anchor")
	}
	if waited := time.Since(t0); waited < 25*time.Millisecond {
		t.Fatalf("refused after %v, before the WaitGap elapsed", waited)
	}
	if f.store.LastSeq() != 0 {
		t.Fatalf("refused gapped batch advanced the follower to %d", f.store.LastSeq())
	}
}
