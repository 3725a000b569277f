package replica

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"luf/internal/cert"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/wal"
)

// consistentEntries builds n assertions over string nodes that are
// mutually consistent by construction (each node carries a hidden
// value; every assertion states a value difference).
func consistentEntries(n int, seed int64) []cert.Entry[string, int64] {
	rng := rand.New(rand.NewSource(seed))
	nodes := n/2 + 2
	vals := make([]int64, nodes)
	for i := range vals {
		vals[i] = int64(rng.Intn(2000) - 1000)
	}
	name := func(i int) string { return "n" + strconv.Itoa(i) }
	var out []cert.Entry[string, int64]
	for i := 0; i+1 < nodes && len(out) < n; i++ {
		out = append(out, cert.Entry[string, int64]{
			N: name(i), M: name(i + 1), Label: vals[i+1] - vals[i], Reason: "chain-" + name(i),
		})
	}
	for len(out) < n {
		a, b := rng.Intn(nodes), rng.Intn(nodes)
		out = append(out, cert.Entry[string, int64]{
			N: name(a), M: name(b), Label: vals[b] - vals[a], Reason: "cross",
		})
	}
	return out
}

// node is a test follower: a durable store plus an Applier behind a
// minimal HTTP handler speaking the replication protocol.
type node struct {
	t       *testing.T
	dir     string
	store   *wal.Store[string, int64]
	applier *Applier[string, int64]
	srv     *httptest.Server
}

// newNode opens (or reopens) a follower over dir and serves it.
func newNode(t *testing.T, dir string, opts wal.Options) *node {
	t.Helper()
	store, rec, err := wal.Open(dir, group.Delta{}, wal.DeltaCodec{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	n := &node{t: t, dir: dir, store: store, applier: &Applier[string, int64]{
		G: group.Delta{}, UF: rec.UF, Journal: rec.Journal, Store: store,
	}}
	n.srv = httptest.NewServer(http.HandlerFunc(n.handleReplicate))
	t.Cleanup(func() {
		n.srv.Close()
		n.store.Close()
	})
	return n
}

// handleReplicate decodes the protocol headers, applies the batch, and
// writes the acknowledgement or a structured error.
func (n *node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	b, err := ReadBatch(r.Header, r.Body)
	if err == nil {
		var ack Ack
		ack, err = n.applier.Apply(b)
		if err == nil {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"durable":` + strconv.FormatUint(ack.Durable, 10) +
				`,"fence":` + strconv.FormatUint(ack.Fence, 10) + `}`))
			return
		}
	}
	status := http.StatusInternalServerError
	if errors.Is(err, fault.ErrFenced) {
		status = http.StatusForbidden
		w.Header().Set(HeaderFence, strconv.FormatUint(n.store.Fence(), 10))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write([]byte(`{"error":{"kind":"` + fault.StopLabel(err) + `","message":` + strconv.Quote(err.Error()) + `}}`))
}

// primary builds a durable store preloaded with entries, to ship from.
func primary(t *testing.T, entries []cert.Entry[string, int64]) *wal.Store[string, int64] {
	t.Helper()
	store, _, err := wal.Open(t.TempDir(), group.Delta{}, wal.DeltaCodec{}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	for _, e := range entries {
		if _, err := store.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	return store
}

// waitFor polls cond until true or the deadline, failing the test on
// timeout.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// verifyFollower checks the follower's store answers every entry and
// rebuilds certified.
func verifyFollower(t *testing.T, n *node, entries []cert.Entry[string, int64]) {
	t.Helper()
	g := group.Delta{}
	for _, e := range entries {
		ans, ok := n.applier.UF.GetRelation(e.N, e.M)
		if !ok || ans != e.Label {
			t.Fatalf("follower answers (%v,%d) for %s->%s, want (true,%d)", ok, ans, e.N, e.M, e.Label)
		}
	}
	if _, _, err := wal.Rebuild(g, n.store.Entries()); err != nil {
		t.Fatalf("certified rebuild of follower entries failed: %v", err)
	}
}

func shipperFor(store *wal.Store[string, int64], peers []Peer, lease *Lease, net *fault.Network, onFenced func(uint64)) *Shipper[string, int64] {
	return NewShipper(Config[string, int64]{
		Store:     store,
		Self:      "p",
		Advertise: "http://primary.test",
		Peers:     peers,
		Lease:     lease,
		Interval:  5 * time.Millisecond,
		Net:       net,
		OnFenced:  onFenced,
	})
}

func TestShipperStreamsAndCatchesUp(t *testing.T) {
	entries := consistentEntries(40, 1)
	p := primary(t, entries[:25])
	f := newNode(t, t.TempDir(), wal.Options{})
	sh := shipperFor(p, []Peer{{Name: "f", URL: f.srv.URL}}, nil, nil, nil)
	sh.Start()
	defer sh.Stop()

	waitFor(t, "steady-state shipping", func() bool { return f.store.LastSeq() == p.LastSeq() })
	// Writes during replication are shipped too.
	for _, e := range entries[25:] {
		if _, err := p.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	sh.Kick()
	waitFor(t, "incremental shipping", func() bool { return f.store.LastSeq() == p.LastSeq() })
	verifyFollower(t, f, entries)
	// The follower's LastSeq catches up before its cumulative ack
	// reaches the shipper; wait for the ack itself.
	waitFor(t, "cumulative ack", func() bool { return sh.Status()["f"].Acked == p.LastSeq() })
	if st := sh.Status()["f"]; st.Err != "" || st.Acked != p.LastSeq() {
		t.Fatalf("status = %+v, want acked %d with no error", st, p.LastSeq())
	}
}

func TestWaitAckedGatesOnFollowerDurability(t *testing.T) {
	entries := consistentEntries(10, 2)
	p := primary(t, entries)
	f := newNode(t, t.TempDir(), wal.Options{})
	sh := shipperFor(p, []Peer{{Name: "f", URL: f.srv.URL}}, nil, nil, nil)
	sh.Start()
	defer sh.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := sh.WaitAcked(ctx, p.LastSeq()); err != nil {
		t.Fatalf("WaitAcked: %v", err)
	}
	if f.store.DurableSeq() < p.LastSeq() {
		t.Fatalf("WaitAcked returned with follower durable at %d < %d", f.store.DurableSeq(), p.LastSeq())
	}
	// A deadline with an unreachable target fails structured, not hangs.
	short, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	err := sh.WaitAcked(short, p.LastSeq()+1000)
	if err == nil || !errors.Is(err, fault.ErrUnavailable) {
		t.Fatalf("WaitAcked past the history = %v, want ErrUnavailable", err)
	}
}

func TestStalePrimaryIsFencedAndDemoted(t *testing.T) {
	entries := consistentEntries(10, 3)
	p := primary(t, entries)
	f := newNode(t, t.TempDir(), wal.Options{})
	// The follower has accepted a newer epoch.
	if err := f.store.SetFence(7); err != nil {
		t.Fatal(err)
	}
	before := f.store.LastSeq()
	fenced := make(chan uint64, 1)
	lease := NewLease(time.Hour)
	sh := shipperFor(p, []Peer{{Name: "f", URL: f.srv.URL}}, lease, nil, func(token uint64) { fenced <- token })
	sh.Start()
	defer sh.Stop()

	select {
	case token := <-fenced:
		if token != 7 {
			t.Fatalf("OnFenced token = %d, want 7", token)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnFenced never called")
	}
	if f.store.LastSeq() != before {
		t.Fatalf("fenced primary still shipped records: follower moved %d -> %d", before, f.store.LastSeq())
	}
	if lease.Valid() {
		t.Fatal("lease renewed by a fenced follower")
	}
	// Sync-replication waiters are woken with a fencing error.
	err := sh.WaitAcked(context.Background(), 1)
	if err == nil || !errors.Is(err, fault.ErrFenced) {
		t.Fatalf("WaitAcked on fenced shipper = %v, want ErrFenced", err)
	}
}

func TestDivergentHistoriesRefused(t *testing.T) {
	shared := consistentEntries(8, 4)
	p := primary(t, shared)
	// The follower's history shares a prefix but diverges at the tail:
	// same sequence numbers, different assertions.
	fdir := t.TempDir()
	fStore, _, err := wal.Open(fdir, group.Delta{}, wal.DeltaCodec{}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range shared[:6] {
		if _, err := fStore.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	divergent := cert.Entry[string, int64]{N: "rogue-a", M: "rogue-b", Label: 99, Reason: "divergent"}
	if _, err := fStore.Append(divergent); err != nil {
		t.Fatal(err)
	}
	if err := fStore.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fStore.Close(); err != nil {
		t.Fatal(err)
	}
	f := newNode(t, fdir, wal.Options{})
	before := f.store.LastSeq()

	sh := shipperFor(p, []Peer{{Name: "f", URL: f.srv.URL}}, nil, nil, nil)
	sh.Start()
	defer sh.Stop()
	waitFor(t, "divergence detection", func() bool { return sh.Status()["f"].Err != "" })
	st := sh.Status()["f"]
	if st.Acked >= p.LastSeq() {
		t.Fatalf("divergent follower acked %d — histories were merged", st.Acked)
	}
	if f.store.LastSeq() != before {
		t.Fatalf("divergent follower accepted records: %d -> %d", before, f.store.LastSeq())
	}
}

func TestFollowerRestartCatchUp(t *testing.T) {
	entries := consistentEntries(30, 5)
	p := primary(t, entries[:12])
	fdir := t.TempDir()
	f := newNode(t, fdir, wal.Options{})
	sh := shipperFor(p, []Peer{{Name: "f", URL: f.srv.URL}}, nil, nil, nil)
	sh.Start()
	waitFor(t, "initial shipping", func() bool { return f.store.LastSeq() == p.LastSeq() })
	sh.Stop()
	f.srv.Close()
	if err := f.store.Close(); err != nil {
		t.Fatal(err)
	}

	// While the follower is down the primary keeps accepting writes.
	for _, e := range entries[12:] {
		if _, err := p.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	// The restarted follower reports its durable position and the
	// shipper replays exactly the missing suffix (anti-entropy).
	f2 := newNode(t, fdir, wal.Options{})
	sh2 := shipperFor(p, []Peer{{Name: "f", URL: f2.srv.URL}}, nil, nil, nil)
	sh2.Start()
	defer sh2.Stop()
	waitFor(t, "catch-up", func() bool { return f2.store.LastSeq() == p.LastSeq() })
	verifyFollower(t, f2, entries)
}

func TestHeartbeatRenewsLease(t *testing.T) {
	p := primary(t, consistentEntries(4, 6))
	f := newNode(t, t.TempDir(), wal.Options{})
	lease := NewLease(250 * time.Millisecond)
	if lease.Valid() {
		t.Fatal("fresh lease must start expired")
	}
	sh := shipperFor(p, []Peer{{Name: "f", URL: f.srv.URL}}, lease, nil, nil)
	sh.Start()
	waitFor(t, "lease renewal", lease.Valid)
	// Idle heartbeats keep it alive well past one TTL.
	time.Sleep(400 * time.Millisecond)
	if !lease.Valid() {
		t.Fatal("idle heartbeats failed to keep the lease alive")
	}
	sh.Stop()
	waitFor(t, "lease expiry after stop", func() bool { return !lease.Valid() })
}

func TestApplierRefusesDamage(t *testing.T) {
	entries := consistentEntries(8, 8)
	p := primary(t, entries)
	f := newNode(t, t.TempDir(), wal.Options{})
	recs := p.RecordsSince(0, 0)
	frames := wal.EncodeFrames(p.Codec(), recs)

	// Count mismatch: a truncated-in-transit body cannot pass as a
	// shorter batch.
	if _, err := f.applier.Apply(Batch{Count: len(recs) - 1, Frames: frames}); err == nil || !errors.Is(err, fault.ErrIO) {
		t.Fatalf("count mismatch = %v, want ErrIO", err)
	}
	// Corrupt frames are refused outright.
	bad := make([]byte, len(frames))
	copy(bad, frames)
	bad[len(bad)/2] ^= 0xff
	if _, err := f.applier.Apply(Batch{Count: len(recs), Frames: bad}); err == nil || !errors.Is(err, fault.ErrIO) {
		t.Fatalf("corrupt frames = %v, want ErrIO", err)
	}
	// A batch that skips ahead of the follower's tail is refused.
	tailOnly := wal.EncodeFrames(p.Codec(), recs[4:])
	r, _ := p.RecordAt(recs[4].Seq - 1)
	if _, err := f.applier.Apply(Batch{
		PrevSeq: recs[4].Seq - 1, PrevCRC: wal.RecordCRC(p.Codec(), r), Count: len(recs) - 4, Frames: tailOnly,
	}); err == nil || !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("gapped batch = %v, want ErrInvariantViolated", err)
	}
	// A forged record that breaks consistency is caught by the
	// certified apply, not trusted because the bytes checksum.
	forged := []wal.SeqEntry[string, int64]{recs[0], {
		Seq: recs[1].Seq,
		Entry: cert.Entry[string, int64]{
			N: recs[0].Entry.N, M: recs[0].Entry.M, Label: recs[0].Entry.Label + 1, Reason: "forged",
		},
	}}
	if _, err := f.applier.Apply(Batch{Count: 2, Frames: wal.EncodeFrames(p.Codec(), forged)}); err == nil || !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("forged record = %v, want ErrInvariantViolated", err)
	}
	// Nothing above may have moved the follower past the prefix the
	// forged batch legitimately carried.
	if f.store.LastSeq() > recs[0].Seq {
		t.Fatalf("refused batches advanced the follower to %d", f.store.LastSeq())
	}
	// A clean batch with a newer fence is applied and the fence
	// persists durably.
	if _, err := f.applier.Apply(Batch{Fence: 3, Count: len(recs), Frames: frames}); err != nil {
		t.Fatal(err)
	}
	if f.store.Fence() != 3 {
		t.Fatalf("fence = %d after fenced batch, want 3", f.store.Fence())
	}
	verifyFollower(t, f, entries)
}
