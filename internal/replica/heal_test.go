package replica

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"luf/internal/cert"
	"luf/internal/concurrent"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/wal"
)

// snapshotSource serves ServeSnapshot over a primary store, the way a
// healthy node would.
func snapshotSource(t *testing.T, store *wal.Store[string, int64]) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := ServeSnapshot(w, r, store, "http://primary.test"); err != nil {
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

// adopted collects what a healer hands to OnAdopt, standing in for the
// server's atomic state swap.
type adopted struct {
	mu      sync.Mutex
	store   *wal.Store[string, int64]
	uf      *concurrent.UF[string, int64]
	journal *cert.SyncJournal[string, int64]
}

func (a *adopted) adopt(store *wal.Store[string, int64], uf *concurrent.UF[string, int64], journal *cert.SyncJournal[string, int64]) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.store != nil {
		_ = a.store.Close()
	}
	a.store, a.uf, a.journal = store, uf, journal
}

func (a *adopted) get() (*wal.Store[string, int64], *concurrent.UF[string, int64]) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.store, a.uf
}

func healerFor(t *testing.T, dir string, src *httptest.Server, a *adopted, tweak func(*HealConfig[string, int64])) *Healer[string, int64] {
	t.Helper()
	cfg := HealConfig[string, int64]{
		Dir:   dir,
		G:     group.Delta{},
		Codec: wal.DeltaCodec{},
		Self:  "f",
		Source: func() (string, string) {
			if src == nil {
				return "", ""
			}
			return "p", src.URL
		},
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		Seed:        42,
		OnAdopt:     a.adopt,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	h := NewHealer(cfg)
	t.Cleanup(h.Stop)
	return h
}

func TestHealerResyncsDivergentFollower(t *testing.T) {
	entries := consistentEntries(50, 10)
	p := primary(t, entries)
	src := snapshotSource(t, p)

	// The follower's directory holds a diverged history; quarantine has
	// already closed it (the healer wipes the directory itself).
	fdir := t.TempDir()
	fStore, _, err := wal.Open(fdir, group.Delta{}, wal.DeltaCodec{}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fStore.Append(cert.Entry[string, int64]{N: "rogue-a", M: "rogue-b", Label: 7, Reason: "divergent"}); err != nil {
		t.Fatal(err)
	}
	if err := fStore.Close(); err != nil {
		t.Fatal(err)
	}

	a := &adopted{}
	t.Cleanup(func() {
		if s, _ := a.get(); s != nil {
			_ = s.Close()
		}
	})
	// Small chunks force a multi-request transfer.
	h := healerFor(t, fdir, src, a, func(c *HealConfig[string, int64]) { c.ChunkMax = 7 })
	h.Start()
	h.Quarantine(errors.New("divergent histories at sequence 1"))

	waitFor(t, "certified resync", func() bool { return h.Status().State == HealCatchingUp })
	store, uf := a.get()
	if store == nil {
		t.Fatal("no state adopted")
	}
	if store.LastSeq() != p.LastSeq() {
		t.Fatalf("adopted store tail %d, want %d", store.LastSeq(), p.LastSeq())
	}
	for _, e := range entries {
		ans, ok := uf.GetRelation(e.N, e.M)
		if !ok || ans != e.Label {
			t.Fatalf("adopted state answers (%v,%d) for %s->%s, want (true,%d)", ok, ans, e.N, e.M, e.Label)
		}
	}
	// The adopted history must rebuild certified — every record was
	// re-proved, not copied on faith.
	if _, _, err := wal.Rebuild(group.Delta{}, store.Entries()); err != nil {
		t.Fatalf("certified rebuild of adopted state failed: %v", err)
	}
	// The divergent assertion is gone.
	if _, ok := uf.GetRelation("rogue-a", "rogue-b"); ok {
		t.Fatal("adopted state still holds the divergent assertion")
	}
	st := h.Status()
	if st.Resyncs != 1 || st.Attempts != 0 || st.LastErr != "" {
		t.Fatalf("post-resync status = %+v", st)
	}
	// A clean live batch completes the lifecycle.
	h.MarkHealthy()
	if got := h.Status().State; got != HealHealthy {
		t.Fatalf("state after MarkHealthy = %s", got)
	}
}

func TestHealerResyncSurvivesConcurrentTrim(t *testing.T) {
	entries := consistentEntries(60, 11)
	p := primary(t, entries)

	// Serve snapshot chunks, and after the first chunk snapshot+trim the
	// primary's journal — the transfer must keep working because chunks
	// are cut from the in-memory mirror, which trims never shrink.
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1) == 2 {
			if err := p.Snapshot(); err != nil {
				t.Errorf("snapshot: %v", err)
			}
			if err := p.Trim(); err != nil {
				t.Errorf("trim: %v", err)
			}
		}
		if err := ServeSnapshot(w, r, p, "http://primary.test"); err != nil {
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	t.Cleanup(srv.Close)

	a := &adopted{}
	t.Cleanup(func() {
		if s, _ := a.get(); s != nil {
			_ = s.Close()
		}
	})
	h := healerFor(t, t.TempDir(), srv, a, func(c *HealConfig[string, int64]) { c.ChunkMax = 5 })
	h.Start()
	h.Quarantine(errors.New("corruption detected"))

	waitFor(t, "resync across a concurrent trim", func() bool { return h.Status().State == HealCatchingUp })
	store, _ := a.get()
	if store.LastSeq() != p.LastSeq() {
		t.Fatalf("adopted tail %d, want %d", store.LastSeq(), p.LastSeq())
	}
	if _, _, err := wal.Rebuild(group.Delta{}, store.Entries()); err != nil {
		t.Fatalf("certified rebuild after trimmed transfer: %v", err)
	}
	if served.Load() < 2 {
		t.Fatalf("transfer used %d requests; the trim never raced it", served.Load())
	}
}

func TestHealerResumesTransferAfterTransportFailure(t *testing.T) {
	entries := consistentEntries(40, 12)
	p := primary(t, entries)

	// Fail the transfer mid-way exactly once; the next attempt must
	// resume from the partial store, not restart at zero.
	var calls atomic.Int64
	var resumedFrom atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n == 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		if n == 4 {
			// First request after the failure: record where it resumed.
			after, _ := strconv.ParseInt(r.URL.Query().Get("after"), 10, 64)
			resumedFrom.Store(after)
		}
		if err := ServeSnapshot(w, r, p, "http://primary.test"); err != nil {
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	t.Cleanup(srv.Close)

	a := &adopted{}
	t.Cleanup(func() {
		if s, _ := a.get(); s != nil {
			_ = s.Close()
		}
	})
	h := healerFor(t, t.TempDir(), srv, a, func(c *HealConfig[string, int64]) { c.ChunkMax = 6 })
	h.Start()
	h.Quarantine(errors.New("bit rot"))

	waitFor(t, "resumed resync", func() bool { return h.Status().State == HealCatchingUp })
	store, _ := a.get()
	if store.LastSeq() != p.LastSeq() {
		t.Fatalf("adopted tail %d, want %d", store.LastSeq(), p.LastSeq())
	}
	if got := resumedFrom.Load(); got != 12 {
		t.Fatalf("after the failure the transfer resumed from %d, want 12 (two 6-record chunks already applied)", got)
	}
	if st := h.Status(); st.Attempts != 0 || st.Resyncs != 1 {
		t.Fatalf("post-resume status = %+v", st)
	}
}

func TestHealerExhaustsAttemptsThenForceResync(t *testing.T) {
	entries := consistentEntries(10, 13)
	p := primary(t, entries)

	// The source refuses every pull until told otherwise.
	var allow atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !allow.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		if err := ServeSnapshot(w, r, p, "http://primary.test"); err != nil {
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	t.Cleanup(srv.Close)

	a := &adopted{}
	t.Cleanup(func() {
		if s, _ := a.get(); s != nil {
			_ = s.Close()
		}
	})
	h := healerFor(t, t.TempDir(), srv, a, func(c *HealConfig[string, int64]) { c.MaxAttempts = 3 })
	h.Start()
	h.Quarantine(errors.New("scrub found damage"))

	waitFor(t, "degradation to stuck", func() bool { return h.Status().State == HealStuck })
	st := h.Status()
	if st.Attempts != 3 {
		t.Fatalf("stuck after %d attempts, want 3", st.Attempts)
	}
	if st.LastErr == "" {
		t.Fatal("stuck status carries no last error")
	}
	// Quarantine must NOT restart a stuck node (that is the point of the
	// attempt cap)...
	h.Quarantine(errors.New("still damaged"))
	if got := h.Status().State; got != HealStuck {
		t.Fatalf("Quarantine moved a stuck node to %s", got)
	}
	// ...but the operator escape hatch does, with a fresh budget.
	allow.Store(true)
	h.ForceResync(errors.New("operator-forced resync"))
	waitFor(t, "forced resync", func() bool { return h.Status().State == HealCatchingUp })
	store, _ := a.get()
	if store.LastSeq() != p.LastSeq() {
		t.Fatalf("forced resync adopted tail %d, want %d", store.LastSeq(), p.LastSeq())
	}
}

// TestHealerRefusesOutOfRangeSnapshotHeader: a snapshot chunk is
// decoded under the same strict rules as a replicate batch, so an
// anchor CRC that does not fit in 32 bits is refused, never truncated
// (2^32 would truncate to 0, the genesis anchor's CRC, and pass).
func TestHealerRefusesOutOfRangeSnapshotHeader(t *testing.T) {
	p := primary(t, consistentEntries(10, 18))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		if err := ServeSnapshot(rec, r, p, "http://primary.test"); err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.Header().Set(HeaderPrevCRC, "4294967296")
		_, _ = w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(srv.Close)

	a := &adopted{}
	t.Cleanup(func() {
		if s, _ := a.get(); s != nil {
			_ = s.Close()
		}
	})
	h := healerFor(t, t.TempDir(), srv, a, func(c *HealConfig[string, int64]) { c.MaxAttempts = 2 })
	h.Start()
	h.Quarantine(errors.New("test"))
	waitFor(t, "every out-of-range chunk refused", func() bool { return h.Status().State == HealStuck })
	if st := h.Status(); st.Resyncs != 0 || !strings.Contains(st.LastErr, HeaderPrevCRC) {
		t.Fatalf("status = %+v, want no resync and a %s refusal", st, HeaderPrevCRC)
	}
}

func TestHealerRetriesWhileNoSourceKnown(t *testing.T) {
	entries := consistentEntries(8, 14)
	p := primary(t, entries)
	src := snapshotSource(t, p)

	// Source resolution starts empty (no primary hint yet) and appears
	// later, as it does for a follower that boots quarantined.
	var known atomic.Bool
	a := &adopted{}
	t.Cleanup(func() {
		if s, _ := a.get(); s != nil {
			_ = s.Close()
		}
	})
	h := healerFor(t, t.TempDir(), src, a, func(c *HealConfig[string, int64]) {
		c.MaxAttempts = 1000
		c.Source = func() (string, string) {
			if !known.Load() {
				return "", ""
			}
			return "p", src.URL
		}
	})
	h.Start()
	h.Quarantine(errors.New("boot-time corruption"))

	waitFor(t, "attempts against an unknown source", func() bool { return h.Status().Attempts >= 2 })
	known.Store(true)
	waitFor(t, "resync once the source appears", func() bool { return h.Status().State == HealCatchingUp })
}

func TestServeSnapshotValidatesRequests(t *testing.T) {
	entries := consistentEntries(12, 15)
	p := primary(t, entries)
	src := snapshotSource(t, p)

	// after beyond the tail is a client error, not a hang or empty 200.
	resp, err := http.Get(src.URL + "/v1/snapshot?after=99999&max=10")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("snapshot past the tail served 200")
	}
	// A chunked pull reassembles the exact history.
	a := &adopted{}
	t.Cleanup(func() {
		if s, _ := a.get(); s != nil {
			_ = s.Close()
		}
	})
	h := healerFor(t, t.TempDir(), src, a, func(c *HealConfig[string, int64]) { c.ChunkMax = 1 })
	h.Start()
	h.Quarantine(errors.New("test"))
	waitFor(t, "one-record-per-chunk resync", func() bool { return h.Status().State == HealCatchingUp })
	store, _ := a.get()
	want := p.RecordsSince(0, 0)
	got := store.RecordsSince(0, 0)
	if len(got) != len(want) {
		t.Fatalf("pulled %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if wal.RecordCRC(p.Codec(), got[i]) != wal.RecordCRC(p.Codec(), want[i]) {
			t.Fatalf("record %d differs after transfer", i)
		}
	}
}

func TestShipperClearsStickyErrorAfterResync(t *testing.T) {
	entries := consistentEntries(20, 16)
	p := primary(t, entries[:10])

	// A follower whose handler can be swapped out from under the
	// shipper: first a divergent applier (refuses batches), then — after
	// "healing" — a clean one that accepts them.
	fdir := t.TempDir()
	fStore, frec, err := wal.Open(fdir, group.Delta{}, wal.DeltaCodec{}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fStore.Append(cert.Entry[string, int64]{N: "rogue-a", M: "rogue-b", Label: 3, Reason: "divergent"}); err != nil {
		t.Fatal(err)
	}
	fApplier := &Applier[string, int64]{G: group.Delta{}, UF: frec.UF, Journal: frec.Journal, Store: fStore}

	var mu sync.Mutex
	applier := fApplier
	store := fStore
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := ReadBatch(r.Header, r.Body)
		if err == nil {
			mu.Lock()
			ap := applier
			mu.Unlock()
			var ack Ack
			ack, err = ap.Apply(b)
			if err == nil {
				writeAck(w, ack)
				return
			}
		}
		writeRefusal(w, err)
	}))
	t.Cleanup(srv.Close)

	sh := shipperFor(p, []Peer{{Name: "f", URL: srv.URL}}, nil, nil, nil)
	sh.Start()
	defer sh.Stop()
	waitFor(t, "divergence surfacing", func() bool { return sh.Status()["f"].Divergent })

	// The reconstructed error is the typed divergence, not a formatted
	// string.
	if st := sh.Status()["f"]; !st.Divergent || st.Err == "" {
		t.Fatalf("status = %+v, want a divergent error", st)
	}

	// Heartbeats alone (acks at the stale durable position) must NOT
	// clear the divergence — reachability is not progress.
	time.Sleep(50 * time.Millisecond)
	if st := sh.Status()["f"]; !st.Divergent {
		t.Fatal("heartbeat acks cleared a divergence the follower never repaired")
	}

	// "Resync" the follower: swap in a clean store holding the primary's
	// exact history, as the healer's adoption would.
	cdir := t.TempDir()
	cStore, crec, err := wal.Open(cdir, group.Delta{}, wal.DeltaCodec{}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range p.RecordsSince(0, 0) {
		if err := cStore.AppendReplicated(r.Seq, r.Entry); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	applier = &Applier[string, int64]{G: group.Delta{}, UF: crec.UF, Journal: crec.Journal, Store: cStore}
	_ = store.Close()
	store = cStore
	mu.Unlock()

	// New writes ship; once the follower acks at the primary's tail the
	// sticky divergence clears.
	for _, e := range entries[10:] {
		if _, err := p.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	sh.Kick()
	waitFor(t, "sticky error cleared after resync", func() bool {
		st := sh.Status()["f"]
		return !st.Divergent && st.Err == "" && st.Acked == p.LastSeq()
	})
	t.Cleanup(func() { _ = cStore.Close() })
}

// writeAck and writeRefusal mirror the server's replicate responses for
// swappable-handler tests.
func writeAck(w http.ResponseWriter, ack Ack) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write([]byte(`{"durable":` + uitoa(ack.Durable) + `,"fence":` + uitoa(ack.Fence) + `}`))
}

func writeRefusal(w http.ResponseWriter, err error) {
	w.Header().Set("Content-Type", "application/json")
	var de *wal.DivergenceError
	if errors.As(err, &de) {
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write([]byte(`{"error":{"kind":"` + wal.DivergenceKind + `","message":"diverged",` +
			`"divergence":{"seq":` + uitoa(de.Seq) + `,"local_crc":` + uitoa(uint64(de.LocalCRC)) + `,"remote_crc":` + uitoa(uint64(de.RemoteCRC)) + `}}}`))
		return
	}
	w.WriteHeader(http.StatusInternalServerError)
	_, _ = w.Write([]byte(`{"error":{"kind":"` + fault.StopLabel(err) + `","message":"refused"}}`))
}

func uitoa(u uint64) string {
	if u == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for u > 0 {
		i--
		b[i] = byte('0' + u%10)
		u /= 10
	}
	return string(b[i:])
}
