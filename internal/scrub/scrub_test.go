package scrub

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"luf/internal/cert"
	"luf/internal/concurrent"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/wal"
)

// buildState opens a durable store in dir and appends n mutually
// consistent assertions through the full serving path (uf + journal +
// store), returning the live pieces a scrubber checks.
func buildState(t *testing.T, dir string, n int) (*wal.Store[string, int64], *concurrent.UF[string, int64], *cert.SyncJournal[string, int64]) {
	t.Helper()
	g := group.Delta{}
	store, rec, err := wal.Open(dir, g, wal.DeltaCodec{}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, n+1)
	for i := range vals {
		vals[i] = int64(rng.Intn(1000))
	}
	for i := 0; i < n; i++ {
		e := cert.Entry[string, int64]{
			N: "s" + strconv.Itoa(i), M: "s" + strconv.Itoa(i+1),
			Label: vals[i+1] - vals[i], Reason: "scrub-seed",
		}
		if !rec.UF.AddRelationReason(e.N, e.M, e.Label, e.Reason) {
			t.Fatalf("seed assert %d refused", i)
		}
		if _, err := store.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Sync(); err != nil {
		t.Fatal(err)
	}
	return store, rec.UF, rec.Journal
}

func scrubberFor(dir string, store *wal.Store[string, int64], uf *concurrent.UF[string, int64], journal *cert.SyncJournal[string, int64], tweak func(*Config[string, int64])) *Scrubber[string, int64] {
	cfg := Config[string, int64]{
		Dir:   dir,
		G:     group.Delta{},
		Codec: wal.DeltaCodec{},
		State: func() (*wal.Store[string, int64], *concurrent.UF[string, int64], *cert.SyncJournal[string, int64]) {
			return store, uf, journal
		},
		Seed: 3,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	return New(cfg)
}

func TestScrubCleanStatePasses(t *testing.T) {
	dir := t.TempDir()
	store, uf, journal := buildState(t, dir, 40)
	sc := scrubberFor(dir, store, uf, journal, func(c *Config[string, int64]) { c.Sample = 10 })

	// Enough ticks for the rotating window to cover every assertion.
	for i := 0; i < 8; i++ {
		if err := sc.Tick(); err != nil {
			t.Fatalf("tick %d on clean state: %v", i, err)
		}
	}
	st := sc.Stats()
	if st.Ticks != 8 || st.Corruptions != 0 || st.LastError != "" {
		t.Fatalf("stats = %+v", st)
	}
	if st.CertsChecked != 8*10 {
		t.Fatalf("certs checked = %d, want 80", st.CertsChecked)
	}
	if st.FramesChecked == 0 {
		t.Fatal("disk pass verified no frames")
	}
}

func TestScrubDetectsDiskCorruption(t *testing.T) {
	dir := t.TempDir()
	store, uf, journal := buildState(t, dir, 30)
	var seen atomic.Value
	sc := scrubberFor(dir, store, uf, journal, func(c *Config[string, int64]) {
		c.OnCorruption = func(err error) { seen.Store(err) }
	})
	if err := sc.Tick(); err != nil {
		t.Fatalf("pre-corruption tick: %v", err)
	}

	// Flip one byte in the middle of the journal — classic bit rot: the
	// in-memory state is fine, the disk image is not.
	jpath := filepath.Join(dir, "journal.wal")
	img, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)/2] ^= 0x40
	if err := os.WriteFile(jpath, img, 0o644); err != nil {
		t.Fatal(err)
	}

	err = sc.Tick()
	if err == nil {
		t.Fatal("scrub missed flipped bits on disk")
	}
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("scrub error %v does not carry ErrIntegrity", err)
	}
	if !errors.Is(err, fault.ErrIO) {
		t.Fatalf("disk damage %v does not carry the IO taxonomy identity", err)
	}
	if got, _ := seen.Load().(error); got == nil || !errors.Is(got, ErrIntegrity) {
		t.Fatalf("OnCorruption got %v", got)
	}
	st := sc.Stats()
	if st.Corruptions == 0 || st.LastError == "" {
		t.Fatalf("stats after corruption = %+v", st)
	}
}

func TestScrubDetectsCertificateMismatch(t *testing.T) {
	dir := t.TempDir()
	store, _, _ := buildState(t, dir, 20)
	// Pair the store with a structure and journal that do NOT hold its
	// assertions: every Explain fails, exactly as it would if memory and
	// disk drifted apart.
	g := group.Delta{}
	emptyJournal := cert.NewSyncJournal[string, int64](g)
	emptyUF := concurrent.New[string, int64](g, concurrent.WithRecorder[string, int64](emptyJournal.Record))
	sc := scrubberFor(dir, store, emptyUF, emptyJournal, nil)

	err := sc.Tick()
	if err == nil {
		t.Fatal("scrub accepted a structure that cannot re-prove the store")
	}
	if !errors.Is(err, ErrIntegrity) || !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("certificate mismatch error %v, want ErrIntegrity + ErrInvariantViolated", err)
	}
}

func TestScrubGateSkipsTicks(t *testing.T) {
	dir := t.TempDir()
	store, uf, journal := buildState(t, dir, 10)
	open := atomic.Bool{}
	sc := scrubberFor(dir, store, uf, journal, func(c *Config[string, int64]) {
		c.Gate = func() bool { return open.Load() }
	})
	if err := sc.Tick(); err != nil {
		t.Fatalf("gated tick errored: %v", err)
	}
	if st := sc.Stats(); st.Ticks != 0 || st.Skipped != 1 {
		t.Fatalf("gated stats = %+v", st)
	}
	open.Store(true)
	if err := sc.Tick(); err != nil {
		t.Fatal(err)
	}
	if st := sc.Stats(); st.Ticks != 1 {
		t.Fatalf("ungated stats = %+v", st)
	}
}

func TestScrubWindowRotatesOverAllAssertions(t *testing.T) {
	dir := t.TempDir()
	store, uf, journal := buildState(t, dir, 9)
	sc := scrubberFor(dir, store, uf, journal, func(c *Config[string, int64]) { c.Sample = 4 })
	// With 9 assertions and a window of 4, three ticks check 12 — the
	// rotating cursor guarantees every assertion was covered at least
	// once (ceil coverage), which a fixed-prefix sampler would not.
	for i := 0; i < 3; i++ {
		if err := sc.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if st := sc.Stats(); st.CertsChecked != 12 {
		t.Fatalf("certs checked = %d, want 12", st.CertsChecked)
	}
}

// TestAuxLogSweepDetectsCorruption: the auxiliary-log sweep re-reads
// the coordinator's fenced intent/migration logs every tick, so
// mid-file bit rot is a detected ErrIntegrity instead of a surprise at
// redrive time. The damaged byte sits mid-file with valid records
// after it — torn-tail repair must not paper over it.
func TestAuxLogSweepDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "intents.luf")
	il, err := wal.OpenIntents(path, wal.DeltaCodec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := il.Begin(wal.IntentRecord[string, int64]{
			GroupA: "alpha", GroupB: "beta", N: "ax" + strconv.Itoa(i), M: "bx" + strconv.Itoa(i), Label: 1, Reason: "aux-seed",
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := il.Close(); err != nil {
		t.Fatal(err)
	}

	// A store-less scrubber watching only the aux log, the coordinator
	// configuration.
	sc := New(Config[string, int64]{
		Codec:   wal.DeltaCodec{},
		AuxLogs: []string{path},
	})
	if err := sc.Tick(); err != nil {
		t.Fatalf("tick on a clean aux log: %v", err)
	}
	if st := sc.Stats(); st.AuxChecked == 0 {
		t.Fatalf("aux sweep checked nothing: %+v", st)
	}

	// Flip one payload byte of the second frame: the length prefix
	// stays intact and later records stay valid, so this is mid-file
	// damage — exactly what torn-tail repair must NOT paper over.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frame0 := int(binary.LittleEndian.Uint32(data[0:4]))
	data[8+frame0+8] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = sc.Tick()
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tick on damaged aux log = %v, want ErrIntegrity", err)
	}
	if st := sc.Stats(); st.Corruptions != 1 || st.LastError == "" {
		t.Fatalf("stats after aux corruption: %+v", st)
	}

	// A missing aux log is not corruption — a fresh coordinator has no
	// intents yet.
	sc2 := New(Config[string, int64]{
		Codec:   wal.DeltaCodec{},
		AuxLogs: []string{filepath.Join(dir, "never-written.luf")},
	})
	if err := sc2.Tick(); err != nil {
		t.Fatalf("tick on a missing aux log: %v", err)
	}
}

// TestScrubCertsCopiesOnlyTheWindow: a cert pass re-proves Sample
// assertions, so it may copy only those out of the store. Copying every
// entry would hold the store lock, which appends wait on, for O(store)
// work per tick; over 100k entries it would allocate megabytes.
func TestScrubCertsCopiesOnlyTheWindow(t *testing.T) {
	const total = 100_000
	dir := t.TempDir()
	store, rec, err := wal.Open(dir, group.Delta{}, wal.DeltaCodec{}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	for i := range total {
		e := cert.Entry[string, int64]{N: "p" + strconv.Itoa(i), M: "q" + strconv.Itoa(i), Label: int64(i % 7), Reason: "window"}
		if !rec.UF.AddRelationReason(e.N, e.M, e.Label, e.Reason) {
			t.Fatalf("assert %d refused", i)
		}
		if _, err := store.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	sc := scrubberFor(dir, store, rec.UF, rec.Journal, nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n, err := sc.scrubCerts(store, rec.UF, rec.Journal)
	runtime.ReadMemStats(&after)
	if err != nil || n != sc.cfg.Sample {
		t.Fatalf("cert pass checked %d (err %v), want %d", n, err, sc.cfg.Sample)
	}
	// Each re-proof allocates a small certificate; 1 KiB per sampled
	// assertion is far below one copy of the store's entries.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(sc.cfg.Sample)<<10; got > limit {
		t.Fatalf("one cert pass over %d entries allocated %d bytes, want at most %d", total, got, limit)
	}
}
