package wal

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"luf/internal/cert"
	"luf/internal/fault"
	"luf/internal/group"
)

// consistentEntries builds n assertions over string nodes that are
// mutually consistent by construction: every node i carries a hidden
// value v(i) and each assertion states v(m) - v(n). A chain keeps the
// graph connected with bounded degree; extra random pairs add
// redundancy and cross-links.
func consistentEntries(n int, seed int64) []cert.Entry[string, int64] {
	rng := rand.New(rand.NewSource(seed))
	nodes := n/2 + 2
	vals := make([]int64, nodes)
	for i := range vals {
		vals[i] = int64(rng.Intn(2000) - 1000)
	}
	name := func(i int) string { return "n" + string(rune('A'+i%26)) + "_" + string(rune('0'+i/26%10)) }
	var out []cert.Entry[string, int64]
	for i := 0; i+1 < nodes && len(out) < n; i++ {
		out = append(out, cert.Entry[string, int64]{
			N: name(i), M: name(i + 1), Label: vals[i+1] - vals[i],
			Reason: "chain-" + name(i),
		})
	}
	for len(out) < n {
		a, b := rng.Intn(nodes), rng.Intn(nodes)
		out = append(out, cert.Entry[string, int64]{
			N: name(a), M: name(b), Label: vals[b] - vals[a],
			Reason: "cross",
		})
	}
	return out
}

// verifyState checks that st answers every entry of want with the
// logged label and that a full certified rebuild of the store's
// entries succeeds.
func verifyState(t *testing.T, st *Store[string, int64], rec *Recovered[string, int64], want []cert.Entry[string, int64]) {
	t.Helper()
	g := group.Delta{}
	for _, e := range want {
		ans, ok := rec.UF.GetRelation(e.N, e.M)
		if !ok || ans != e.Label {
			t.Fatalf("recovered state answers (%v,%d) for %s->%s, want (true,%d)", ok, ans, e.N, e.M, e.Label)
		}
		c, err := rec.Journal.Explain(e.N, e.M)
		if err != nil {
			t.Fatalf("explain %s->%s: %v", e.N, e.M, err)
		}
		c.Label = e.Label
		if err := cert.Check(c, g); err != nil {
			t.Fatalf("certificate for %s->%s rejected: %v", e.N, e.M, err)
		}
	}
	if _, _, err := Rebuild(g, st.Entries()); err != nil {
		t.Fatalf("rebuild of store entries failed: %v", err)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	entries := consistentEntries(40, 1)
	st, rec, err := Open(dir, group.Delta{}, DeltaCodec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Entries != 0 || rec.LastSeq != 0 {
		t.Fatalf("fresh store recovered %d entries, seq %d", rec.Entries, rec.LastSeq)
	}
	var last uint64
	for _, e := range entries {
		seq, err := st.Append(e)
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	if err := st.Commit(last); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec2, err := Open(dir, group.Delta{}, DeltaCodec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec2.TailTruncated != 0 {
		t.Fatalf("clean close left %d torn bytes", rec2.TailTruncated)
	}
	verifyState(t, st2, rec2, entries)
}

func TestStoreDeduplicatesAppends(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, group.Delta{}, DeltaCodec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := cert.Entry[string, int64]{N: "x", M: "y", Label: 3, Reason: "r"}
	for i := 0; i < 5; i++ {
		if _, err := st.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d after duplicate appends", st.Len())
	}
	if st.LastSeq() != 1 {
		t.Fatalf("LastSeq = %d, want 1 (duplicates must not grow the journal)", st.LastSeq())
	}
	st.Close()
}

func TestSnapshotShortensReplay(t *testing.T) {
	dir := t.TempDir()
	entries := consistentEntries(30, 2)
	st, _, err := Open(dir, group.Delta{}, DeltaCodec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries[:20] {
		if _, err := st.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries[20:] {
		if _, err := st.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec2, err := Open(dir, group.Delta{}, DeltaCodec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec2.FromSnapshot == 0 {
		t.Fatal("recovery ignored the snapshot")
	}
	verifyState(t, st2, rec2, entries)

	// The snapshot alone (journal deleted) must still recover the
	// covered prefix.
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, journalName)); err != nil {
		t.Fatal(err)
	}
	st3, rec3, err := Open(dir, group.Delta{}, DeltaCodec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	verifyState(t, st3, rec3, entries[:20])
	if got := rec3.Entries; got != len(dedup(entries[:20])) {
		t.Fatalf("snapshot-only recovery has %d entries, want %d", got, len(dedup(entries[:20])))
	}
	// Appends must resume above the snapshot coverage.
	seq, err := st3.Append(cert.Entry[string, int64]{N: "fresh1", M: "fresh2", Label: 7})
	if err != nil {
		t.Fatal(err)
	}
	if seq <= rec3.LastSeq {
		t.Fatalf("append seq %d did not advance past recovered seq %d", seq, rec3.LastSeq)
	}
}

// dedup mirrors the store's dedup rule for test expectations.
func dedup(es []cert.Entry[string, int64]) []cert.Entry[string, int64] {
	seen := map[string]bool{}
	var out []cert.Entry[string, int64]
	for _, e := range es {
		k := e.N + "\x00" + e.M + "\x00" + group.Delta{}.Key(e.Label)
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

func TestGroupIDMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir, group.Delta{}, DeltaCodec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Append(cert.Entry[string, int64]{N: "x", M: "y", Label: 3})
	st.Close()
	_, _, err = Open(dir, group.TVPE{}, TVPECodec{}, Options{})
	if err == nil || !errors.Is(err, fault.ErrIO) {
		t.Fatalf("opening a delta journal with the tvpe codec: err = %v, want ErrIO", err)
	}
}

func TestTornWriteInjection(t *testing.T) {
	dir := t.TempDir()
	inj := &fault.Injector{TornWriteAt: 3} // header sync is not a frame write; 3rd assert frame tears
	st, _, err := Open(dir, group.Delta{}, DeltaCodec{}, Options{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	entries := consistentEntries(6, 3)
	var appendErr error
	accepted := 0
	for _, e := range entries {
		if _, appendErr = st.Append(e); appendErr != nil {
			break
		}
		accepted++
	}
	if appendErr == nil {
		t.Fatal("torn write was not surfaced")
	}
	if !errors.Is(appendErr, fault.ErrIO) || !errors.Is(appendErr, fault.ErrInjected) {
		t.Fatalf("torn write error = %v, want ErrIO+ErrInjected", appendErr)
	}
	// Sticky: the log refuses further work with the same classification.
	if _, err := st.Append(entries[len(entries)-1]); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("append after failure = %v, want sticky ErrIO", err)
	}
	st.Close()

	// Reopen: the torn frame is repaired away, the accepted prefix
	// survives certified recovery.
	st2, rec2, err := Open(dir, group.Delta{}, DeltaCodec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec2.TailTruncated == 0 {
		t.Fatal("repair did not truncate the torn frame")
	}
	verifyState(t, st2, rec2, entries[:accepted])
}

func TestFsyncFailureInjection(t *testing.T) {
	dir := t.TempDir()
	inj := &fault.Injector{FailSyncAt: 1} // header creation syncs directly; Commit is the 1st observed sync
	st, _, err := Open(dir, group.Delta{}, DeltaCodec{}, Options{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := st.Append(cert.Entry[string, int64]{N: "x", M: "y", Label: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(seq); !errors.Is(err, fault.ErrIO) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Commit under injected fsync failure = %v, want ErrIO+ErrInjected", err)
	}
	st.Close()
	// The record reached the page cache; in this in-process simulation
	// it is still on disk, so reopening must at worst recover it — and
	// must never report corruption.
	st2, _, err := Open(dir, group.Delta{}, DeltaCodec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st2.Close()
}

func TestShortReadBehavesAsTornTail(t *testing.T) {
	dir := t.TempDir()
	entries := consistentEntries(10, 4)
	st, _, err := Open(dir, group.Delta{}, DeltaCodec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		st.Append(e)
	}
	st.Close()

	inj := &fault.Injector{ShortReadAt: 1}
	st2, rec2, err := Open(dir, group.Delta{}, DeltaCodec{}, Options{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec2.Entries >= len(dedup(entries)) {
		t.Fatalf("short read recovered %d entries, want fewer than %d", rec2.Entries, len(dedup(entries)))
	}
	// Whatever prefix survived must be certified.
	verifyState(t, st2, rec2, nil)
}

func TestRebuildRejectsConflictingJournal(t *testing.T) {
	entries := []cert.Entry[string, int64]{
		{N: "x", M: "y", Label: 3, Reason: "a"},
		{N: "y", M: "z", Label: 4, Reason: "b"},
		{N: "x", M: "z", Label: 9, Reason: "c"}, // contradicts 3+4
	}
	_, _, err := Rebuild(group.Delta{}, entries)
	if err == nil || !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("Rebuild of conflicting journal = %v, want ErrInvariantViolated", err)
	}
}

// TestReproveRefusesUnprovedAssertions covers the one re-proof that
// recovery, replication and scrubbing share: a logged assertion is
// accepted only with the label its certificate proves and the
// structure answers.
func TestReproveRefusesUnprovedAssertions(t *testing.T) {
	g := group.Delta{}
	uf, journal, err := Rebuild(g, []cert.Entry[string, int64]{
		{N: "x", M: "y", Label: 3, Reason: "a"},
		{N: "y", M: "z", Label: 4, Reason: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Reprove(g, uf, journal, cert.Entry[string, int64]{N: "x", M: "z", Label: 7}); err != nil {
		t.Fatalf("derived assertion x->z +7 refused: %v", err)
	}
	for _, e := range []cert.Entry[string, int64]{
		{N: "x", M: "z", Label: 9}, // a label the chain does not prove
		{N: "x", M: "w", Label: 1}, // an endpoint the journal never saw
	} {
		if err := Reprove(g, uf, journal, e); !errors.Is(err, fault.ErrInvariantViolated) {
			t.Fatalf("Reprove(%v -> %v %+d) = %v, want ErrInvariantViolated", e.N, e.M, e.Label, err)
		}
	}
}

func TestDecodeAllTornAndCorrupt(t *testing.T) {
	c := DeltaCodec{}
	image := appendFrame(nil, encodeHeader(c.GroupID(), 0, 0))
	for i, e := range consistentEntries(5, 5) {
		image = appendFrame(image, encodeAssert(c, uint64(i+1), e))
	}
	full, err := DecodeAll(image, c)
	if err != nil || len(full.Records) != 5 || full.TornBytes != 0 {
		t.Fatalf("clean decode: %v, %d records, %d torn", err, len(full.Records), full.TornBytes)
	}

	// Every truncation is torn-tail, never corruption.
	for cut := 0; cut <= len(image); cut++ {
		res, err := DecodeAll(image[:cut], c)
		if err != nil {
			t.Fatalf("truncation at %d reported corruption: %v", cut, err)
		}
		if res.ValidLen > cut {
			t.Fatalf("truncation at %d claims %d valid bytes", cut, res.ValidLen)
		}
	}

	// A flipped byte in a non-final record is corruption...
	mid := make([]byte, len(image))
	copy(mid, image)
	mid[full.Records[1].Off] ^= 0xff
	if _, err := DecodeAll(mid, c); err == nil || !errors.Is(err, fault.ErrIO) {
		t.Fatalf("mid-file corruption: err = %v, want ErrIO", err)
	}
	// ...but in the final frame it is a torn tail.
	tail := make([]byte, len(image))
	copy(tail, image)
	tail[full.Records[4].Off] ^= 0xff
	res, err := DecodeAll(tail, c)
	if err != nil {
		t.Fatalf("final-frame damage reported corruption: %v", err)
	}
	if len(res.Records) != 4 {
		t.Fatalf("final-frame damage kept %d records, want 4", len(res.Records))
	}

	// Zero fill after valid records is a torn tail.
	zeros := append(append([]byte{}, image...), make([]byte, 64)...)
	res, err = DecodeAll(zeros, c)
	if err != nil || len(res.Records) != 5 {
		t.Fatalf("zero-filled tail: %v, %d records", err, len(res.Records))
	}
}
