package wal

import (
	"errors"
	"testing"

	"luf/internal/cert"
	"luf/internal/fault"
	"luf/internal/group"
)

// TestAppendENOSPCDegradesReadOnly is the explicit disk-full acceptance
// test: an injected ENOSPC on a journal append (the write fails before
// any byte lands, the way a full filesystem rejects it) must leave the
// store sticky-failed with a structured ErrIO — every later append and
// commit reports the same classified error, already-acknowledged state
// keeps serving reads — and a reopen of the directory must recover the
// pre-failure records cleanly: no panic, no torn frame, no refusal.
func TestAppendENOSPCDegradesReadOnly(t *testing.T) {
	dir := t.TempDir()
	entries := consistentEntries(10, 3)
	inj := &fault.Injector{FullDiskAt: 8} // header is not a frame write; the 8th record append hits the full disk
	st, _, err := Open(dir, group.Delta{}, DeltaCodec{}, Options{Inject: inj})
	if err != nil {
		t.Fatal(err)
	}
	var acked []cert.Entry[string, int64]
	var failedAt int
	for i, e := range entries {
		seq, err := st.Append(e)
		if err != nil {
			failedAt = i
			if !errors.Is(err, fault.ErrIO) {
				t.Fatalf("disk-full append: err = %v, want structured ErrIO", err)
			}
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("disk-full append: err = %v, want ErrInjected marker", err)
			}
			break
		}
		if err := st.Commit(seq); err != nil {
			t.Fatal(err)
		}
		acked = append(acked, e)
	}
	if failedAt == 0 {
		t.Fatal("injection never fired")
	}

	// Sticky read-only degradation: every later mutation reports the
	// same classified error, no panic.
	if _, err := st.Append(entries[failedAt]); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("append after disk-full: err = %v, want sticky ErrIO", err)
	}
	if err := st.Commit(st.LastSeq() + 1); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("commit after disk-full: err = %v, want sticky ErrIO", err)
	}
	if err := st.Err(); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("Err() = %v, want sticky ErrIO", err)
	}
	// The in-memory state above the log stays valid for reads.
	if got := len(st.Entries()); got != len(acked) {
		t.Fatalf("store serves %d entries after degradation, want the %d acked", got, len(acked))
	}
	st.Close()

	// Recovery accepts the file as-is: ENOSPC wrote nothing, so there
	// is no torn tail to repair and every acked record survives.
	st2, rec, err := Open(dir, group.Delta{}, DeltaCodec{}, Options{})
	if err != nil {
		t.Fatalf("reopen after disk-full: %v", err)
	}
	defer st2.Close()
	if rec.TailTruncated != 0 {
		t.Fatalf("reopen repaired %d torn bytes; ENOSPC must not tear the file", rec.TailTruncated)
	}
	if rec.Entries != len(acked) {
		t.Fatalf("reopen recovered %d entries, want %d", rec.Entries, len(acked))
	}
	verifyState(t, st2, rec, acked)
}

// TestIntentLogENOSPCSticky drives the same disk-full discipline
// through the coordinator's intent log: the failed Begin reports a
// structured ErrIO, later mutations stay failed, and a reopen recovers
// every previously-acked intent with nothing torn.
func TestIntentLogENOSPCSticky(t *testing.T) {
	path := intentPath(t)
	inj := &fault.Injector{FullDiskAt: 3} // fence(1), pending(1), then the full disk
	il, err := OpenIntents(path, DeltaCodec{}, inj)
	if err != nil {
		t.Fatal(err)
	}
	id, err := il.Begin(irec{GroupA: "alpha", GroupB: "beta", N: "a", M: "b", Label: 1, Reason: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := il.Begin(irec{GroupA: "alpha", GroupB: "beta", N: "c", M: "d", Label: 2, Reason: "boom"}); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("disk-full Begin: err = %v, want structured ErrIO", err)
	}
	if err := il.Transition(irec{ID: id, State: IntentCommitted}); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("Transition after disk-full: err = %v, want sticky ErrIO", err)
	}
	if err := il.Err(); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("Err() = %v, want sticky ErrIO", err)
	}
	il.Close()

	il2, err := OpenIntents(path, DeltaCodec{}, nil)
	if err != nil {
		t.Fatalf("reopen after disk-full: %v", err)
	}
	defer il2.Close()
	got := il2.Records()
	if len(got) != 1 || got[0].ID != id || got[0].State != IntentPending {
		t.Fatalf("reopen recovered %+v, want exactly intent %d pending", got, id)
	}
}
