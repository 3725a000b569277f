package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"luf/internal/fault"
)

// irec is the intent record type the tests fold.
type irec = IntentRecord[string, int64]

// intentPath returns the test's intent log path inside a fresh dir.
func intentPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "intents.luf")
}

// TestIntentLogRoundTrip drives the full lifecycle across restarts:
// every state transition must survive a reopen, and every reopen must
// bump the fencing epoch durably.
func TestIntentLogRoundTrip(t *testing.T) {
	path := intentPath(t)
	il, err := OpenIntents(path, DeltaCodec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := il.Epoch(); got != 1 {
		t.Fatalf("first open epoch = %d, want 1", got)
	}
	id1, err := il.Begin(irec{GroupA: "alpha", GroupB: "beta", N: "a1", M: "b1", Label: 7, Reason: "link-1"})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := il.Begin(irec{GroupA: "alpha", GroupB: "beta", N: "a2", M: "b2", Label: -3, Reason: "link-2"})
	if err != nil {
		t.Fatal(err)
	}
	id3, err := il.Begin(irec{GroupA: "beta", GroupB: "gamma", N: "b3", M: "c3", Label: 11, Reason: "link-3"})
	if err != nil {
		t.Fatal(err)
	}
	if id1 != 1 || id2 != 2 || id3 != 3 {
		t.Fatalf("intent ids = %d,%d,%d, want 1,2,3", id1, id2, id3)
	}
	if err := il.Transition(irec{ID: id1, State: IntentCommitted}); err != nil {
		t.Fatal(err)
	}
	if err := il.Transition(irec{ID: id1, State: IntentDone}); err != nil {
		t.Fatal(err)
	}
	if err := il.Transition(irec{ID: id2, State: IntentAborted}); err != nil {
		t.Fatal(err)
	}
	// id3 stays pending: a crash now presumes it aborted.
	if err := il.Close(); err != nil {
		t.Fatal(err)
	}

	il2, err := OpenIntents(path, DeltaCodec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer il2.Close()
	if got := il2.Epoch(); got != 2 {
		t.Fatalf("second open epoch = %d, want 2", got)
	}
	want := map[uint64]IntentState{id1: IntentDone, id2: IntentAborted, id3: IntentPending}
	got := il2.Records()
	if len(got) != len(want) {
		t.Fatalf("recovered %d intents, want %d", len(got), len(want))
	}
	for _, r := range got {
		if r.State != want[r.ID] {
			t.Fatalf("intent %d recovered as %v, want %v", r.ID, r.State, want[r.ID])
		}
	}
	r3, ok := il2.Get(id3)
	if !ok || r3.GroupA != "beta" || r3.GroupB != "gamma" || r3.N != "b3" || r3.M != "c3" || r3.Label != 11 || r3.Reason != "link-3" {
		t.Fatalf("pending intent body lost in recovery: %+v", r3)
	}
	// New intents resume above the highest recovered ID.
	id4, err := il2.Begin(irec{GroupA: "alpha", GroupB: "gamma", N: "a4", M: "c4", Label: 0, Reason: "link-4"})
	if err != nil {
		t.Fatal(err)
	}
	if id4 != 4 {
		t.Fatalf("post-recovery intent id = %d, want 4", id4)
	}
	if r4, _ := il2.Get(id4); r4.Epoch != 2 {
		t.Fatalf("post-recovery intent epoch = %d, want 2", r4.Epoch)
	}
}

// TestIntentLifecycleEnforced rejects every backward or contradictory
// transition; idempotent re-decisions are no-ops.
func TestIntentLifecycleEnforced(t *testing.T) {
	il, err := OpenIntents(intentPath(t), DeltaCodec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer il.Close()
	id, err := il.Begin(irec{GroupA: "alpha", GroupB: "beta", N: "x", M: "y", Label: 1, Reason: "r"})
	if err != nil {
		t.Fatal(err)
	}
	if err := il.Transition(irec{ID: id, State: IntentDone}); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("done before decision: err = %v, want invariant violation", err)
	}
	if err := il.Transition(irec{ID: id, State: IntentPending}); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("decide to pending: err = %v, want invariant violation", err)
	}
	if err := il.Transition(irec{ID: id, State: IntentCommitted}); err != nil {
		t.Fatal(err)
	}
	if err := il.Transition(irec{ID: id, State: IntentCommitted}); err != nil {
		t.Fatalf("idempotent re-commit: %v", err)
	}
	if err := il.Transition(irec{ID: id, State: IntentAborted}); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("abort after commit: err = %v, want invariant violation", err)
	}
	if err := il.Transition(irec{ID: id, State: IntentDone}); err != nil {
		t.Fatal(err)
	}
	if err := il.Transition(irec{ID: id, State: IntentDone}); err != nil {
		t.Fatalf("idempotent re-done: %v", err)
	}
	if err := il.Transition(irec{ID: 999, State: IntentAborted}); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("decide unknown intent: err = %v, want invariant violation", err)
	}
}

// TestIntentCrashPointMatrix is the 2PC half of the acceptance matrix:
// the intent log is truncated at every byte offset and reopened. For
// every cut, recovery must fold exactly the surviving record prefix —
// in particular a torn decision frame leaves its intent Pending, which
// the coordinator presumes aborted — and the repaired log must accept
// new intents and recover once more.
func TestIntentCrashPointMatrix(t *testing.T) {
	// Build a log whose tail exercises all record shapes: pending,
	// commit, done, abort, and a trailing pending with a long reason so
	// cuts land inside every field.
	path := intentPath(t)
	il, err := OpenIntents(path, DeltaCodec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := il.Begin(irec{GroupA: "alpha", GroupB: "beta", N: "left-node", M: "right-node", Label: 42, Reason: "first-bridge"})
	if err := il.Transition(irec{ID: a, State: IntentCommitted}); err != nil {
		t.Fatal(err)
	}
	if err := il.Transition(irec{ID: a, State: IntentDone}); err != nil {
		t.Fatal(err)
	}
	b, _ := il.Begin(irec{GroupA: "beta", GroupB: "gamma", N: "bb", M: "cc", Label: -9, Reason: "second-bridge"})
	if err := il.Transition(irec{ID: b, State: IntentAborted}); err != nil {
		t.Fatal(err)
	}
	if _, err := il.Begin(irec{GroupA: "alpha", GroupB: "gamma", N: "aa", M: "cc", Label: 5, Reason: "a-reason-long-enough-to-cut-inside"}); err != nil {
		t.Fatal(err)
	}
	if err := il.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Expected fold at a cut: replay DecodeAll's surviving intents
	// through the same lifecycle rules.
	foldPrefix := func(cut int) map[uint64]IntentState {
		res, err := DecodeAll(image[:cut], DeltaCodec{})
		if err != nil {
			t.Fatalf("cut at %d: decode: %v", cut, err)
		}
		states := map[uint64]IntentState{}
		for _, r := range res.Intents {
			states[r.ID] = r.State
		}
		return states
	}

	scratch := t.TempDir()
	for cut := 0; cut <= len(image); cut++ {
		p := filepath.Join(scratch, "intents.luf")
		if err := os.WriteFile(p, image[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rl, err := OpenIntents(p, DeltaCodec{}, nil)
		if err != nil {
			t.Fatalf("cut at %d: recovery failed on pure truncation: %v", cut, err)
		}
		want := foldPrefix(cut)
		got := rl.Records()
		if len(got) != len(want) {
			t.Fatalf("cut at %d: recovered %d intents, surviving prefix has %d", cut, len(got), len(want))
		}
		for _, r := range got {
			if r.State != want[r.ID] {
				t.Fatalf("cut at %d: intent %d recovered as %v, want %v", cut, r.ID, r.State, want[r.ID])
			}
		}
		// The repaired log must keep working: begin + decide a fresh
		// intent, reopen, and see it folded.
		id, err := rl.Begin(irec{GroupA: "alpha", GroupB: "beta", N: "post", M: "crash", Label: 1, Reason: "resume"})
		if err != nil {
			t.Fatalf("cut at %d: begin after repair: %v", cut, err)
		}
		if err := rl.Transition(irec{ID: id, State: IntentAborted}); err != nil {
			t.Fatalf("cut at %d: decide after repair: %v", cut, err)
		}
		if err := rl.Close(); err != nil {
			t.Fatalf("cut at %d: close after repair: %v", cut, err)
		}
		rl2, err := OpenIntents(p, DeltaCodec{}, nil)
		if err != nil {
			t.Fatalf("cut at %d: second recovery: %v", cut, err)
		}
		if len(rl2.Records()) != len(want)+1 {
			t.Fatalf("cut at %d: second recovery folded %d intents, want %d", cut, len(rl2.Records()), len(want)+1)
		}
		rl2.Close()
	}
}

// TestIntentMidFileCorruptionRefused flips one byte inside an interior
// intent frame: recovery must refuse with a structured ErrIO, never
// silently drop or alter a decided intent.
func TestIntentMidFileCorruptionRefused(t *testing.T) {
	path := intentPath(t)
	il, err := OpenIntents(path, DeltaCodec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := il.Begin(irec{GroupA: "alpha", GroupB: "beta", N: "n", M: "m", Label: 3, Reason: "r"})
	if err := il.Transition(irec{ID: id, State: IntentCommitted}); err != nil {
		t.Fatal(err)
	}
	if _, err := il.Begin(irec{GroupA: "alpha", GroupB: "beta", N: "n2", M: "m2", Label: 4, Reason: "r2"}); err != nil {
		t.Fatal(err)
	}
	if err := il.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage a payload byte of an interior frame (not the file's final
	// frame, which would legitimately count as a torn tail): walk the
	// framing and pick the second-to-last frame.
	var starts []int
	for off := 0; off+frameOverhead <= len(image); {
		plen := int(uint32(image[off]) | uint32(image[off+1])<<8 | uint32(image[off+2])<<16 | uint32(image[off+3])<<24)
		starts = append(starts, off)
		off += frameOverhead + plen
	}
	if len(starts) < 3 {
		t.Fatalf("journal has only %d frames", len(starts))
	}
	image[starts[len(starts)-2]+frameOverhead] ^= 0xFF
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenIntents(path, DeltaCodec{}, nil); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("interior corruption: err = %v, want structured ErrIO", err)
	}
}
