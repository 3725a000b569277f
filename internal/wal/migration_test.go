package wal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"luf/internal/fault"
)

// mrec is the migration record type the tests fold.
type mrec = MigrationRecord[string]

// migrationPath returns the test's migration log path inside a fresh dir.
func migrationPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "migrations.luf")
}

// TestMigrationLogRoundTrip drives the full lifecycle across restarts:
// every state transition must survive a reopen, the Flipped record's
// node list and map epoch must recover verbatim, and every reopen must
// bump the fencing epoch durably.
func TestMigrationLogRoundTrip(t *testing.T) {
	path := migrationPath(t)
	ml, err := OpenMigrations(path, DeltaCodec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ml.Epoch(); got != 1 {
		t.Fatalf("first open epoch = %d, want 1", got)
	}
	id1, err := ml.Begin(mrec{Class: "rep-1", From: "alpha", To: "beta", Reason: "rebalance: 5 bridges"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ml.Transition(mrec{ID: id1, State: MigrationFrozen}); err != nil {
		t.Fatal(err)
	}
	if err := ml.Transition(mrec{ID: id1, State: MigrationCopying, Copied: 3}); err != nil {
		t.Fatal(err)
	}
	if err := ml.Transition(mrec{ID: id1, State: MigrationCopying, Copied: 9}); err != nil {
		t.Fatal(err)
	}
	if err := ml.Transition(mrec{ID: id1, State: MigrationVerifying}); err != nil {
		t.Fatal(err)
	}
	if err := ml.Transition(mrec{ID: id1, State: MigrationFlipped, MapEpoch: 7, Nodes: []string{"rep-1", "m2", "m3"}}); err != nil {
		t.Fatal(err)
	}
	if err := ml.Transition(mrec{ID: id1, State: MigrationDone}); err != nil {
		t.Fatal(err)
	}
	id2, err := ml.Begin(mrec{Class: "rep-2", From: "beta", To: "gamma", Reason: "operator"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ml.Transition(mrec{ID: id2, State: MigrationFrozen}); err != nil {
		t.Fatal(err)
	}
	if err := ml.Transition(mrec{ID: id2, State: MigrationAborted}); err != nil {
		t.Fatal(err)
	}
	// id3 stays planned: a crash now presumes it aborted.
	id3, err := ml.Begin(mrec{Class: "rep-3", From: "gamma", To: "alpha", Reason: "rebalance"})
	if err != nil {
		t.Fatal(err)
	}
	if id1 != 1 || id2 != 2 || id3 != 3 {
		t.Fatalf("migration ids = %d,%d,%d, want 1,2,3", id1, id2, id3)
	}
	if err := ml.Close(); err != nil {
		t.Fatal(err)
	}

	ml2, err := OpenMigrations(path, DeltaCodec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ml2.Close()
	if got := ml2.Epoch(); got != 2 {
		t.Fatalf("second open epoch = %d, want 2", got)
	}
	want := map[uint64]MigrationState{id1: MigrationDone, id2: MigrationAborted, id3: MigrationPlanned}
	got := ml2.Records()
	if len(got) != len(want) {
		t.Fatalf("recovered %d migrations, want %d", len(got), len(want))
	}
	for _, r := range got {
		if r.State != want[r.ID] {
			t.Fatalf("migration %d recovered as %v, want %v", r.ID, r.State, want[r.ID])
		}
	}
	r1, ok := ml2.Get(id1)
	if !ok || r1.Class != "rep-1" || r1.From != "alpha" || r1.To != "beta" ||
		r1.MapEpoch != 7 || r1.Copied != 9 || !reflect.DeepEqual(r1.Nodes, []string{"rep-1", "m2", "m3"}) {
		t.Fatalf("flipped migration body lost in recovery: %+v", r1)
	}
	r3, ok := ml2.Get(id3)
	if !ok || r3.Class != "rep-3" || r3.From != "gamma" || r3.To != "alpha" || r3.Reason != "rebalance" {
		t.Fatalf("planned migration body lost in recovery: %+v", r3)
	}
	// New migrations resume above the highest recovered ID.
	id4, err := ml2.Begin(mrec{Class: "rep-4", From: "alpha", To: "gamma", Reason: "resume"})
	if err != nil {
		t.Fatal(err)
	}
	if id4 != 4 {
		t.Fatalf("post-recovery migration id = %d, want 4", id4)
	}
	if r4, _ := ml2.Get(id4); r4.Epoch != 2 {
		t.Fatalf("post-recovery migration epoch = %d, want 2", r4.Epoch)
	}
}

// TestMigrationLifecycleEnforced rejects every backward or skipped
// transition; idempotent repeats are no-ops.
func TestMigrationLifecycleEnforced(t *testing.T) {
	ml, err := OpenMigrations(migrationPath(t), DeltaCodec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ml.Close()
	id, err := ml.Begin(mrec{Class: "rep", From: "alpha", To: "beta", Reason: "r"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ml.Transition(mrec{ID: id, State: MigrationFlipped, MapEpoch: 1, Nodes: nil}); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("flip from planned: err = %v, want invariant violation", err)
	}
	if err := ml.Transition(mrec{ID: id, State: MigrationDone}); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("done before flip: err = %v, want invariant violation", err)
	}
	if err := ml.Transition(mrec{ID: id, State: MigrationCopying, Copied: 1}); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("copy before freeze: err = %v, want invariant violation", err)
	}
	if err := ml.Transition(mrec{ID: id, State: MigrationFlipped}); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("advance to flipped: err = %v, want invariant violation", err)
	}
	if err := ml.Transition(mrec{ID: id, State: MigrationFrozen}); err != nil {
		t.Fatal(err)
	}
	if err := ml.Transition(mrec{ID: id, State: MigrationFrozen}); err != nil {
		t.Fatalf("idempotent re-freeze: %v", err)
	}
	if err := ml.Transition(mrec{ID: id, State: MigrationVerifying}); err != nil {
		t.Fatal(err)
	}
	if err := ml.Transition(mrec{ID: id, State: MigrationCopying, Copied: 1}); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("copy after verify: err = %v, want invariant violation", err)
	}
	if err := ml.Transition(mrec{ID: id, State: MigrationFlipped, MapEpoch: 2, Nodes: []string{"rep"}}); err != nil {
		t.Fatal(err)
	}
	if err := ml.Transition(mrec{ID: id, State: MigrationAborted}); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("abort after flip: err = %v, want invariant violation (the decision stands)", err)
	}
	if err := ml.Transition(mrec{ID: id, State: MigrationDone}); err != nil {
		t.Fatal(err)
	}
	if err := ml.Transition(mrec{ID: id, State: MigrationDone}); err != nil {
		t.Fatalf("idempotent re-done: %v", err)
	}
	if err := ml.Transition(mrec{ID: 999, State: MigrationAborted}); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("abort unknown migration: err = %v, want invariant violation", err)
	}
}

// TestMigrationCrashPointMatrix is the rebalancing half of the
// acceptance matrix: a migration log exercising every record shape is
// truncated at every byte offset and reopened. For every cut, recovery
// must fold exactly the surviving record prefix — in particular a torn
// Flipped frame leaves its migration pre-decision (presumed abort),
// while a surviving Flipped frame must recover map epoch and node list
// intact — and the repaired log must accept new migrations and recover
// once more.
func TestMigrationCrashPointMatrix(t *testing.T) {
	path := migrationPath(t)
	ml, err := OpenMigrations(path, DeltaCodec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ml.Begin(mrec{Class: "rep-a", From: "alpha", To: "beta", Reason: "first-move"})
	if err := ml.Transition(mrec{ID: a, State: MigrationFrozen}); err != nil {
		t.Fatal(err)
	}
	if err := ml.Transition(mrec{ID: a, State: MigrationCopying, Copied: 4}); err != nil {
		t.Fatal(err)
	}
	if err := ml.Transition(mrec{ID: a, State: MigrationVerifying}); err != nil {
		t.Fatal(err)
	}
	if err := ml.Transition(mrec{ID: a, State: MigrationFlipped, MapEpoch: 3, Nodes: []string{"rep-a", "member-two", "member-three"}}); err != nil {
		t.Fatal(err)
	}
	if err := ml.Transition(mrec{ID: a, State: MigrationDone}); err != nil {
		t.Fatal(err)
	}
	b, _ := ml.Begin(mrec{Class: "rep-b", From: "beta", To: "gamma", Reason: "second-move"})
	if err := ml.Transition(mrec{ID: b, State: MigrationFrozen}); err != nil {
		t.Fatal(err)
	}
	if err := ml.Transition(mrec{ID: b, State: MigrationAborted}); err != nil {
		t.Fatal(err)
	}
	if _, err := ml.Begin(mrec{Class: "rep-c", From: "alpha", To: "gamma", Reason: "a-reason-long-enough-to-cut-inside"}); err != nil {
		t.Fatal(err)
	}
	if err := ml.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Expected fold at a cut: replay DecodeAll's surviving migrations
	// through the same lifecycle rules.
	foldPrefix := func(cut int) map[uint64]MigrationRecord[string] {
		res, err := DecodeAll(image[:cut], DeltaCodec{})
		if err != nil {
			t.Fatalf("cut at %d: decode: %v", cut, err)
		}
		folded, _, err := foldDecisions(res.Migrations)
		if err != nil {
			t.Fatalf("cut at %d: fold: %v", cut, err)
		}
		return folded
	}

	scratch := t.TempDir()
	for cut := 0; cut <= len(image); cut++ {
		p := filepath.Join(scratch, "migrations.luf")
		if err := os.WriteFile(p, image[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rl, err := OpenMigrations(p, DeltaCodec{}, nil)
		if err != nil {
			t.Fatalf("cut at %d: recovery failed on pure truncation: %v", cut, err)
		}
		want := foldPrefix(cut)
		got := rl.Records()
		if len(got) != len(want) {
			t.Fatalf("cut at %d: recovered %d migrations, surviving prefix has %d", cut, len(got), len(want))
		}
		for _, r := range got {
			w := want[r.ID]
			if r.State != w.State {
				t.Fatalf("cut at %d: migration %d recovered as %v, want %v", cut, r.ID, r.State, w.State)
			}
			// A decided flip must never lose its override payload: that
			// is what rebuilds routing after a coordinator crash.
			if w.State == MigrationFlipped || w.State == MigrationDone {
				if r.MapEpoch != w.MapEpoch || !reflect.DeepEqual(r.Nodes, w.Nodes) {
					t.Fatalf("cut at %d: migration %d flip payload = (%d, %v), want (%d, %v)",
						cut, r.ID, r.MapEpoch, r.Nodes, w.MapEpoch, w.Nodes)
				}
			}
		}
		// The repaired log must keep working: a full fresh lifecycle,
		// reopen, and see it folded.
		id, err := rl.Begin(mrec{Class: "rep-post", From: "alpha", To: "beta", Reason: "resume"})
		if err != nil {
			t.Fatalf("cut at %d: begin after repair: %v", cut, err)
		}
		if err := rl.Transition(mrec{ID: id, State: MigrationAborted}); err != nil {
			t.Fatalf("cut at %d: abort after repair: %v", cut, err)
		}
		if err := rl.Close(); err != nil {
			t.Fatalf("cut at %d: close after repair: %v", cut, err)
		}
		rl2, err := OpenMigrations(p, DeltaCodec{}, nil)
		if err != nil {
			t.Fatalf("cut at %d: second recovery: %v", cut, err)
		}
		if len(rl2.Records()) != len(want)+1 {
			t.Fatalf("cut at %d: second recovery folded %d migrations, want %d", cut, len(rl2.Records()), len(want)+1)
		}
		rl2.Close()
	}
}

// TestMigrationMidFileCorruptionRefused flips one byte inside an
// interior migration frame: recovery must refuse with a structured
// ErrIO, never silently drop or alter a decided flip.
func TestMigrationMidFileCorruptionRefused(t *testing.T) {
	path := migrationPath(t)
	ml, err := OpenMigrations(path, DeltaCodec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := ml.Begin(mrec{Class: "rep", From: "alpha", To: "beta", Reason: "r"})
	if err := ml.Transition(mrec{ID: id, State: MigrationFrozen}); err != nil {
		t.Fatal(err)
	}
	if _, err := ml.Begin(mrec{Class: "rep2", From: "beta", To: "gamma", Reason: "r2"}); err != nil {
		t.Fatal(err)
	}
	if err := ml.Close(); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
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
	if _, err := OpenMigrations(path, DeltaCodec{}, nil); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("interior corruption: err = %v, want structured ErrIO", err)
	}
	// The scrubber's aux-log pass must catch the same damage offline.
	if _, err := VerifyAuxLog(path, DeltaCodec{}); !errors.Is(err, fault.ErrIO) {
		t.Fatalf("VerifyAuxLog on interior corruption: err = %v, want structured ErrIO", err)
	}
}
