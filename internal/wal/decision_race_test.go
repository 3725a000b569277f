package wal

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"luf/internal/fault"
)

// TestDecisionLogOneDeciderPerID races contradicting decisions on one
// id — Committed against Aborted for an intent, Flipped against Aborted
// for a migration — many times. Exactly one of each pair may win; the
// loser appends nothing and reports an invariant violation, so the log
// reopens cleanly with the winner's decision folded in. A same-state
// repeat racing the winner stays a no-op.
func TestDecisionLogOneDeciderPerID(t *testing.T) {
	const rounds = 40
	race := func(a, b func() error) (errs [2]error) {
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(2)
		go func() { defer wg.Done(); <-start; errs[0] = a() }()
		go func() { defer wg.Done(); <-start; errs[1] = b() }()
		close(start)
		wg.Wait()
		return errs
	}
	oneWinner := func(t *testing.T, what string, errs [2]error) (firstWon bool) {
		t.Helper()
		switch {
		case errs[0] == nil && errors.Is(errs[1], fault.ErrInvariantViolated):
			return true
		case errs[1] == nil && errors.Is(errs[0], fault.ErrInvariantViolated):
			return false
		}
		t.Fatalf("%s: errors %v, want exactly one winner and one invariant violation", what, errs)
		return false
	}

	t.Run("intents", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "intents.luf")
		il, err := OpenIntents(path, DeltaCodec{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := map[uint64]IntentState{}
		for i := 0; i < rounds; i++ {
			id, err := il.Begin(irec{GroupA: "alpha", GroupB: "beta", N: "a", M: "b", Label: 1})
			if err != nil {
				t.Fatal(err)
			}
			commitWon := oneWinner(t, "commit vs abort", race(
				func() error { return il.Transition(irec{ID: id, State: IntentCommitted}) },
				func() error { return il.Transition(irec{ID: id, State: IntentAborted}) },
			))
			want[id] = IntentAborted
			if commitWon {
				want[id] = IntentCommitted
			}
			// A repeat of the decision racing another repeat: both no-ops.
			if errs := race(
				func() error { return il.Transition(irec{ID: id, State: want[id]}) },
				func() error { return il.Transition(irec{ID: id, State: want[id]}) },
			); errs[0] != nil || errs[1] != nil {
				t.Fatalf("repeated %v: errors %v, want no-ops", want[id], errs)
			}
		}
		if err := il.Close(); err != nil {
			t.Fatal(err)
		}
		il, err = OpenIntents(path, DeltaCodec{}, nil)
		if err != nil {
			t.Fatalf("reopen after racing decisions: %v", err)
		}
		defer il.Close()
		for id, s := range want {
			if r, ok := il.Get(id); !ok || r.State != s {
				t.Fatalf("intent %d reopened as (%v, %v), want %v", id, r.State, ok, s)
			}
		}
	})

	t.Run("migrations", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "migrations.luf")
		ml, err := OpenMigrations(path, DeltaCodec{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := map[uint64]MigrationState{}
		for i := 0; i < rounds; i++ {
			id, err := ml.Begin(mrec{Class: "c", From: "alpha", To: "beta"})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []MigrationState{MigrationFrozen, MigrationVerifying} {
				if err := ml.Transition(mrec{ID: id, State: s}); err != nil {
					t.Fatal(err)
				}
			}
			flipWon := oneWinner(t, "flip vs abort", race(
				func() error {
					return ml.Transition(mrec{ID: id, State: MigrationFlipped, MapEpoch: 2, Nodes: []string{"c"}})
				},
				func() error { return ml.Transition(mrec{ID: id, State: MigrationAborted}) },
			))
			want[id] = MigrationAborted
			if flipWon {
				want[id] = MigrationFlipped
			}
		}
		if err := ml.Close(); err != nil {
			t.Fatal(err)
		}
		ml, err = OpenMigrations(path, DeltaCodec{}, nil)
		if err != nil {
			t.Fatalf("reopen after racing decisions: %v", err)
		}
		defer ml.Close()
		for id, s := range want {
			if r, ok := ml.Get(id); !ok || r.State != s {
				t.Fatalf("migration %d reopened as (%v, %v), want %v", id, r.State, ok, s)
			}
		}
	})
}
