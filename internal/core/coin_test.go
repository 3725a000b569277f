package core

import (
	"math/rand"
	"testing"

	"luf/internal/group"
)

// TestDefaultCoinMatchesSeedOne: the default linking coin replays a
// shared table and then switches to a live source, and across that
// boundary it must give exactly the flips of a source seeded 1, so tree
// shapes stay what they were when every union-find seeded its own.
// WithSeed(1) takes the live-source path from the start and must agree.
func TestDefaultCoinMatchesSeedOne(t *testing.T) {
	want := rand.New(rand.NewSource(1))
	lazy := New[int, group.DeltaLabel](group.Delta{})
	eager := New[int, group.DeltaLabel](group.Delta{}, WithSeed[int, group.DeltaLabel](1))
	for i := range 2*replayedFlips + 100 {
		w := want.Intn(2)
		if got := lazy.coin(); got != w {
			t.Fatalf("default coin flip %d = %d, want %d", i, got, w)
		}
		if got := eager.coin(); got != w {
			t.Fatalf("WithSeed(1) coin flip %d = %d, want %d", i, got, w)
		}
	}
	if lazy.rng == nil {
		t.Fatal("default coin never left the replayed table")
	}
}
