package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"luf/internal/cert"
	"luf/internal/fault"
	"luf/internal/group"
)

// TestConflictCallbackReentrancy: a ConflictFunc that calls back into
// AddRelation violates Theorem 3.1's hypothesis. The structure must
// refuse the reentrant call without mutating, record the misuse as an
// ErrConflict-classified error, and stay consistent.
func TestConflictCallbackReentrancy(t *testing.T) {
	var u *UF[string, group.DeltaLabel]
	reentered := false
	u = New[string, group.DeltaLabel](group.Delta{},
		WithConflictHandler[string, group.DeltaLabel](func(c Conflict[string, group.DeltaLabel]) {
			reentered = true
			// Misuse: mutate from inside the callback.
			if u.AddRelation("a", "b", 42) {
				t.Error("reentrant AddRelation must report failure")
			}
		}))
	u.AddRelation("x", "y", 2)
	if u.AddRelation("x", "y", 3) {
		t.Fatal("conflicting add must report failure")
	}
	if !reentered {
		t.Fatal("conflict handler did not run")
	}
	if err := u.Misuse(); !errors.Is(err, fault.ErrConflict) {
		t.Fatalf("Misuse() = %v, want ErrConflict-wrapped error", err)
	}
	// The reentrant call must not have corrupted or extended the state.
	if u.Related("a", "b") {
		t.Error("reentrant AddRelation mutated the structure")
	}
	if l, ok := u.GetRelation("x", "y"); !ok || l != 2 {
		t.Errorf("original relation damaged: %d, %v", l, ok)
	}
	// A later, legal add still works.
	if !u.AddRelation("a", "b", 7) {
		t.Error("legal AddRelation after misuse must succeed")
	}
	if l, ok := u.GetRelation("a", "b"); !ok || l != 7 {
		t.Errorf("post-misuse relation = %d, %v", l, ok)
	}
}

// TestPanickingConflictCallback: a ConflictFunc that panics must not
// leave the reentrancy flag stuck (which would make every later
// AddRelation report misuse).
func TestPanickingConflictCallback(t *testing.T) {
	u := New[string, group.DeltaLabel](group.Delta{},
		WithConflictHandler[string, group.DeltaLabel](func(Conflict[string, group.DeltaLabel]) {
			panic("callback exploded")
		}))
	u.AddRelation("x", "y", 2)
	func() {
		defer func() { recover() }()
		u.AddRelation("x", "y", 3)
	}()
	if !u.AddRelation("p", "q", 1) {
		t.Error("AddRelation after a panicking callback must still work")
	}
	if u.Misuse() != nil {
		t.Errorf("no misuse occurred, got %v", u.Misuse())
	}
}

// FuzzUFOracle differentially fuzzes the labeled union-find against
// the brute-force BFS reference (Theorem 3.1): random relation scripts
// must produce identical relations, and no input may panic.
func FuzzUFOracle(f *testing.F) {
	f.Add(int64(1), uint(40))
	f.Add(int64(7), uint(200))
	f.Add(int64(42), uint(3))
	f.Fuzz(func(t *testing.T, seed int64, ops uint) {
		checkUFOracle(t, group.Delta{}, seed, ops, func(rng *rand.Rand) group.DeltaLabel {
			return int64(rng.Intn(15) - 7)
		})
	})
}

// FuzzUFOraclePerm is FuzzUFOracle over S₃ (group.Perm(3)), which is
// not commutative, so it checks the composition order of UF.find's path
// labels and of the label AddRelation links the two roots with.
func FuzzUFOraclePerm(f *testing.F) {
	f.Add(int64(1), uint(40))
	f.Add(int64(7), uint(200))
	f.Add(int64(42), uint(3))
	f.Add(int64(-9), uint(120))
	f.Fuzz(func(t *testing.T, seed int64, ops uint) {
		checkUFOracle(t, group.MustPerm(3), seed, ops, func(rng *rand.Rand) group.PermLabel {
			return group.PermLabel(rng.Perm(3))
		})
	})
}

// checkUFOracle is FuzzUFOracle's body over the label group g; label
// draws a random label.
func checkUFOracle[L any](t *testing.T, g group.Group[L], seed int64, ops uint, label func(*rand.Rand) L) {
	if ops > 500 {
		ops = 500
	}
	const nodes = 25
	rng := rand.New(rand.NewSource(seed))
	u := New[int, L](g, WithSeed[int, L](seed))
	ref := newRef[L](g)
	for i := uint(0); i < ops; i++ {
		n, m := rng.Intn(nodes), rng.Intn(nodes)
		l := label(rng)
		want, related := ref.relation(n, m)
		ok := u.AddRelation(n, m, l)
		if related && !g.Equal(want, l) {
			if ok {
				t.Fatalf("op %d: conflicting add (%d,%d,%v) accepted; existing %v", i, n, m, l, want)
			}
			continue // conflicting edge: reference must not record it either
		}
		if !ok {
			t.Fatalf("op %d: consistent add (%d,%d,%v) rejected", i, n, m, l)
		}
		ref.add(n, m, l)
	}
	// Full cross-check of all pairs.
	for n := 0; n < nodes; n++ {
		for m := 0; m < nodes; m++ {
			want, wantOK := ref.relation(n, m)
			got, gotOK := u.GetRelation(n, m)
			if wantOK != gotOK {
				t.Fatalf("relation (%d,%d): related=%v, reference says %v", n, m, gotOK, wantOK)
			}
			if wantOK && !g.Equal(got, want) {
				t.Fatalf("relation (%d,%d) = %v, reference says %v", n, m, got, want)
			}
		}
	}
}

// FuzzPUFOracle differentially fuzzes the persistent labeled union-find
// (Appendix A) against the BFS reference: random relation scripts must
// produce identical relations on the final version AND on a mid-script
// snapshot (persistence), Inter of snapshot and final must relate
// exactly the pairs both relate with equal labels (Theorem A.1), and
// every reported relation must admit a journal certificate that the
// independent checker accepts.
func FuzzPUFOracle(f *testing.F) {
	f.Add(int64(1), uint(40))
	f.Add(int64(7), uint(200))
	f.Add(int64(42), uint(3))
	f.Add(int64(-9), uint(120))
	f.Fuzz(func(t *testing.T, seed int64, ops uint) {
		checkPUFOracle(t, group.Delta{}, seed, ops, func(rng *rand.Rand) group.DeltaLabel {
			return int64(rng.Intn(15) - 7)
		})
	})
}

// FuzzPUFOraclePerm is FuzzPUFOracle over S₃ (group.Perm(3)), which is
// not commutative: Delta labels cannot tell Compose(a, b) from
// Compose(b, a), so only this variant checks the composition order of
// GetRelation, AddRelation's conflict check and its re-pointing of the
// old class.
func FuzzPUFOraclePerm(f *testing.F) {
	f.Add(int64(1), uint(40))
	f.Add(int64(7), uint(200))
	f.Add(int64(42), uint(3))
	f.Add(int64(-9), uint(120))
	f.Fuzz(func(t *testing.T, seed int64, ops uint) {
		checkPUFOracle(t, group.MustPerm(3), seed, ops, func(rng *rand.Rand) group.PermLabel {
			return group.PermLabel(rng.Perm(3))
		})
	})
}

// checkPUFOracle is FuzzPUFOracle's body over the label group g; label
// draws a random label.
func checkPUFOracle[L any](t *testing.T, g group.Group[L], seed int64, ops uint, label func(*rand.Rand) L) {
	if ops > 400 {
		ops = 400
	}
	const nodes = 20
	rng := rand.New(rand.NewSource(seed))
	u := NewPersistent[L](g).WithRecording()
	ref := newRef[L](g)
	var snap PUF[L]
	var snapRef *refGraph[L]
	half := ops / 2
	for i := uint(0); i < ops; i++ {
		if i == half {
			snap, snapRef = u, ref.clone()
		}
		n, m := rng.Intn(nodes), rng.Intn(nodes)
		l := label(rng)
		want, related := ref.relation(n, m)
		next, ok := u.AddRelationReason(n, m, l, fmt.Sprintf("op#%d", i), nil)
		if related && !g.Equal(want, l) {
			if ok {
				t.Fatalf("op %d: conflicting add (%d,%d,%v) accepted; existing %v", i, n, m, l, want)
			}
			u = next
			continue
		}
		if !ok {
			t.Fatalf("op %d: consistent add (%d,%d,%v) rejected", i, n, m, l)
		}
		u = next
		ref.add(n, m, l)
	}
	if snapRef == nil { // scripts too short to snapshot mid-way
		snap, snapRef = u, ref
	}

	crossCheck := func(name string, pu PUF[L], r *refGraph[L]) {
		for n := 0; n < nodes; n++ {
			for m := 0; m < nodes; m++ {
				want, wantOK := r.relation(n, m)
				got, gotOK := pu.GetRelation(n, m)
				if wantOK != gotOK {
					t.Fatalf("%s relation (%d,%d): related=%v, reference says %v", name, n, m, gotOK, wantOK)
				}
				if wantOK && !g.Equal(got, want) {
					t.Fatalf("%s relation (%d,%d) = %v, reference says %v", name, n, m, got, want)
				}
			}
		}
	}
	crossCheck("final", u, ref)
	// Persistence: ops after the snapshot must not leak into it.
	crossCheck("snapshot", snap, snapRef)

	// Inter = abstract join: relates exactly the pairs both inputs
	// relate, with the common label (Theorem A.1).
	inter := Inter(snap, u)
	for n := 0; n < nodes; n++ {
		for m := 0; m < nodes; m++ {
			l1, ok1 := snap.GetRelation(n, m)
			l2, ok2 := u.GetRelation(n, m)
			want := ok1 && ok2 && g.Equal(l1, l2)
			got, gotOK := inter.GetRelation(n, m)
			if gotOK != want {
				t.Fatalf("inter relation (%d,%d): related=%v, want %v", n, m, gotOK, want)
			}
			if want && !g.Equal(got, l1) {
				t.Fatalf("inter relation (%d,%d) = %v, want %v", n, m, got, l1)
			}
		}
	}

	// Certificates: every relation the final version reports must be
	// derivable from its journal and survive the independent checker.
	j := cert.NewJournal[int, L](g)
	u.ForEachJournalEntry(j.Record)
	for n := 0; n < nodes; n++ {
		for m := 0; m < nodes; m++ {
			ans, ok := u.GetRelation(n, m)
			if !ok {
				continue
			}
			c, err := j.Explain(n, m)
			if err != nil {
				t.Fatalf("no certificate for related pair (%d,%d): %v", n, m, err)
			}
			c.Label = ans
			if err := cert.Check(c, g); err != nil {
				t.Fatalf("certificate for (%d,%d) rejected: %v", n, m, err)
			}
		}
	}
}
