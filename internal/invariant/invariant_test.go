package invariant

import (
	"errors"
	"math/rand"
	"testing"

	"luf/internal/cert"
	"luf/internal/core"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/pmap"
)

func buildUF(t *testing.T, seed int64, ops int) (*core.UF[int, group.DeltaLabel], []cert.Entry[int, group.DeltaLabel]) {
	t.Helper()
	j := cert.NewJournal[int, group.DeltaLabel](group.Delta{})
	u := core.New[int, group.DeltaLabel](group.Delta{},
		core.WithSeed[int, group.DeltaLabel](seed),
		core.WithRecorder(j.Record))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		n, m := rng.Intn(40), rng.Intn(40)
		l := int64(rng.Intn(21) - 10)
		// Only assert consistent relations so the audit log stays
		// recomposable (conflicting calls are rejected, not recorded).
		if got, ok := u.GetRelation(n, m); ok && got != l {
			l = got
		}
		u.AddRelation(n, m, l)
	}
	return u, j.Entries()
}

func TestCheckUFAcceptsValid(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		u, entries := buildUF(t, seed, 300)
		if err := CheckUF(u, entries); err != nil {
			t.Fatalf("seed %d: valid UF rejected: %v", seed, err)
		}
	}
}

func TestCheckUFCatchesLabelCorruption(t *testing.T) {
	u, entries := buildUF(t, 7, 200)
	// Corrupt one edge's label: relations recomposed through it will
	// disagree with the audited assertions.
	corrupted := false
	u.ForEachEdge(func(n int, e core.Edge[int, group.DeltaLabel]) {
		if !corrupted {
			u.InjectEdge(n, core.Edge[int, group.DeltaLabel]{Parent: e.Parent, Label: e.Label + 1})
			corrupted = true
		}
	})
	if !corrupted {
		t.Fatal("no edges to corrupt")
	}
	if err := CheckUF(u, entries); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("label corruption must report ErrInvariantViolated, got %v", err)
	}
}

// TestCheckUFLabelCorruptionNeedsEntries: a relabeled edge keeps the
// forest and the class rings well formed, so only the recorded entries
// expose it. The structure check alone passes; given the journal's
// entries, CheckUF recomposes them and reports the violation.
func TestCheckUFLabelCorruptionNeedsEntries(t *testing.T) {
	j := cert.NewJournal[string, group.DeltaLabel](group.Delta{})
	u := core.New[string, group.DeltaLabel](group.Delta{}, core.WithRecorder(j.Record))
	u.AddRelationReason("a", "b", 3, "r1")
	u.AddRelationReason("b", "c", 4, "r2")
	if err := CheckUF(u, j.Entries()); err != nil {
		t.Fatalf("healthy structure flagged: %v", err)
	}
	u.ForEachEdge(func(n string, e core.Edge[string, group.DeltaLabel]) {
		u.InjectEdge(n, core.Edge[string, group.DeltaLabel]{Parent: e.Parent, Label: e.Label + 1})
	})
	if err := CheckUF(u, nil); err != nil {
		t.Fatalf("structure-only check flagged a relabeled edge: %v", err)
	}
	if err := CheckUF(u, j.Entries()); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("relabeled edge with journal entries: got %v, want ErrInvariantViolated", err)
	}
}

func TestCheckUFCatchesCycle(t *testing.T) {
	u := core.New[int, group.DeltaLabel](group.Delta{})
	u.AddRelation(1, 2, 5)
	u.AddRelation(2, 3, 5)
	r, _ := u.Find(1)
	// Point the root back into its own class: a cycle.
	var other int
	for _, m := range u.Class(1) {
		if m != r {
			other = m
			break
		}
	}
	u.InjectEdge(r, core.Edge[int, group.DeltaLabel]{Parent: other, Label: 1})
	if err := CheckUF(u, nil); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("cycle must report ErrInvariantViolated, got %v", err)
	}
}

func TestCheckUFCatchesStrayEdge(t *testing.T) {
	u, entries := buildUF(t, 9, 100)
	// A node pointing into a class whose ring does not hold it.
	u.InjectEdge(991, core.Edge[int, group.DeltaLabel]{Parent: 992, Label: 3})
	if err := CheckUF(u, entries); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("stray edge must report ErrInvariantViolated, got %v", err)
	}
}

type intervalInfo struct{ lo, hi int64 }

type deltaAction struct{}

func (deltaAction) Apply(l group.DeltaLabel, i intervalInfo) intervalInfo {
	// n --l--> m with σ(m) = σ(n) + l; if i describes m, then n is i - l.
	return intervalInfo{lo: i.lo - l, hi: i.hi - l}
}
func (deltaAction) Meet(a, b intervalInfo) intervalInfo {
	if b.lo > a.lo {
		a.lo = b.lo
	}
	if b.hi < a.hi {
		a.hi = b.hi
	}
	return a
}
func (deltaAction) Top() intervalInfo {
	return intervalInfo{lo: -1 << 40, hi: 1 << 40}
}

func TestCheckInfoUF(t *testing.T) {
	j := cert.NewJournal[int, group.DeltaLabel](group.Delta{})
	base := core.New[int, group.DeltaLabel](group.Delta{}, core.WithRecorder(j.Record))
	u := core.NewInfo[int, group.DeltaLabel, intervalInfo](base, deltaAction{})
	u.AddRelation(1, 2, 3)
	u.AddRelation(2, 3, 4)
	u.AddInfo(1, intervalInfo{lo: 0, hi: 10})
	u.AddInfo(3, intervalInfo{lo: 5, hi: 50})
	if err := CheckInfoUF(u, j.Entries()); err != nil {
		t.Fatalf("valid InfoUF rejected: %v", err)
	}
	// Stash info at a non-representative: must be caught.
	r, _ := u.Find(1)
	var nonRoot int
	for _, m := range u.Class(1) {
		if m != r {
			nonRoot = m
			break
		}
	}
	// Store info at the root, then corrupt through the edge map:
	// inject an edge for the node that carries info, so it is no
	// longer a root.
	u.SetRoot(r, intervalInfo{lo: 1, hi: 2})
	u.InjectEdge(r, core.Edge[int, group.DeltaLabel]{Parent: 999, Label: 0})
	_ = nonRoot
	if err := CheckInfoUF(u, j.Entries()); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("info at non-root must report ErrInvariantViolated, got %v", err)
	}
}

func buildPUF(seed int64, ops int) core.PUF[group.DeltaLabel] {
	u := core.NewPersistent[group.DeltaLabel](group.Delta{})
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		n, m := rng.Intn(30), rng.Intn(30)
		u, _ = u.AddRelation(n, m, int64(rng.Intn(11)-5), nil)
	}
	return u
}

func TestCheckPUFAcceptsValid(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		u := buildPUF(seed, 200)
		if err := CheckPUF(u); err != nil {
			t.Fatalf("seed %d: valid PUF rejected: %v", seed, err)
		}
		// Inter results must satisfy the invariants too (Appendix A).
		v := buildPUF(seed+100, 200)
		if err := CheckPUF(core.Inter(u, v)); err != nil {
			t.Fatalf("seed %d: Inter result rejected: %v", seed, err)
		}
	}
}

func TestCheckPUFCatchesCorruption(t *testing.T) {
	u := buildPUF(3, 150)

	// Pick a non-root node and a root.
	var nonRoot, root = -1, -1
	u.ForEachEdge(func(n int, e core.PEdge[group.DeltaLabel]) bool {
		if n != e.Parent && nonRoot < 0 {
			nonRoot = n
		}
		if n == e.Parent && root < 0 {
			root = n
		}
		return nonRoot < 0 || root < 0
	})
	if nonRoot < 0 || root < 0 {
		t.Fatal("test PUF too small")
	}

	cases := map[string]core.PUF[group.DeltaLabel]{
		// Root self-pointing with a non-identity label.
		"root-label": u.InjectEdge(root, core.PEdge[group.DeltaLabel]{Parent: root, Label: 1}),
		// Node pointing at a non-root (collapse violated).
		"not-collapsed": u.InjectEdge(root, core.PEdge[group.DeltaLabel]{Parent: nonRoot, Label: 0}),
		// Node added to the parent map but not to any class.
		"class-mismatch": u.InjectEdge(10000, core.PEdge[group.DeltaLabel]{Parent: 10000, Label: 0}),
	}
	for name, bad := range cases {
		if err := CheckPUF(bad); !errors.Is(err, fault.ErrInvariantViolated) {
			t.Errorf("%s: want ErrInvariantViolated, got %v", name, err)
		}
	}

	// Non-minimal representative: re-point the minimal member of a
	// multi-node class at the larger one.
	var big2 = -1
	u.ForEachEdge(func(n int, e core.PEdge[group.DeltaLabel]) bool {
		if n != e.Parent && n > e.Parent {
			big2 = n
			return false
		}
		return true
	})
	if big2 >= 0 {
		r, _ := u.Find(big2)
		bad := u.InjectEdge(r, core.PEdge[group.DeltaLabel]{Parent: big2, Label: 0}).
			InjectEdge(big2, core.PEdge[group.DeltaLabel]{Parent: big2, Label: 0})
		if err := CheckPUF(bad); !errors.Is(err, fault.ErrInvariantViolated) {
			t.Errorf("non-minimal rep: want ErrInvariantViolated, got %v", err)
		}
	}
}

func TestCheckPmap(t *testing.T) {
	var m pmap.Map[int]
	for i := 0; i < 100; i++ {
		m = m.Set(i*7%64, i)
	}
	if err := CheckPmap(m); err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}
	if err := CheckPmap(pmap.InjectBroken(1, 2)); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("broken map must report ErrInvariantViolated, got %v", err)
	}
}
