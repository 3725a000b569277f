package core

import (
	"math/rand"
	"testing"

	"luf/internal/group"
	"luf/internal/pmap"
)

func TestPUFBasic(t *testing.T) {
	u := NewPersistent[group.DeltaLabel](group.Delta{})
	u1, ok := u.AddRelation(0, 1, 2, nil)
	if !ok {
		t.Fatal("add failed")
	}
	u2, ok := u1.AddRelation(1, 2, 3, nil)
	if !ok {
		t.Fatal("add failed")
	}
	if l, ok := u2.GetRelation(0, 2); !ok || l != 5 {
		t.Errorf("0->2 = %d,%v", l, ok)
	}
	// Persistence: u1 must not know about node 2's relation.
	if _, ok := u1.GetRelation(0, 2); ok {
		t.Error("persistence violated")
	}
	if _, ok := u.GetRelation(0, 1); ok {
		t.Error("persistence violated on empty version")
	}
	if u2.NumNodes() != 3 {
		t.Errorf("NumNodes = %d", u2.NumNodes())
	}
}

func TestPUFInvariants(t *testing.T) {
	// Eager compression, minimal representative, self-pointing roots,
	// classes include the representative.
	rng := rand.New(rand.NewSource(17))
	u := NewPersistent[group.DeltaLabel](group.Delta{})
	for i := 0; i < 100; i++ {
		u, _ = u.AddRelation(rng.Intn(40), rng.Intn(40), int64(rng.Intn(5)), nil)
	}
	u.parent.ForEach(func(n int, e PEdge[group.DeltaLabel]) bool {
		pe, ok := u.parent.Get(e.Parent)
		if !ok || pe.Parent != e.Parent {
			t.Fatalf("parent of %d is not a self-pointing root", n)
		}
		if e.Parent > n {
			t.Fatalf("representative %d of %d is not minimal", e.Parent, n)
		}
		if e.Parent == n && e.Label != 0 {
			t.Fatalf("root %d has non-identity self label", n)
		}
		cls, ok := u.classes.Get(e.Parent)
		if !ok || !cls.Contains(n) {
			t.Fatalf("class map misses %d under %d", n, e.Parent)
		}
		return true
	})
}

func TestPUFConflict(t *testing.T) {
	u := NewPersistent[group.DeltaLabel](group.Delta{})
	u, _ = u.AddRelation(0, 1, 2, nil)
	called := false
	u2, ok := u.AddRelation(0, 1, 3, func(c Conflict[int, group.DeltaLabel]) {
		called = true
		if c.Old != 2 || c.New != 3 {
			t.Errorf("conflict payload %+v", c)
		}
	})
	if ok || !called {
		t.Error("conflict not reported")
	}
	if l, _ := u2.GetRelation(0, 1); l != 2 {
		t.Error("conflict modified structure")
	}
}

func TestPUFMatchesMutable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		m := New[int, group.DeltaLabel](group.Delta{}, WithSeed[int, group.DeltaLabel](int64(trial)))
		p := NewPersistent[group.DeltaLabel](group.Delta{})
		const nodes = 15
		for step := 0; step < 50; step++ {
			n, mm, l := rng.Intn(nodes), rng.Intn(nodes), int64(rng.Intn(7)-3)
			okM := m.AddRelation(n, mm, l)
			var okP bool
			p, okP = p.AddRelation(n, mm, l, nil)
			if okM != okP {
				t.Fatalf("trial %d: divergent conflict behaviour", trial)
			}
		}
		for n := 0; n < nodes; n++ {
			for mm := 0; mm < nodes; mm++ {
				lm, okm := m.GetRelation(n, mm)
				lp, okp := p.GetRelation(n, mm)
				if okm != okp || (okm && lm != lp) {
					t.Fatalf("trial %d: (%d,%d) mutable=%d,%v persistent=%d,%v",
						trial, n, mm, lm, okm, lp, okp)
				}
			}
		}
	}
}

func TestInterBasic(t *testing.T) {
	base := NewPersistent[group.DeltaLabel](group.Delta{})
	base, _ = base.AddRelation(0, 1, 5, nil) // shared in both branches

	a := base
	a, _ = a.AddRelation(1, 2, 1, nil)
	a, _ = a.AddRelation(3, 4, 7, nil)

	b := base
	b, _ = b.AddRelation(1, 2, 1, nil)  // same as a
	b, _ = b.AddRelation(3, 4, 99, nil) // different label than a

	i := Inter(a, b)
	if l, ok := i.GetRelation(0, 1); !ok || l != 5 {
		t.Errorf("0->1 = %d,%v, want 5", l, ok)
	}
	if l, ok := i.GetRelation(1, 2); !ok || l != 1 {
		t.Errorf("1->2 = %d,%v, want 1", l, ok)
	}
	if _, ok := i.GetRelation(3, 4); ok {
		t.Error("3->4 must be dropped (labels disagree)")
	}
	if l, ok := i.GetRelation(0, 2); !ok || l != 6 {
		t.Errorf("0->2 = %d,%v, want 6", l, ok)
	}
}

// TestInterTheoremA1 fuzzes Inter against the definition: the result
// relates n--ℓ-->m iff both inputs relate them with the same ℓ.
func TestInterTheoremA1(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 60; trial++ {
		const nodes = 14
		base := NewPersistent[group.DeltaLabel](group.Delta{})
		for i := 0; i < rng.Intn(15); i++ {
			base, _ = base.AddRelation(rng.Intn(nodes), rng.Intn(nodes), int64(rng.Intn(5)-2), nil)
		}
		a, b := base, base
		for i := 0; i < rng.Intn(12); i++ {
			a, _ = a.AddRelation(rng.Intn(nodes), rng.Intn(nodes), int64(rng.Intn(5)-2), nil)
		}
		for i := 0; i < rng.Intn(12); i++ {
			b, _ = b.AddRelation(rng.Intn(nodes), rng.Intn(nodes), int64(rng.Intn(5)-2), nil)
		}
		got := Inter(a, b)
		for n := 0; n < nodes; n++ {
			for m := 0; m < nodes; m++ {
				la, oka := a.GetRelation(n, m)
				lb, okb := b.GetRelation(n, m)
				lg, okg := got.GetRelation(n, m)
				want := oka && okb && la == lb
				if okg != want {
					t.Fatalf("trial %d (%d,%d): inter related=%v want %v (a=%v,%d b=%v,%d)",
						trial, n, m, okg, want, oka, la, okb, lb)
				}
				if okg && lg != la {
					t.Fatalf("trial %d (%d,%d): label %d want %d", trial, n, m, lg, la)
				}
			}
		}
		checkPUFInvariants(t, got)
	}
}

// TestInterTheoremA1Perm is TestInterTheoremA1 over S₃ (group.Perm(3)),
// which is not commutative: Delta labels cannot tell Compose(a, b) from
// Compose(b, a), so only this variant checks the composition order of
// Inter's edge matching.
func TestInterTheoremA1Perm(t *testing.T) {
	g := group.MustPerm(3)
	rng := rand.New(rand.NewSource(31))
	const nodes = 8
	add := func(u PUF[group.PermLabel], k int) PUF[group.PermLabel] {
		for range rng.Intn(k) {
			u, _ = u.AddRelation(rng.Intn(nodes), rng.Intn(nodes), group.PermLabel(rng.Perm(3)), nil)
		}
		return u
	}
	for trial := 0; trial < 300; trial++ {
		base := add(NewPersistent[group.PermLabel](g), 8)
		a, b := add(base, 6), add(base, 6)
		got := Inter(a, b)
		for n := 0; n < nodes; n++ {
			for m := 0; m < nodes; m++ {
				la, oka := a.GetRelation(n, m)
				lb, okb := b.GetRelation(n, m)
				lg, okg := got.GetRelation(n, m)
				want := oka && okb && g.Equal(la, lb)
				if okg != want {
					t.Fatalf("trial %d (%d,%d): inter related=%v want %v (a=%v,%v b=%v,%v)",
						trial, n, m, okg, want, oka, la, okb, lb)
				}
				if okg && !g.Equal(lg, la) {
					t.Fatalf("trial %d (%d,%d): label %v want %v", trial, n, m, lg, la)
				}
			}
		}
		checkPUFInvariants(t, got)
	}
}

func checkPUFInvariants[L any](t *testing.T, u PUF[L]) {
	t.Helper()
	u.parent.ForEach(func(n int, e PEdge[L]) bool {
		pe, ok := u.parent.Get(e.Parent)
		if !ok || pe.Parent != e.Parent {
			t.Fatalf("invariant: parent of %d not a root", n)
		}
		if e.Parent > n {
			t.Fatalf("invariant: rep %d of %d not minimal", e.Parent, n)
		}
		cls, ok := u.classes.Get(e.Parent)
		if !ok || !cls.Contains(n) {
			t.Fatalf("invariant: class of %d misses %d", e.Parent, n)
		}
		return true
	})
	u.classes.ForEach(func(r int, cls pmap.Set) bool {
		e, ok := u.parent.Get(r)
		if !ok || e.Parent != r {
			t.Fatalf("invariant: class key %d is not a root", r)
		}
		cls.ForEach(func(n int) bool {
			e, ok := u.parent.Get(n)
			if !ok || e.Parent != r {
				t.Fatalf("invariant: %d listed under %d but points to %v", n, r, e)
			}
			return true
		})
		return true
	})
}

func TestInterIdentical(t *testing.T) {
	u := NewPersistent[group.DeltaLabel](group.Delta{})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		u, _ = u.AddRelation(rng.Intn(20), rng.Intn(20), int64(rng.Intn(5)), nil)
	}
	i := Inter(u, u)
	for n := 0; n < 20; n++ {
		for m := 0; m < 20; m++ {
			lu, oku := u.GetRelation(n, m)
			li, oki := i.GetRelation(n, m)
			if oku != oki || (oku && lu != li) {
				t.Fatalf("Inter(u,u) differs at (%d,%d)", n, m)
			}
		}
	}
}

func TestInterWithEmpty(t *testing.T) {
	u := NewPersistent[group.DeltaLabel](group.Delta{})
	u, _ = u.AddRelation(0, 1, 3, nil)
	empty := NewPersistent[group.DeltaLabel](group.Delta{})
	i := Inter(u, empty)
	if _, ok := i.GetRelation(0, 1); ok {
		t.Error("intersection with empty must drop relations")
	}
}
