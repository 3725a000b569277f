package core

import (
	"math/rand"
	"testing"

	"luf/internal/group"
	"luf/internal/rational"
)

// refGraph is a brute-force reference implementation: it stores the exact
// edges passed to AddRelation and recovers relations by BFS, composing
// labels along paths. Used to check Theorem 3.1.
type refGraph[L any] struct {
	g     group.Group[L]
	edges map[int][]refEdge[L]
}

type refEdge[L any] struct {
	to    int
	label L
}

func newRef[L any](g group.Group[L]) *refGraph[L] {
	return &refGraph[L]{g: g, edges: map[int][]refEdge[L]{}}
}

func (r *refGraph[L]) add(n, m int, l L) {
	r.edges[n] = append(r.edges[n], refEdge[L]{to: m, label: l})
	r.edges[m] = append(r.edges[m], refEdge[L]{to: n, label: r.g.Inverse(l)})
}

// clone deep-copies the reference so a snapshot can be checked against
// the structure's own persistent snapshots.
func (r *refGraph[L]) clone() *refGraph[L] {
	c := newRef[L](r.g)
	for n, es := range r.edges {
		c.edges[n] = append([]refEdge[L](nil), es...)
	}
	return c
}

// relation returns the label of some path n --> m, if any.
func (r *refGraph[L]) relation(n, m int) (L, bool) {
	type item struct {
		node  int
		label L
	}
	seen := map[int]bool{n: true}
	queue := []item{{n, r.g.Identity()}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.node == m {
			return it.label, true
		}
		for _, e := range r.edges[it.node] {
			if !seen[e.to] {
				seen[e.to] = true
				queue = append(queue, item{e.to, r.g.Compose(it.label, e.label)})
			}
		}
	}
	var zero L
	return zero, false
}

func TestFindUnknownNode(t *testing.T) {
	u := New[string, group.DeltaLabel](group.Delta{})
	r, l := u.Find("x")
	if r != "x" || l != 0 {
		t.Errorf("Find on unknown node = %q, %d", r, l)
	}
	if _, ok := u.GetRelation("x", "y"); ok {
		t.Error("unrelated nodes must return no relation")
	}
	if l, ok := u.GetRelation("x", "x"); !ok || l != 0 {
		t.Error("GetRelation(x,x) must be the identity")
	}
}

func TestBasicChain(t *testing.T) {
	u := New[string, group.DeltaLabel](group.Delta{})
	// y = x + 2, z = y + 3  =>  z = x + 5.
	if !u.AddRelation("x", "y", 2) || !u.AddRelation("y", "z", 3) {
		t.Fatal("adds must succeed")
	}
	if l, ok := u.GetRelation("x", "z"); !ok || l != 5 {
		t.Errorf("x->z = %d,%v want 5", l, ok)
	}
	if l, ok := u.GetRelation("z", "x"); !ok || l != -5 {
		t.Errorf("z->x = %d,%v want -5", l, ok)
	}
	if !u.Related("x", "z") || u.Related("x", "w") {
		t.Error("Related wrong")
	}
}

func TestRedundantAndConflict(t *testing.T) {
	var conflicts []Conflict[string, group.DeltaLabel]
	u := New[string, group.DeltaLabel](group.Delta{},
		WithConflictHandler[string, group.DeltaLabel](func(c Conflict[string, group.DeltaLabel]) {
			conflicts = append(conflicts, c)
		}))
	u.AddRelation("x", "y", 2)
	if !u.AddRelation("x", "y", 2) {
		t.Error("redundant add must succeed")
	}
	if u.Stats().Redundant != 1 {
		t.Errorf("Redundant = %d", u.Stats().Redundant)
	}
	if u.AddRelation("x", "y", 3) {
		t.Error("conflicting add must report failure")
	}
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %d", len(conflicts))
	}
	c := conflicts[0]
	if c.N != "x" || c.M != "y" || c.New != 3 || c.Old != 2 {
		t.Errorf("conflict payload = %+v", c)
	}
	// Conflict must not modify the structure (Theorem 3.1 hypothesis).
	if l, _ := u.GetRelation("x", "y"); l != 2 {
		t.Error("conflict modified the structure")
	}
}

func TestConflictAcrossClasses(t *testing.T) {
	// Merging two chains with an inconsistent cross edge.
	u := New[int, group.DeltaLabel](group.Delta{})
	u.AddRelation(1, 2, 10)
	u.AddRelation(3, 4, 20)
	u.AddRelation(1, 3, 1) // 3 = 1+1 => 4 = 1+21, 2 = 1+10
	if l, ok := u.GetRelation(2, 4); !ok || l != 11 {
		t.Errorf("2->4 = %d,%v want 11", l, ok)
	}
	if u.AddRelation(2, 4, 12) {
		t.Error("inconsistent edge must conflict")
	}
	if u.Stats().Conflicts != 1 || u.Stats().Unions != 3 {
		t.Errorf("stats = %+v", u.Stats())
	}
}

func TestTheorem31Randomized(t *testing.T) {
	// Fuzz against the brute-force reference on several label groups.
	t.Run("Delta", func(t *testing.T) {
		theorem31Fuzz(t, group.Delta{}, func(rng *rand.Rand) group.DeltaLabel {
			return int64(rng.Intn(21) - 10)
		})
	})
	t.Run("XorRot", func(t *testing.T) {
		g := group.MustXorRot(16)
		theorem31Fuzz[group.XRLabel](t, g, func(rng *rand.Rand) group.XRLabel {
			return g.NewLabel(uint(rng.Intn(16)), rng.Uint64())
		})
	})
	t.Run("Perm", func(t *testing.T) {
		g := group.MustPerm(5)
		theorem31Fuzz[group.PermLabel](t, g, func(rng *rand.Rand) group.PermLabel {
			p := rng.Perm(5)
			return g.MustLabel(p)
		})
	})
}

func theorem31Fuzz[L any](t *testing.T, g group.Group[L], genLabel func(*rand.Rand) L) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		u := New[int, L](g, WithSeed[int, L](int64(trial)))
		ref := newRef[L](g)
		const nodes = 12
		for step := 0; step < 40; step++ {
			n, m := rng.Intn(nodes), rng.Intn(nodes)
			l := genLabel(rng)
			if u.AddRelation(n, m, l) {
				ref.add(n, m, l)
			}
			// The reference graph only gets non-conflicting edges, so it
			// satisfies HUniqueLabel and BFS labels are unique.
		}
		for n := 0; n < nodes; n++ {
			for m := 0; m < nodes; m++ {
				gotL, gotOK := u.GetRelation(n, m)
				wantL, wantOK := ref.relation(n, m)
				if gotOK != wantOK {
					t.Fatalf("trial %d: relatedness of (%d,%d): got %v want %v", trial, n, m, gotOK, wantOK)
				}
				if gotOK && !g.Equal(gotL, wantL) {
					t.Fatalf("trial %d: relation (%d,%d): got %s want %s",
						trial, n, m, g.Format(gotL), g.Format(wantL))
				}
			}
		}
	}
}

func TestPathCompressionPreservesRelations(t *testing.T) {
	// Build the same structure with and without compression; all pairwise
	// relations must agree (find must not change the represented graph).
	rng := rand.New(rand.NewSource(5))
	g := group.Delta{}
	a := New[int, group.DeltaLabel](g, WithSeed[int, group.DeltaLabel](7))
	b := New[int, group.DeltaLabel](g, WithSeed[int, group.DeltaLabel](7), WithoutPathCompression[int, group.DeltaLabel]())
	const nodes = 30
	for step := 0; step < 100; step++ {
		n, m := rng.Intn(nodes), rng.Intn(nodes)
		l := int64(rng.Intn(9) - 4)
		a.AddRelation(n, m, l)
		b.AddRelation(n, m, l)
		// Interleave lookups to trigger compression on a.
		a.Find(rng.Intn(nodes))
	}
	for n := 0; n < nodes; n++ {
		for m := 0; m < nodes; m++ {
			la, oka := a.GetRelation(n, m)
			lb, okb := b.GetRelation(n, m)
			if oka != okb || (oka && la != lb) {
				t.Fatalf("compression changed relations at (%d,%d)", n, m)
			}
		}
	}
}

func TestSeedsAgreeOnRelations(t *testing.T) {
	// Different linking choices must never change observable relations.
	build := func(seed int64) *UF[int, group.DeltaLabel] {
		u := New[int, group.DeltaLabel](group.Delta{}, WithSeed[int, group.DeltaLabel](seed))
		for i := 0; i < 20; i++ {
			u.AddRelation(i, (i*7+3)%25, int64(i))
		}
		return u
	}
	a, b := build(1), build(424242)
	for n := 0; n < 25; n++ {
		for m := 0; m < 25; m++ {
			la, oka := a.GetRelation(n, m)
			lb, okb := b.GetRelation(n, m)
			if oka != okb || (oka && la != lb) {
				t.Fatalf("seeds disagree at (%d,%d)", n, m)
			}
		}
	}
}

func TestClassTracking(t *testing.T) {
	u := New[string, group.DeltaLabel](group.Delta{})
	u.AddRelation("a", "b", 1)
	u.AddRelation("c", "d", 1)
	u.AddRelation("a", "c", 1)
	u.AddRelation("e", "f", 1)
	if got := u.ClassSize("a"); got != 4 {
		t.Errorf("ClassSize(a) = %d", got)
	}
	if got := u.ClassSize("e"); got != 2 {
		t.Errorf("ClassSize(e) = %d", got)
	}
	if got := u.ClassSize("zzz"); got != 1 {
		t.Errorf("ClassSize(unknown) = %d", got)
	}
	if got := u.MaxClassSize(); got != 4 {
		t.Errorf("MaxClassSize = %d", got)
	}
	cls := u.Class("b")
	if len(cls) != 4 {
		t.Errorf("Class(b) = %v", cls)
	}
	seen := map[string]bool{}
	for _, x := range cls {
		seen[x] = true
	}
	for _, want := range []string{"a", "b", "c", "d"} {
		if !seen[want] {
			t.Errorf("Class(b) missing %q: %v", want, cls)
		}
	}
	r, _ := u.Find("b")
	if cls[0] != r {
		t.Error("representative must come first in Class")
	}
	roots := map[string]bool{}
	for _, n := range []string{"a", "b", "c", "d", "e", "f"} {
		r, _ := u.Find(n)
		roots[r] = true
	}
	if len(roots) != 2 {
		t.Errorf("roots = %v, want two classes", roots)
	}
	nodes := 0
	u.ForEachRing(func(string, string, string, int) { nodes++ })
	if nodes != 6 {
		t.Errorf("%d nodes on class rings, want 6", nodes)
	}
}

func TestTVPEChainExample(t *testing.T) {
	// Paper Example 4.6: the chain z --(2,0)--> y --(1/2,0)--> x (y = 2z,
	// x = y/2) composes to the abstract identity: the structure concludes
	// x = z. (Over ℤ the composition forgets evenness — that residual
	// information belongs in a non-relational domain, Section 5.)
	g := group.TVPE{}
	u := New[string, group.Affine](g)
	u.AddRelation("z", "y", group.AffineInt(2, 0))
	u.AddRelation("y", "x", group.MustAffine(rational.QFrac(1, 2), rational.Q{}))
	l, ok := u.GetRelation("z", "x")
	if !ok || !g.Equal(l, g.Identity()) {
		t.Errorf("z->x = %s, want identity", g.Format(l))
	}
}
