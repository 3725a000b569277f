package core

// This file implements the confluently persistent labeled union-find of
// Appendix A: a collapsing union-find (eager path compression) over
// persistent Patricia-tree maps, with the `Inter` operation of Figure 9
// computing the most precise abstract join (intersection of the saturated
// relation graphs) in O(Δ² log² n).
//
// Invariants (Appendix A):
//   - every node points directly at its representative (eager compression);
//   - representatives point to themselves with the identity label;
//   - the representative is the smallest node of its class;
//   - Classes maps each representative to the set of all members of its
//     class, including the representative itself.

import (
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/pmap"
)

// PEdge is a persistent parent link; the owning node n satisfies
// n --Label--> Parent.
type PEdge[L any] struct {
	Parent int
	Label  L
}

// PUF is a persistent labeled union-find over int nodes (>= 0). PUF values
// are immutable; operations return new structures sharing state with the
// old ones. The zero value is not usable; use NewPersistent.
type PUF[L any] struct {
	g       group.Group[L]
	parent  pmap.Map[PEdge[L]] // total over known nodes; roots point to themselves
	classes pmap.Map[pmap.Set] // representative -> members (including itself)

	// Recording mode (certification): accepted assertions accumulate in
	// an immutable cons list shared across versions, so every snapshot
	// carries the exact journal of its own history.
	recording bool
	journal   *pjEntry[L]
}

// pjEntry is one cons cell of a persistent journal: the assertion
// n --l--> m with its reason, plus the journal it extends.
type pjEntry[L any] struct {
	prev   *pjEntry[L]
	n, m   int
	l      L
	reason string
}

// NewPersistent returns an empty persistent labeled union-find over g.
func NewPersistent[L any](g group.Group[L]) PUF[L] {
	return PUF[L]{g: g}
}

// Group returns the label group.
func (u PUF[L]) Group() group.Group[L] { return u.g }

// WithRecording returns a copy in recording mode: subsequent accepted
// assertions are journaled (persistently, shared across versions) and
// can be replayed with ForEachJournalEntry to certify answers.
func (u PUF[L]) WithRecording() PUF[L] {
	u.recording = true
	return u
}

// Recording reports whether this version journals assertions.
func (u PUF[L]) Recording() bool { return u.recording }

// ForEachJournalEntry calls f on every journaled assertion, oldest
// first. Feed it a cert.Journal to build certificates:
//
//	j := cert.NewJournal[int, L](u.Group())
//	u.ForEachJournalEntry(j.Record)
func (u PUF[L]) ForEachJournalEntry(f func(n, m int, l L, reason string)) {
	var entries []*pjEntry[L]
	for e := u.journal; e != nil; e = e.prev {
		entries = append(entries, e)
	}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		f(e.n, e.m, e.l, e.reason)
	}
}

// JournalLen returns the number of journaled assertions.
func (u PUF[L]) JournalLen() int {
	n := 0
	for e := u.journal; e != nil; e = e.prev {
		n++
	}
	return n
}

// NumNodes returns the number of nodes known to the structure.
func (u PUF[L]) NumNodes() int { return u.parent.Len() }

// Find returns the representative of n and the label ℓ with n --ℓ--> r.
// Unknown nodes are their own representative with the identity label.
// Thanks to eager compression this is a single map lookup.
func (u PUF[L]) Find(n int) (int, L) {
	e, ok := u.parent.Get(n)
	if !ok {
		return n, u.g.Identity()
	}
	return e.Parent, e.Label
}

// GetRelation returns the label ℓ with n --ℓ--> m when the nodes are
// related; ok is false otherwise.
func (u PUF[L]) GetRelation(n, m int) (L, bool) {
	rn, ln := u.Find(n)
	rm, lm := u.Find(m)
	if rn != rm {
		var zero L
		return zero, false
	}
	return u.g.Compose(ln, u.g.Inverse(lm)), true
}

// Related reports whether n and m are in the same class.
func (u PUF[L]) Related(n, m int) bool {
	rn, _ := u.Find(n)
	rm, _ := u.Find(m)
	return rn == rm
}

// Class returns the members of n's class in ascending order (singleton for
// unknown nodes).
func (u PUF[L]) Class(n int) []int {
	r, _ := u.Find(n)
	if c, ok := u.classes.Get(r); ok {
		return c.Elems()
	}
	return []int{n}
}

// ForEachEdge calls f on every parent entry n --Label--> Parent
// (roots point to themselves with the identity label). Read-only.
func (u PUF[L]) ForEachEdge(f func(n int, e PEdge[L]) bool) {
	u.parent.ForEach(f)
}

// ForEachClass calls f on every representative's member set. Read-only.
func (u PUF[L]) ForEachClass(f func(root int, members pmap.Set) bool) {
	u.classes.ForEach(f)
}

// InjectEdge returns a copy with n's parent entry overwritten,
// bypassing all validation and without touching the class map. It
// exists ONLY so negative tests can corrupt a structure and prove the
// invariant checker catches it; never call it from production code.
func (u PUF[L]) InjectEdge(n int, e PEdge[L]) PUF[L] {
	// The journal is deliberately kept: it records what was *asserted*,
	// so certificates built from it expose the injected corruption.
	u.parent = u.parent.Set(n, e)
	return u
}

// addNode ensures n is known, pointing at itself.
func (u PUF[L]) addNode(n int) PUF[L] {
	if u.parent.Contains(n) {
		return u
	}
	u.parent = u.parent.Set(n, PEdge[L]{Parent: n, Label: u.g.Identity()})
	u.classes = u.classes.Set(n, pmap.NewSet(n))
	return u
}

// AddRelation returns the structure extended with n --ℓ--> m. When the
// nodes are already related with a different label, onConflict (which may
// be nil) is called and the structure is returned unchanged with ok=false.
func (u PUF[L]) AddRelation(n, m int, l L, onConflict ConflictFunc[int, L]) (PUF[L], bool) {
	return u.AddRelationReason(n, m, l, "", onConflict)
}

// AddRelationReason is AddRelation carrying a reason string attached to
// the journal entry when the structure is in recording mode (see
// WithRecording); certificates later cite it as evidence.
func (u PUF[L]) AddRelationReason(n, m int, l L, reason string, onConflict ConflictFunc[int, L]) (PUF[L], bool) {
	if n < 0 || m < 0 {
		panic(fault.Invalidf("persistent union-find nodes must be non-negative, got (%d, %d)", n, m))
	}
	u = u.addNode(n)
	u = u.addNode(m)
	rn, ln := u.Find(n)
	rm, lm := u.Find(m)
	if rn == rm {
		existing := u.g.Compose(ln, u.g.Inverse(lm))
		if !u.g.Equal(l, existing) {
			if onConflict != nil {
				onConflict(Conflict[int, L]{N: n, M: m, New: l, Old: existing, Reason: reason})
			}
			return u, false
		}
		return u.journaled(n, m, l, reason), true
	}
	// Merge under the smaller representative (invariant: reps are minimal).
	// Label of rOld --x--> rNew.
	var rNew, rOld int
	var x L
	if rn < rm {
		rNew, rOld = rn, rm
		// rm --inv(lm);inv(l);ln--> rn
		x = group.ComposeAll[L](u.g, u.g.Inverse(lm), u.g.Inverse(l), ln)
	} else {
		rNew, rOld = rm, rn
		// rn --inv(ln);l;lm--> rm
		x = group.ComposeAll[L](u.g, u.g.Inverse(ln), l, lm)
	}
	// Re-point every member of the old class directly at the new root
	// (collapsing / eager compression).
	oldClass, _ := u.classes.Get(rOld)
	parent := u.parent
	oldClass.ForEach(func(q int) bool {
		eq, _ := parent.Get(q) // q --eq.Label--> rOld
		parent = parent.Set(q, PEdge[L]{Parent: rNew, Label: u.g.Compose(eq.Label, x)})
		return true
	})
	newClass, _ := u.classes.Get(rNew)
	u.parent = parent
	u.classes = u.classes.Remove(rOld).Set(rNew, newClass.Union(oldClass))
	return u.journaled(n, m, l, reason), true
}

// journaled returns u extended with a journal entry when recording.
func (u PUF[L]) journaled(n, m int, l L, reason string) PUF[L] {
	if u.recording {
		u.journal = &pjEntry[L]{prev: u.journal, n: n, m: m, l: l, reason: reason}
	}
	return u
}

// Inter computes the intersection of two persistent labeled union-finds
// (Figure 9): the resulting structure relates n --ℓ--> m exactly when both
// inputs do (Theorem A.1). As the most precise common weakening it is the
// abstract join of the two abstract states.
func Inter[L any](a, b PUF[L]) PUF[L] {
	g := a.g
	type mitem struct {
		n      int // new representative
		l1, l2 L   // get_relation(U_i, r_i, n)
	}
	// Memoization: (r1, r2) -> new components discovered in their
	// intersection, with the relations from the old representatives.
	type pair struct{ r1, r2 int }
	M := make(map[pair][]mitem)

	// Phase 1: intersect the class maps. Classes whose sets differ get a
	// seeded M entry so that phase 2 can tell apart members that keep their
	// representative from members that split off.
	C := pmap.IntersectWith(a.classes, b.classes,
		nil, // always combine on common keys (physical sharing still skips)
		func(r int, c1, c2 pmap.Set) (pmap.Set, bool) {
			M[pair{r, r}] = []mitem{{n: r, l1: g.Identity(), l2: g.Identity()}}
			return c1.Intersect(c2), true
		})

	// Phase 2: intersect the parent maps in ascending node order.
	eqEdge := func(e1, e2 PEdge[L]) bool {
		return e1.Parent == e2.Parent && g.Equal(e1.Label, e2.Label)
	}
	U := pmap.IntersectWith(a.parent, b.parent, eqEdge,
		func(n int, e1, e2 PEdge[L]) (PEdge[L], bool) {
			p := pair{e1.Parent, e2.Parent}
			items := M[p]
			for idx, it := range items {
				if g.Equal(g.Compose(e1.Label, it.l1), g.Compose(e2.Label, it.l2)) {
					// Same relation between n and it.n in both inputs.
					if idx != 0 {
						cls, _ := C.Get(it.n)
						C = C.Set(it.n, cls.Add(n))
					}
					return PEdge[L]{Parent: it.n, Label: g.Compose(e1.Label, it.l1)}, true
				}
				if idx == 0 {
					cls, _ := C.Get(it.n)
					C = C.Set(it.n, cls.Remove(n))
				}
			}
			// No match: n (lowest of its new class, by ascending order)
			// becomes a fresh representative.
			if len(items) == 0 {
				c1, _ := a.classes.Get(e1.Parent)
				c2, _ := b.classes.Get(e2.Parent)
				C = C.Set(n, c1.Intersect(c2))
			} else {
				C = C.Set(n, pmap.NewSet(n))
			}
			M[p] = append(items, mitem{n: n, l1: g.Inverse(e1.Label), l2: g.Inverse(e2.Label)})
			return PEdge[L]{Parent: n, Label: g.Identity()}, true
		})
	// The intersection starts a fresh (empty) journal: its relations are
	// not assertions of either input but consequences of both, so each
	// is certified against the two parents' own journals (a relation
	// holds in the intersection iff it holds in both inputs).
	return PUF[L]{g: g, parent: U, classes: C, recording: a.recording && b.recording}
}
