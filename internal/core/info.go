package core

import "luf/internal/fault"

// This file implements the information extension of Section 3.3 (Figure 5):
// a labeled union-find that stores, at each representative, information
// about the whole relational class, transported along edges by a group
// action.

// Action is a group action of labels L on information I
// (HActionCompose/HActionIdentity), together with the meet-semilattice
// structure on I that Figure 5 requires.
//
// Apply(ℓ, i) transports information across an edge: if n --ℓ--> m and i
// describes m, Apply(ℓ, i) describes n. In abstract-interpretation terms it
// over-approximates the γ(ℓ)-preimage {v1 | ∃ v2 ∈ γ(i), (v1,v2) ∈ γ(ℓ)}
// (HActionSound); Theorem 3.2 requires Apply to distribute over Meet, which
// by Lemma 5.4 holds exactly when Apply is exact.
type Action[L, I any] interface {
	// Apply transports information backwards across an edge.
	Apply(l L, i I) I
	// Meet combines information from several sources (⊓_I).
	Meet(a, b I) I
	// Top is the absence of information (⊤_I).
	Top() I
}

// InfoUF is the U-I structure of Figure 5: a labeled union-find plus
// information at each representative. The information merges on every
// union of the UF (Figure 5's add_relation_I), whether made through the
// InfoUF or through the bare *UF it hangs on.
type InfoUF[N comparable, L, I any] struct {
	*UF[N, L]
	act  Action[L, I]
	info []infoSlot[I] // by node id; set at representatives only, unset = Top
}

type infoSlot[I any] struct {
	v  I
	ok bool
}

// NewInfo attaches class information, Top everywhere, to the union-find
// u under the action act; every later union of u merges it. A UF carries
// at most one InfoUF: a second NewInfo on u is recorded in u.Misuse(),
// leaves the first attached, and returns an InfoUF that never merges.
func NewInfo[N comparable, L, I any](u *UF[N, L], act Action[L, I]) *InfoUF[N, L, I] {
	iu := &InfoUF[N, L, I]{UF: u, act: act}
	if u.onLink == nil {
		u.onLink = iu.merge
	} else if u.misuse == nil {
		u.misuse = fault.Conflictf("second NewInfo on one union-find (the first InfoUF stays attached)")
	}
	return iu
}

// stored returns the information at id r, if any; a node never
// interned (r < 0) holds none.
func (u *InfoUF[N, L, I]) stored(r int32) (I, bool) {
	if r < 0 || int(r) >= len(u.info) {
		var none I
		return none, false
	}
	return u.info[r].v, u.info[r].ok
}

// meet stores i at id r, met with what r already holds.
func (u *InfoUF[N, L, I]) meet(r int32, i I) {
	if old, ok := u.stored(r); ok {
		i = u.act.Meet(old, i)
	}
	u.set(r, i)
}

// set overwrites the information at id r, first growing the table to
// cover every interned node.
func (u *InfoUF[N, L, I]) set(r int32, i I) {
	if len(u.info) < len(u.names) {
		u.info = append(u.info, make([]infoSlot[I], len(u.names)-len(u.info))...)
	}
	u.info[r] = infoSlot[I]{v: i, ok: true}
}

// merge transports root a's information to root b after the union made
// a --l--> b an edge: info(b) ⊓= Apply(inv(l), info(a)).
func (u *InfoUF[N, L, I]) merge(a, b int32, l L) {
	if i, ok := u.stored(a); ok {
		u.info[a] = infoSlot[I]{}
		u.meet(b, u.act.Apply(u.g.Inverse(l), i))
	}
}

// GetInfo returns the information attached to n: the class information at
// n's representative, transported to n along the find path (Figure 5's
// get_info).
func (u *InfoUF[N, L, I]) GetInfo(n N) I {
	_, l, r := u.root(n)
	if i, ok := u.stored(r); ok {
		return u.act.Apply(l, i)
	}
	return u.act.Top()
}

// AddInfo records that i holds for n, storing it at the representative
// after transporting it across the find edge (Figure 5's add_info).
func (u *InfoUF[N, L, I]) AddInfo(n N, i I) {
	_, l, r := u.root(n)
	shifted := u.act.Apply(u.g.Inverse(l), i)
	if r < 0 {
		r = u.intern(n)
	}
	u.meet(r, shifted)
}

// SetRoot overwrites the information stored at the representative r (as
// RootInfo returns it) without a find: with RootInfo, a caller reads,
// refines and writes back class information with one find. Most callers
// want AddInfo.
func (u *InfoUF[N, L, I]) SetRoot(r N, i I) { u.set(u.intern(r), i) }

// ForEachInfo calls f on every stored (representative, information)
// pair, in the order the nodes were interned, without transporting or
// mutating anything; for the runtime invariant checker.
func (u *InfoUF[N, L, I]) ForEachInfo(f func(n N, i I)) {
	for r, s := range u.info {
		if s.ok {
			f(u.names[r], s.v)
		}
	}
}

// RootInfo returns n's representative r, the label ℓ with n --ℓ--> r,
// and the information stored at r, untransported (Top when none is).
func (u *InfoUF[N, L, I]) RootInfo(n N) (N, L, I) {
	rn, l, r := u.root(n)
	if i, ok := u.stored(r); ok {
		return rn, l, i
	}
	return rn, l, u.act.Top()
}
