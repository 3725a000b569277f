package domain

import (
	"luf/internal/bits"
	"luf/internal/group"
	"luf/internal/rational"
)

// This file provides the refine operators of Section 5.1 (HRefineSound)
// for the label groups shipped with the library, and the corresponding
// group actions (HActionSound) used for map factorization (Section 5.2,
// implementing core.Action).
//
// Orientation reminder: an edge v1 --ℓ--> v2 states (σ(v1), σ(v2)) ∈ γ(ℓ).

// RefineDelta refines the values of two nodes related by v1 --k--> v2
// (σ(v2) = σ(v1) + k): v1 keeps only values with a partner in v2 and vice
// versa. Exact for the interval × congruence product, so Theorem 5.2
// applies: propagating over a spanning tree is as precise as over the
// saturated graph.
func RefineDelta(k rational.Q, v1, v2 IC) (IC, IC) {
	nv1 := v1.Meet(v2.AddConst(k.Neg()))
	nv2 := v2.Meet(v1.AddConst(k))
	return nv1, nv2
}

// RefineAffine refines across v1 --(a,b)--> v2 (σ(v2) = a·σ(v1) + b);
// exact.
func RefineAffine(l group.Affine, v1, v2 IC) (IC, IC) {
	nv1 := v1.Meet(v2.UnapplyAffine(l))
	nv2 := v2.Meet(v1.ApplyAffine(l))
	return nv1, nv2
}

// RefineXorRot refines two tristate values across v1 --(s,c)--> v2
// (σ(v2) = (σ(v1) xor c) rot s); exact (xor and rotations are exact on
// tristates, Section 5.2).
func RefineXorRot(g group.XorRot, l group.XRLabel, v1, v2 bits.TS) (bits.TS, bits.TS) {
	nv1 := v1.Meet(v2.RotR(l.S).Xor(l.C))
	nv2 := v2.Meet(v1.Xor(l.C).RotL(l.S))
	return nv1, nv2
}

// DeltaAction is the group action of int64 constant-difference labels on
// IC values (core.Action instance). Apply(k, i) transports info backwards
// across n --k--> m: the preimage i - k. It is exact, hence a true group
// action distributing over Meet (Lemma 5.4, Theorem 5.6).
type DeltaAction struct{}

// Apply returns i - k.
func (DeltaAction) Apply(k group.DeltaLabel, i IC) IC {
	return i.AddConst(rational.QInt(-k))
}

// Meet combines information.
func (DeltaAction) Meet(a, b IC) IC { return a.Meet(b) }

// Top is the absence of information.
func (DeltaAction) Top() IC { return Top() }

// QDiffAction is the group action of rational constant-difference labels
// on IC values; exact.
type QDiffAction struct{}

// Apply returns i - k.
func (QDiffAction) Apply(k rational.Q, i IC) IC { return i.AddConst(k.Neg()) }

// Meet combines information.
func (QDiffAction) Meet(a, b IC) IC { return a.Meet(b) }

// Top is the absence of information.
func (QDiffAction) Top() IC { return Top() }

// TVPEAction is the group action of TVPE labels on IC values; exact
// because constant addition and multiplication are exact on both interval
// and congruence components (the "compatible abstract relations and
// values" requirement of Section 5.2).
type TVPEAction struct{}

// Apply returns the preimage (i - b) / a.
func (TVPEAction) Apply(l group.Affine, i IC) IC { return i.UnapplyAffine(l) }

// Meet combines information.
func (TVPEAction) Meet(a, b IC) IC { return a.Meet(b) }

// Top is the absence of information.
func (TVPEAction) Top() IC { return Top() }

// XorRotAction is the group action of xor-rotate labels on tristate
// values; exact.
type XorRotAction struct {
	G group.XorRot
}

// Apply returns the preimage (i ror s) xor c.
func (a XorRotAction) Apply(l group.XRLabel, i bits.TS) bits.TS {
	return i.RotR(l.S).Xor(l.C)
}

// Meet combines information.
func (XorRotAction) Meet(x, y bits.TS) bits.TS { return x.Meet(y) }

// Top is the absence of information.
func (a XorRotAction) Top() bits.TS { return bits.Top(a.G.Width) }
