// Package domain implements the reduced product of intervals and
// congruences (Section 5 of the paper) — the non-relational value
// abstraction paired with labeled union-find in both the solver (§7.1) and
// the analyzer (§7.2) — together with the `refine` operators
// (HRefineSound) for the supported abstract relations and the group
// actions (HActionSound) used for map factorization (§5.2).
package domain

import (
	"luf/internal/congruence"
	"luf/internal/group"
	"luf/internal/interval"
	"luf/internal/rational"
)

// IC is the reduced product interval × congruence. Values are immutable;
// every operation reduces the product (each component tightens the other).
// The zero value is ⊥.
type IC struct {
	I interval.Itv
	C congruence.Cong
}

// Bottom returns ⊥.
func Bottom() IC { return IC{I: interval.Bottom(), C: congruence.Bottom()} }

// Top returns the unconstrained value.
func Top() IC { return IC{I: interval.Top(), C: congruence.Top()} }

// Const returns the singleton {v}.
func Const(v rational.Q) IC {
	return IC{I: interval.Const(v), C: congruence.Const(v)}
}

// ConstInt returns the singleton {n}.
func ConstInt(n int64) IC { return Const(rational.QInt(n)) }

// FromInterval lifts an interval with no congruence information.
func FromInterval(i interval.Itv) IC { return IC{I: i, C: congruence.Top()}.Reduce() }

// FromCongruence lifts a congruence with no interval information.
func FromCongruence(c congruence.Cong) IC { return IC{I: interval.Top(), C: c}.Reduce() }

// Integers returns the set of all integers (⊤ interval, 0 mod 1).
func Integers() IC { return IC{I: interval.Top(), C: congruence.Integers()} }

// IsBottom reports whether the value is empty.
func (a IC) IsBottom() bool { return a.I.IsBottom() || a.C.IsBottom() }

// IsTop reports whether the value is unconstrained.
func (a IC) IsTop() bool { return a.I.IsTop() && a.C.IsTop() }

// IsConst reports whether the value is a singleton, returning it.
func (a IC) IsConst() (rational.Q, bool) {
	if v, ok := a.I.IsConst(); ok {
		return v, true
	}
	if v, ok := a.C.IsConst(); ok && a.I.Contains(v) {
		return v, true
	}
	return rational.Q{}, false
}

// Contains reports v ∈ γ(a).
func (a IC) Contains(v rational.Q) bool { return a.I.Contains(v) && a.C.Contains(v) }

// Eq reports component equality (on reduced values this is semantic
// equality).
func (a IC) Eq(b IC) bool {
	if a.IsBottom() || b.IsBottom() {
		return a.IsBottom() == b.IsBottom()
	}
	return a.I.Eq(b.I) && a.C.Eq(b.C)
}

// Leq reports γ(a) ⊆ γ(b) component-wise.
func (a IC) Leq(b IC) bool {
	if a.IsBottom() {
		return true
	}
	if b.IsBottom() {
		return false
	}
	return a.I.Leq(b.I) && a.C.Leq(b.C)
}

// Reduce propagates information between the components: the congruence
// tightens interval bounds to the nearest members, singleton intervals
// collapse the congruence, and an empty component empties the product.
// Reduce is the Granger-style reduction making the product "reduced".
func (a IC) Reduce() IC {
	if a.IsBottom() {
		return Bottom()
	}
	// Under 0 + 1ℤ, integer bounds already lie on the lattice.
	if a.C.IsIntegers() && intBounds(a.I) {
		return collapse(a.I, a.C)
	}
	itv, ok := tighten(a.I, a.C)
	if !ok {
		return Bottom()
	}
	return collapse(itv, a.C)
}

// collapse pairs a tightened interval with c, collapsing c to the
// singleton when itv is one.
func collapse(itv interval.Itv, c congruence.Cong) IC {
	if v, ok := itv.IsConst(); ok {
		if !c.Contains(v) {
			return Bottom()
		}
		c = congruence.Const(v)
	}
	return IC{I: itv, C: c}
}

// intBounds reports whether every finite bound of a non-empty itv is an
// integer.
func intBounds(itv interval.Itv) bool {
	return (itv.LoInf || itv.Lo.IsInt()) && (itv.HiInf || itv.Hi.IsInt())
}

// tighten moves itv's finite bounds inwards onto the nearest members of
// c; ok is false when no member of c lies in itv.
func tighten(itv interval.Itv, c congruence.Cong) (interval.Itv, bool) {
	m, r, ok := c.Mod()
	if !ok {
		return itv, true
	}
	if m.Sign() == 0 {
		// Congruence is the singleton {r}.
		return interval.Const(r), itv.Contains(r)
	}
	if !itv.LoInf {
		// Smallest element of r + mℤ that is >= lo.
		k := itv.Lo.Sub(r).Div(m).Ceil()
		lo := r.Add(k.Mul(m))
		if itv.HiInf {
			itv = interval.AtLeast(lo)
		} else {
			itv = interval.Range(lo, itv.Hi)
		}
		if itv.IsBottom() {
			return itv, false
		}
	}
	if !itv.HiInf {
		k := itv.Hi.Sub(r).Div(m).Floor()
		hi := r.Add(k.Mul(m))
		if itv.LoInf {
			itv = interval.AtMost(hi)
		} else {
			itv = interval.Range(itv.Lo, hi)
		}
		if itv.IsBottom() {
			return itv, false
		}
	}
	return itv, true
}

// Meet returns the intersection (reduced).
func (a IC) Meet(b IC) IC {
	return IC{I: a.I.Meet(b.I), C: a.C.Meet(b.C)}.Reduce()
}

// Join returns the component-wise join (reduced).
func (a IC) Join(b IC) IC {
	if a.IsBottom() {
		return b
	}
	if b.IsBottom() {
		return a
	}
	return IC{I: a.I.Join(b.I), C: a.C.Join(b.C)}.Reduce()
}

// Widen widens component-wise. The congruence widening jumps to ⊤ on
// unstable non-integer moduli, keeping chains finite.
func (a IC) Widen(b IC) IC {
	if a.IsBottom() {
		return b
	}
	if b.IsBottom() {
		return a
	}
	return IC{I: a.I.Widen(b.I), C: a.C.Widen(b.C)}
}

// AddConst returns {v + c | v ∈ γ(a)}; exact.
func (a IC) AddConst(c rational.Q) IC {
	return IC{I: a.I.AddConst(c), C: a.C.AddConst(c)}
}

// MulConst returns {v · c | v ∈ γ(a)}; exact (for c ≠ 0 bijective).
func (a IC) MulConst(c rational.Q) IC {
	return IC{I: a.I.MulConst(c), C: a.C.MulConst(c)}
}

// Neg returns {-v | v ∈ γ(a)}; exact.
func (a IC) Neg() IC { return IC{I: a.I.Neg(), C: a.C.Neg()} }

// Add returns {v + w | v ∈ γ(a), w ∈ γ(b)} over-approximated.
func (a IC) Add(b IC) IC {
	if a.IsBottom() || b.IsBottom() {
		return Bottom()
	}
	return IC{I: a.I.Add(b.I), C: a.C.Add(b.C)}.Reduce()
}

// Sub returns {v - w} over-approximated; the same value as a.Add(b.Neg()).
func (a IC) Sub(b IC) IC {
	if a.IsBottom() || b.IsBottom() {
		return Bottom()
	}
	return IC{I: a.I.Sub(b.I), C: a.C.Sub(b.C)}.Reduce()
}

// Mul returns {v · w} over-approximated.
func (a IC) Mul(b IC) IC {
	if a.IsBottom() || b.IsBottom() {
		return Bottom()
	}
	return IC{I: a.I.Mul(b.I), C: a.C.Mul(b.C)}.Reduce()
}

// Square returns {v²} over-approximated (tighter than Mul(a,a)).
func (a IC) Square() IC {
	if a.IsBottom() {
		return Bottom()
	}
	return IC{I: a.I.Square(), C: a.C.Mul(a.C)}.Reduce()
}

// ApplyAffine returns {l.A·v + l.B | v ∈ γ(a)}; exact since affine maps
// with non-zero slope are bijections and both components are exact under
// AddConst/MulConst (Section 5.2's compatibility requirement).
func (a IC) ApplyAffine(l group.Affine) IC {
	return a.MulConst(l.A).AddConst(l.B)
}

// UnapplyAffine returns the preimage {v | l.A·v + l.B ∈ γ(a)}; exact.
func (a IC) UnapplyAffine(l group.Affine) IC {
	return a.AddConst(l.B.Neg()).MulConst(l.A.Inv())
}

// MeetInt restricts to integers; used for integer-typed variables.
func (a IC) MeetInt() IC {
	out := IC{I: a.I, C: a.C.Meet(congruence.Integers())}
	out.I = out.I.Tighten()
	return out.Reduce()
}

// Words returns the storage footprint of the interval bounds (the
// slow-convergence measure of §7.1).
func (a IC) Words() int { return a.I.Words() }

// LimitWords relaxes oversized interval bounds (§7.1's guard); the result
// contains a.
func (a IC) LimitWords(maxWords int) IC {
	return IC{I: a.I.LimitWords(maxWords), C: a.C}
}

// String renders the product.
func (a IC) String() string {
	if a.IsBottom() {
		return "⊥"
	}
	if a.C.IsTop() {
		return a.I.String()
	}
	return a.I.String() + "∧(" + a.C.String() + ")"
}
