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
//
// An IC has two forms:
//
//   - inline: ⊥, or a value whose finite bounds, modulus and residue are
//     all integers in (-2⁶³, 2⁶³), held in lo, hi, m and r with g nil;
//   - general: g holds the interval and congruence over the rationals,
//     for a value with a fractional or big bound, modulus or residue;
//     every other field is zero.
//
// The encoding is canonical: a value is inline exactly when it can be, and
// every ⊥ is the zero IC. So == on two inline values is equality. The
// methods compute on int64 when their operands are inline, with an
// overflow check at each step, and otherwise, or on overflow, run the
// general form's code in pair.go, which defines what every method returns.
type IC struct {
	lo, hi int64 // finite interval bounds; 0 when infinite
	m, r   int64 // congruence r + mℤ: m ≥ 0, 0 ≤ r < m when m > 0; 0 under ⊤
	f      flags
	g      *pair // general form when non-nil; shared, never mutated
}

// flags tells an inline value's shape. A zero f is ⊥.
type flags uint8

const (
	nonEmpty flags = 1 << iota
	loInf          // the interval has no lower bound
	hiInf          // the interval has no upper bound
	congTop        // the congruence is ⊤ (all of ℚ)
)

// Bottom returns ⊥.
func Bottom() IC { return IC{} }

// Top returns the unconstrained value.
func Top() IC { return IC{f: nonEmpty | loInf | hiInf | congTop} }

// Const returns the singleton {v}.
func Const(v rational.Q) IC {
	if n, ok := v.Int64(); ok {
		return IC{lo: n, hi: n, r: n, f: nonEmpty}
	}
	return newIC(interval.Const(v), congruence.Const(v))
}

// ConstInt returns the singleton {n}.
func ConstInt(n int64) IC { return Const(rational.QInt(n)) }

// FromInterval lifts an interval with no congruence information.
func FromInterval(i interval.Itv) IC {
	if i.IsBottom() {
		return IC{}
	}
	if a, ok := inlineItv(i); ok {
		a.f |= congTop
		x, _ := a.reduce() // under ⊤ it only collapses a singleton: no overflow
		return x
	}
	p := pair{I: i, C: congruence.Top()}
	p = p.reduce()
	return p.ic()
}

// FromCongruence lifts a congruence with no interval information.
func FromCongruence(c congruence.Cong) IC {
	p := pair{I: interval.Top(), C: c}
	p = p.reduce()
	return p.ic()
}

// Integers returns the set of all integers (⊤ interval, 0 mod 1).
func Integers() IC { return IC{m: 1, f: nonEmpty | loInf | hiInf} }

// I returns the interval component.
func (a IC) I() interval.Itv {
	switch {
	case a.g != nil:
		return a.g.I
	case a.f == 0:
		return interval.Bottom()
	}
	return a.itv()
}

// C returns the congruence component.
func (a IC) C() congruence.Cong {
	switch {
	case a.g != nil:
		return a.g.C
	case a.f == 0:
		return congruence.Bottom()
	}
	return a.congruence()
}

// Inline reports whether a is held in the inline int64 form.
func (a IC) Inline() bool { return a.g == nil }

// IsBottom reports whether the value is empty.
func (a IC) IsBottom() bool { return a.f == 0 && a.g == nil }

// IsTop reports whether the value is unconstrained.
func (a IC) IsTop() bool {
	if a.g != nil {
		return a.g.isTop()
	}
	return a.f == nonEmpty|loInf|hiInf|congTop
}

// IsConst reports whether the value is a singleton, returning it.
func (a IC) IsConst() (rational.Q, bool) {
	switch {
	case a.g != nil:
		return a.g.isConst()
	case a.f == 0:
	case a.f&(loInf|hiInf) == 0 && a.lo == a.hi:
		return rational.QInt(a.lo), true
	case a.f&congTop == 0 && a.m == 0 && a.itvHas(a.r):
		return rational.QInt(a.r), true
	}
	return rational.Q{}, false
}

// Contains reports v ∈ γ(a).
func (a IC) Contains(v rational.Q) bool {
	if a.g == nil {
		if a.f == 0 {
			return false
		}
		if n, ok := v.Int64(); ok {
			return a.itvHas(n) && a.cong().has(n)
		}
	}
	return a.general().contains(v)
}

// Eq reports component equality (on reduced values this is semantic
// equality).
func (a IC) Eq(b IC) bool {
	return a == b || a.g != nil && b.g != nil && a.g.eq(b.g)
}

// Leq reports γ(a) ⊆ γ(b) component-wise.
func (a IC) Leq(b IC) bool {
	if a.g == nil && b.g == nil {
		switch {
		case a.f == 0:
			return true
		case b.f == 0:
			return false
		}
		return a.itvLeq(b) && a.cong().leq(b.cong())
	}
	return a.general().leq(b.general())
}

// Reduce propagates information between the components: the congruence
// tightens interval bounds to the nearest members, singleton intervals
// collapse the congruence, and an empty component empties the product.
// Reduce is the Granger-style reduction making the product "reduced".
func (a IC) Reduce() IC {
	if a.g == nil {
		if a.f == 0 {
			return a
		}
		if x, ok := a.reduce(); ok {
			return x
		}
	}
	p := a.general().reduce()
	return keep(&p, a, IC{})
}

// Meet returns the intersection (reduced).
func (a IC) Meet(b IC) IC {
	if a.g == nil && b.g == nil {
		if a.f == 0 || b.f == 0 {
			return IC{}
		}
		if x, ok := a.meet(b); ok {
			return x
		}
	}
	p := a.general().meet(b.general())
	return keep(&p, a, b)
}

// Join returns the component-wise join (reduced).
func (a IC) Join(b IC) IC {
	if a.IsBottom() {
		return b
	}
	if b.IsBottom() {
		return a
	}
	if a.g == nil && b.g == nil {
		if x, ok := a.join(b); ok {
			return x
		}
	}
	p := a.general().join(b.general())
	return keep(&p, a, b)
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
	if a.g == nil && b.g == nil {
		if x, ok := a.widen(b); ok {
			return x
		}
	}
	p := a.general().widen(b.general())
	return keep(&p, a, b)
}

// AddConst returns {v + c | v ∈ γ(a)}; exact.
func (a IC) AddConst(c rational.Q) IC {
	if c.IsZero() {
		return a
	}
	if k, ok := c.Int64(); ok && a.g == nil {
		if x, ok := a.addConst(k); ok {
			return x
		}
	}
	p := a.general().addConst(c)
	return p.ic()
}

// MulConst returns {v · c | v ∈ γ(a)}; exact (for c ≠ 0 bijective).
func (a IC) MulConst(c rational.Q) IC {
	k, ok := c.Int64()
	if ok && k == 1 {
		return a
	}
	if ok && a.g == nil {
		if x, ok := a.mulConst(k); ok {
			return x
		}
	}
	p := a.general().mulConst(c)
	return p.ic()
}

// Neg returns {-v | v ∈ γ(a)}; exact.
func (a IC) Neg() IC {
	if a.g == nil {
		return a.neg()
	}
	p := a.general().neg()
	return p.ic()
}

// Add returns {v + w | v ∈ γ(a), w ∈ γ(b)} over-approximated.
func (a IC) Add(b IC) IC {
	if a.g == nil && b.g == nil {
		if a.f == 0 || b.f == 0 {
			return IC{}
		}
		if x, ok := a.add(b); ok {
			return x
		}
	}
	p := a.general().add(b.general())
	return p.ic()
}

// Sub returns {v - w} over-approximated; the same value as a.Add(b.Neg()).
func (a IC) Sub(b IC) IC {
	if a.g == nil && b.g == nil {
		if a.f == 0 || b.f == 0 {
			return IC{}
		}
		if x, ok := a.add(b.neg()); ok {
			return x
		}
	}
	p := a.general().sub(b.general())
	return p.ic()
}

// Mul returns {v · w} over-approximated.
func (a IC) Mul(b IC) IC {
	if a.g == nil && b.g == nil {
		if a.f == 0 || b.f == 0 {
			return IC{}
		}
		if x, ok := a.mul(b); ok {
			return x
		}
	}
	p := a.general().mul(b.general())
	return p.ic()
}

// Square returns {v²} over-approximated (tighter than Mul(a,a)).
func (a IC) Square() IC {
	if a.g == nil {
		if a.f == 0 {
			return a
		}
		if x, ok := a.square(); ok {
			return x
		}
	}
	p := a.general().square()
	return p.ic()
}

// ApplyAffine returns {l.A·v + l.B | v ∈ γ(a)}; exact since affine maps
// with non-zero slope are bijections and both components are exact under
// AddConst/MulConst (Section 5.2's compatibility requirement).
func (a IC) ApplyAffine(l group.Affine) IC {
	k, ok1 := l.A.Int64()
	b, ok2 := l.B.Int64()
	if ok1 && ok2 && a.g == nil {
		if x, ok := a.mulConst(k); ok {
			if x, ok := x.addConst(b); ok {
				return x
			}
		}
	}
	return a.MulConst(l.A).AddConst(l.B)
}

// UnapplyAffine returns the preimage {v | l.A·v + l.B ∈ γ(a)}; exact.
func (a IC) UnapplyAffine(l group.Affine) IC {
	return a.AddConst(l.B.Neg()).MulConst(l.A.Inv())
}

// MeetInt restricts to integers; used for integer-typed variables.
func (a IC) MeetInt() IC {
	if a.g == nil {
		if a.f == 0 {
			return a
		}
		if a.f&congTop != 0 {
			a.f &^= congTop
			a.m = 1
		}
		if x, ok := a.reduce(); ok {
			return x
		}
	}
	p := a.general().meetInt()
	return keep(&p, a, IC{})
}

// IntPreimage returns the integers v with coef·v + off ∈ γ(a), for
// coef ≠ 0: the value of a.AddConst(off.Neg()).MulConst(coef.Inv()).MeetInt(),
// computed on integers when a, coef and off are.
func (a IC) IntPreimage(coef, off rational.Q) IC {
	c, ok1 := coef.Int64()
	o, ok2 := off.Int64()
	if ok1 && ok2 && a.g == nil {
		if a.f == 0 {
			return a
		}
		if x, ok := a.intPreimage(c, o); ok {
			return x
		}
	}
	return a.AddConst(off.Neg()).MulConst(coef.Inv()).MeetInt()
}

// Words returns the storage footprint of the interval bounds (the
// slow-convergence measure of §7.1).
func (a IC) Words() int {
	if a.g != nil {
		return a.g.I.Words()
	}
	if a.f == 0 {
		return 0
	}
	w := 0
	if a.f&loInf == 0 {
		w += boundWords(a.lo)
	}
	if a.f&hiInf == 0 {
		w += boundWords(a.hi)
	}
	return w
}

// boundWords is rational.Q.Words of the integer n: its numerator's limb,
// if any, and the denominator's.
func boundWords(n int64) int {
	if n == 0 {
		return 1
	}
	return 2
}

// LimitWords relaxes oversized interval bounds (§7.1's guard); the result
// contains a.
func (a IC) LimitWords(maxWords int) IC {
	if a.Words() <= maxWords {
		return a // no bound is oversized
	}
	p := a.general().limitWords(maxWords)
	return keep(&p, a, IC{})
}

// String renders the product.
func (a IC) String() string {
	return a.general().String()
}

// general returns a in the general form's terms: a's own box when a is
// general, otherwise a pair built from the inline fields.
func (a IC) general() *pair {
	if a.g != nil {
		return a.g
	}
	p := a.pair()
	return &p
}

// pair returns a copy of a in the general form's terms.
func (a IC) pair() pair {
	switch {
	case a.g != nil:
		return *a.g
	case a.f == 0:
		return pair{}
	}
	return pair{I: a.itv(), C: a.congruence()}
}

// keep returns p as an IC, reusing the general box of a or b when p is a
// copy of it, as it is when an operation returns an operand unchanged.
func keep(p *pair, a, b IC) IC {
	switch {
	case a.g != nil && *a.g == *p:
		return a
	case b.g != nil && *b.g == *p:
		return b
	}
	return p.ic()
}

// newIC returns the pair (i, c), unreduced, in its canonical form.
func newIC(i interval.Itv, c congruence.Cong) IC {
	p := pair{I: i, C: c}
	return p.ic()
}

// ic returns p in its canonical form: inline when it can be.
func (p *pair) ic() IC {
	if p.isBottom() {
		return IC{}
	}
	if a, ok := inlineItv(p.I); ok {
		if p.C.IsTop() {
			a.f |= congTop
			return a
		}
		m, r, _ := p.C.Mod()
		var okM, okR bool
		a.m, okM = m.Int64()
		a.r, okR = r.Int64()
		if okM && okR {
			return a
		}
	}
	g := new(pair)
	*g = *p
	return IC{g: g}
}

// inlineItv returns a non-empty interval's bounds in the inline form,
// with the congruence left at 0 + 0ℤ; ok is false when a finite bound is
// not a small integer.
func inlineItv(i interval.Itv) (a IC, ok bool) {
	a.f = nonEmpty
	ok = true
	if i.LoInf {
		a.f |= loInf
	} else {
		a.lo, ok = i.Lo.Int64()
	}
	if i.HiInf {
		a.f |= hiInf
	} else if ok {
		a.hi, ok = i.Hi.Int64()
	}
	return a, ok
}

// itv returns a non-empty inline value's interval.
func (a IC) itv() interval.Itv {
	switch a.f & (loInf | hiInf) {
	case loInf | hiInf:
		return interval.Top()
	case loInf:
		return interval.AtMost(rational.QInt(a.hi))
	case hiInf:
		return interval.AtLeast(rational.QInt(a.lo))
	}
	return interval.Range(rational.QInt(a.lo), rational.QInt(a.hi))
}

// congruence returns a non-empty inline value's congruence.
func (a IC) congruence() congruence.Cong {
	switch {
	case a.f&congTop != 0:
		return congruence.Top()
	case a.m == 0:
		return congruence.ConstInt(a.r)
	case a.m == 1:
		return congruence.Integers()
	}
	return congruence.Modulo(rational.QInt(a.m), rational.QInt(a.r))
}
