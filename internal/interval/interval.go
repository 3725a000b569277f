// Package interval implements intervals over the rationals with infinite
// bounds — the classic non-relational box abstraction (Cousot & Cousot
// 1977) used throughout Section 5 of the paper as the value domain paired
// with labeled union-find.
//
// An interval is either empty (⊥) or the set {v ∈ ℚ | lo ≤ v ≤ hi} where
// lo may be -∞ and hi may be +∞. Integer-typed variables use the same
// representation plus Tighten, which rounds finite bounds to integers.
package interval

import (
	"luf/internal/rational"
)

// Itv is a rational interval. The zero value is ⊥ (empty). Construct
// non-empty intervals with the constructors below; fields are exported for
// read access but callers must treat Itv values as immutable.
type Itv struct {
	// nonEmpty is set for every interval except ⊥, so the zero value is ⊥.
	nonEmpty bool
	// LoInf/HiInf mark infinite bounds; when set, Lo/Hi are zero.
	LoInf, HiInf bool
	Lo, Hi       rational.Q
}

// Bottom returns the empty interval ⊥.
func Bottom() Itv { return Itv{} }

// Top returns (-∞, +∞).
func Top() Itv { return Itv{nonEmpty: true, LoInf: true, HiInf: true} }

// Const returns the singleton [v, v].
func Const(v rational.Q) Itv { return Itv{nonEmpty: true, Lo: v, Hi: v} }

// ConstInt returns the singleton [n, n].
func ConstInt(n int64) Itv { return Const(rational.QInt(n)) }

// Range returns [lo, hi]; it returns ⊥ if lo > hi.
func Range(lo, hi rational.Q) Itv {
	if lo.Cmp(hi) > 0 {
		return Bottom()
	}
	return Itv{nonEmpty: true, Lo: lo, Hi: hi}
}

// RangeInt returns [lo, hi] over int64 endpoints.
func RangeInt(lo, hi int64) Itv { return Range(rational.QInt(lo), rational.QInt(hi)) }

// AtLeast returns [lo, +∞).
func AtLeast(lo rational.Q) Itv { return Itv{nonEmpty: true, Lo: lo, HiInf: true} }

// AtMost returns (-∞, hi].
func AtMost(hi rational.Q) Itv { return Itv{nonEmpty: true, LoInf: true, Hi: hi} }

// IsBottom reports whether the interval is empty.
func (a Itv) IsBottom() bool { return !a.nonEmpty }

// IsTop reports whether the interval is (-∞, +∞).
func (a Itv) IsTop() bool { return a.nonEmpty && a.LoInf && a.HiInf }

// IsConst reports whether the interval is a singleton, returning its value.
func (a Itv) IsConst() (rational.Q, bool) {
	if a.nonEmpty && !a.LoInf && !a.HiInf && a.Lo.Eq(a.Hi) {
		return a.Lo, true
	}
	return rational.Q{}, false
}

// Contains reports whether v is in the interval.
func (a Itv) Contains(v rational.Q) bool {
	if !a.nonEmpty {
		return false
	}
	if !a.LoInf && v.Cmp(a.Lo) < 0 {
		return false
	}
	if !a.HiInf && v.Cmp(a.Hi) > 0 {
		return false
	}
	return true
}

// Eq reports interval equality.
func (a Itv) Eq(b Itv) bool {
	if a.nonEmpty != b.nonEmpty {
		return false
	}
	if !a.nonEmpty {
		return true
	}
	if a.LoInf != b.LoInf || a.HiInf != b.HiInf {
		return false
	}
	if !a.LoInf && !a.Lo.Eq(b.Lo) {
		return false
	}
	if !a.HiInf && !a.Hi.Eq(b.Hi) {
		return false
	}
	return true
}

// Leq reports a ⊑ b (a ⊆ b as sets).
func (a Itv) Leq(b Itv) bool {
	if !a.nonEmpty {
		return true
	}
	if !b.nonEmpty {
		return false
	}
	if !b.LoInf && (a.LoInf || a.Lo.Cmp(b.Lo) < 0) {
		return false
	}
	if !b.HiInf && (a.HiInf || a.Hi.Cmp(b.Hi) > 0) {
		return false
	}
	return true
}

// Meet returns the intersection.
func (a Itv) Meet(b Itv) Itv {
	if !a.nonEmpty || !b.nonEmpty {
		return Bottom()
	}
	out := Itv{nonEmpty: true, LoInf: a.LoInf && b.LoInf, HiInf: a.HiInf && b.HiInf}
	switch {
	case a.LoInf:
		out.Lo = b.Lo
	case b.LoInf:
		out.Lo = a.Lo
	default:
		out.Lo = a.Lo.Max(b.Lo)
	}
	switch {
	case a.HiInf:
		out.Hi = b.Hi
	case b.HiInf:
		out.Hi = a.Hi
	default:
		out.Hi = a.Hi.Min(b.Hi)
	}
	if !out.LoInf && !out.HiInf && out.Lo.Cmp(out.Hi) > 0 {
		return Bottom()
	}
	return out
}

// Join returns the convex hull of the union.
func (a Itv) Join(b Itv) Itv {
	if !a.nonEmpty {
		return b
	}
	if !b.nonEmpty {
		return a
	}
	out := Itv{nonEmpty: true, LoInf: a.LoInf || b.LoInf, HiInf: a.HiInf || b.HiInf}
	if !out.LoInf {
		out.Lo = a.Lo.Min(b.Lo)
	}
	if !out.HiInf {
		out.Hi = a.Hi.Max(b.Hi)
	}
	return out
}

// Widen returns the standard interval widening of a by b: bounds of b that
// escape a's bounds jump to infinity.
func (a Itv) Widen(b Itv) Itv {
	if !a.nonEmpty {
		return b
	}
	if !b.nonEmpty {
		return a
	}
	out := Itv{nonEmpty: true}
	if !a.LoInf && !b.LoInf && b.Lo.Cmp(a.Lo) >= 0 {
		out.Lo = a.Lo // stable lower bound
	} else {
		out.LoInf = true
	}
	if !a.HiInf && !b.HiInf && b.Hi.Cmp(a.Hi) <= 0 {
		out.Hi = a.Hi // stable upper bound
	} else {
		out.HiInf = true
	}
	return out
}

// Neg returns {-v | v ∈ a}.
func (a Itv) Neg() Itv {
	if !a.nonEmpty {
		return a
	}
	out := Itv{nonEmpty: true, LoInf: a.HiInf, HiInf: a.LoInf}
	if !out.LoInf {
		out.Lo = a.Hi.Neg()
	}
	if !out.HiInf {
		out.Hi = a.Lo.Neg()
	}
	return out
}

// AddConst returns {v + c | v ∈ a}; exact.
func (a Itv) AddConst(c rational.Q) Itv {
	if !a.nonEmpty {
		return a
	}
	out := a
	if !a.LoInf {
		out.Lo = a.Lo.Add(c)
	}
	if !a.HiInf {
		out.Hi = a.Hi.Add(c)
	}
	return out
}

// MulConst returns {v · c | v ∈ a}; exact. Multiplication by zero collapses
// to the singleton [0, 0].
func (a Itv) MulConst(c rational.Q) Itv {
	if !a.nonEmpty {
		return a
	}
	if c.Sign() == 0 {
		return Const(rational.Q{})
	}
	var out Itv
	if c.Sign() > 0 {
		out = Itv{nonEmpty: true, LoInf: a.LoInf, HiInf: a.HiInf}
		if !a.LoInf {
			out.Lo = a.Lo.Mul(c)
		}
		if !a.HiInf {
			out.Hi = a.Hi.Mul(c)
		}
	} else {
		out = Itv{nonEmpty: true, LoInf: a.HiInf, HiInf: a.LoInf}
		if !a.HiInf {
			out.Lo = a.Hi.Mul(c)
		}
		if !a.LoInf {
			out.Hi = a.Lo.Mul(c)
		}
	}
	return out
}

// Add returns {v + w | v ∈ a, w ∈ b}; exact.
func (a Itv) Add(b Itv) Itv {
	if !a.nonEmpty || !b.nonEmpty {
		return Bottom()
	}
	out := Itv{nonEmpty: true, LoInf: a.LoInf || b.LoInf, HiInf: a.HiInf || b.HiInf}
	if !out.LoInf {
		out.Lo = a.Lo.Add(b.Lo)
	}
	if !out.HiInf {
		out.Hi = a.Hi.Add(b.Hi)
	}
	return out
}

// Sub returns {v - w | v ∈ a, w ∈ b}; exact.
func (a Itv) Sub(b Itv) Itv { return a.Add(b.Neg()) }

// bound is an extended rational for the product computation.
type bound struct {
	inf int // -1: -∞, +1: +∞, 0: finite
	v   rational.Q
}

func (a Itv) lo() bound {
	if a.LoInf {
		return bound{inf: -1}
	}
	return bound{v: a.Lo}
}

func (a Itv) hi() bound {
	if a.HiInf {
		return bound{inf: +1}
	}
	return bound{v: a.Hi}
}

// mulBound multiplies two extended rationals; 0 · ±∞ is 0 (sound here
// because a zero bound comes from a finite endpoint).
func mulBound(x, y bound) bound {
	if x.inf == 0 && y.inf == 0 {
		return bound{v: x.v.Mul(y.v)}
	}
	sign := func(b bound) int {
		if b.inf != 0 {
			return b.inf
		}
		return b.v.Sign()
	}
	sx, sy := sign(x), sign(y)
	if (x.inf != 0 && sy == 0) || (y.inf != 0 && sx == 0) {
		return bound{}
	}
	return bound{inf: sx * sy}
}

func lessBound(x, y bound) bool {
	if x.inf != y.inf {
		return x.inf < y.inf
	}
	if x.inf != 0 {
		return false
	}
	return x.v.Less(y.v)
}

// Mul returns a sound over-approximation of {v · w | v ∈ a, w ∈ b}
// (exact for interval endpoints: min/max over the four corner products).
func (a Itv) Mul(b Itv) Itv {
	if !a.nonEmpty || !b.nonEmpty {
		return Bottom()
	}
	corners := []bound{
		mulBound(a.lo(), b.lo()),
		mulBound(a.lo(), b.hi()),
		mulBound(a.hi(), b.lo()),
		mulBound(a.hi(), b.hi()),
	}
	lo, hi := corners[0], corners[0]
	for _, c := range corners[1:] {
		if lessBound(c, lo) {
			lo = c
		}
		if lessBound(hi, c) {
			hi = c
		}
	}
	out := Itv{nonEmpty: true}
	if lo.inf < 0 {
		out.LoInf = true
	} else {
		out.Lo = lo.v
	}
	if hi.inf > 0 {
		out.HiInf = true
	} else {
		out.Hi = hi.v
	}
	return out
}

// Square returns a sound over-approximation of {v² | v ∈ a}; tighter than
// Mul(a, a) because it knows both factors are equal (result is >= 0, and
// the lower bound uses the distance to zero).
func (a Itv) Square() Itv {
	if !a.nonEmpty {
		return a
	}
	if a.Contains(rational.Q{}) {
		out := Itv{nonEmpty: true, HiInf: a.LoInf || a.HiInf}
		if !out.HiInf {
			out.Hi = a.Lo.Mul(a.Lo).Max(a.Hi.Mul(a.Hi))
		}
		return out
	}
	// Entirely positive or entirely negative.
	m := a.Mul(a)
	if !m.LoInf && m.Lo.Sign() < 0 {
		m.Lo = rational.Q{}
	}
	return m
}

// SqrtRange returns an over-approximation of {v | v² ∈ a}: the preimage of
// a under squaring, i.e. [-√hi, √hi] when hi ≥ 0 (⊥ if hi < 0). Bounds are
// rounded outwards to integers when not perfect squares (sound, and keeps
// denominators small). Used by the solver's backward propagation for x².
func (a Itv) SqrtRange() Itv {
	if !a.nonEmpty {
		return a
	}
	if a.HiInf {
		return Top()
	}
	if a.Hi.Sign() < 0 {
		return Bottom()
	}
	r := rational.SqrtUpper(a.Hi)
	return Range(r.Neg(), r)
}

// Tighten rounds finite bounds inwards to integers: for integer-typed
// variables, [1/2, 7/3] becomes [1, 2]. It returns ⊥ when no integer fits.
func (a Itv) Tighten() Itv {
	if !a.nonEmpty {
		return a
	}
	out := a
	if !a.LoInf {
		out.Lo = a.Lo.Ceil()
	}
	if !a.HiInf {
		out.Hi = a.Hi.Floor()
	}
	if !out.LoInf && !out.HiInf && out.Lo.Cmp(out.Hi) > 0 {
		return Bottom()
	}
	return out
}

// LimitWords relaxes bounds whose storage exceeds maxWords machine words,
// rounding the lower bound down and the upper bound up (the paper's
// slow-convergence guard, Section 7.1). A bound whose integer part alone
// exceeds the budget becomes infinite. The result always contains a.
func (a Itv) LimitWords(maxWords int) Itv {
	if !a.nonEmpty {
		return a
	}
	out := a
	if !a.LoInf && a.Lo.Words() > maxWords {
		if r, ok := a.Lo.RoundDown(maxWords); ok {
			out.Lo = r
		} else {
			out.Lo, out.LoInf = rational.Q{}, true
		}
	}
	if !a.HiInf && a.Hi.Words() > maxWords {
		if r, ok := a.Hi.RoundUp(maxWords); ok {
			out.Hi = r
		} else {
			out.Hi, out.HiInf = rational.Q{}, true
		}
	}
	return out
}

// Words returns the storage footprint of the bounds in machine words.
func (a Itv) Words() int {
	if !a.nonEmpty {
		return 0
	}
	w := 0
	if !a.LoInf {
		w += a.Lo.Words()
	}
	if !a.HiInf {
		w += a.Hi.Words()
	}
	return w
}

// String renders the interval.
func (a Itv) String() string {
	if !a.nonEmpty {
		return "⊥"
	}
	lo, hi := "-inf", "+inf"
	if !a.LoInf {
		lo = a.Lo.String()
	}
	if !a.HiInf {
		hi = a.Hi.String()
	}
	return "[" + lo + "; " + hi + "]"
}

// Recip returns an over-approximation of {1/v | v ∈ a} when 0 ∉ a;
// ok=false when a contains zero (or is empty).
func (a Itv) Recip() (Itv, bool) {
	if !a.nonEmpty || a.Contains(rational.Q{}) {
		return Bottom(), false
	}
	// a is entirely positive or entirely negative; 1/x is monotone
	// decreasing on each side. 1/±inf tends to 0 (closed 0 is sound).
	var lo, hi rational.Q
	if !a.HiInf {
		lo = a.Hi.Inv()
	}
	if !a.LoInf {
		hi = a.Lo.Inv()
	}
	return Range(lo, hi), true
}

// Div returns an over-approximation of {v / w | v ∈ a, w ∈ b} when
// 0 ∉ b; ok=false when b may be zero.
func (a Itv) Div(b Itv) (Itv, bool) {
	r, ok := b.Recip()
	if !ok {
		return Bottom(), false
	}
	return a.Mul(r), true
}
