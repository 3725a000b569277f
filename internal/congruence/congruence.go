// Package congruence implements Granger's arithmetical congruence domain
// over the rationals (Granger 1989, 1997), the non-relational domain that
// Section 7.1 of the paper uses to replace COLIBRI2's "is integer" flag:
// unlike that flag, congruences are a group action for constant-difference
// and TVPE relations (adding or multiplying by a rational constant is exact).
//
// An element is ⊥, ⊤ (all of ℚ), or the set r + m·ℤ = {r + k·m | k ∈ ℤ}
// with m ≥ 0 rational; m = 0 denotes the singleton {r}. Elements are kept
// canonical: when m > 0, the representative r is normalized into [0, m).
package congruence

import (
	"luf/internal/rational"
)

// Cong is a rational congruence. The zero value is ⊥. Treat values as
// immutable.
type Cong struct {
	kind kind
	m, r rational.Q // valid when kind == elem; m >= 0; 0 <= r < m when m > 0
}

type kind uint8

const (
	bottom kind = iota
	elem
	top
)

// Bottom returns ⊥.
func Bottom() Cong { return Cong{} }

// Top returns ⊤ (all rationals).
func Top() Cong { return Cong{kind: top} }

// Const returns the singleton {r}.
func Const(r rational.Q) Cong { return Cong{kind: elem, r: r} }

// ConstInt returns the singleton {n}.
func ConstInt(n int64) Cong { return Const(rational.QInt(n)) }

// Modulo returns r + m·ℤ (canonicalized). m may be negative (its absolute
// value is used); m = 0 gives the singleton {r}.
func Modulo(m, r rational.Q) Cong {
	am := m.Abs()
	return Cong{kind: elem, m: am, r: normalize(r, am)}
}

// Integers returns 0 + 1·ℤ, the set of integers — the congruence-domain
// replacement for an "is integer" flag.
func Integers() Cong { return Cong{kind: elem, m: one} }

var one = rational.QInt(1)

// normalize reduces r into [0, m) when m > 0.
func normalize(r, m rational.Q) rational.Q {
	if m.Sign() == 0 {
		return r
	}
	if m.Eq(one) && r.IsInt() {
		return rational.Q{} // every integer is 0 mod 1
	}
	q := r.Div(m).Floor()
	return r.Sub(q.Mul(m))
}

// IsBottom reports whether the element is ⊥.
func (a Cong) IsBottom() bool { return a.kind == bottom }

// IsTop reports whether the element is ⊤.
func (a Cong) IsTop() bool { return a.kind == top }

// IsConst reports whether the element is a singleton, returning its value.
func (a Cong) IsConst() (rational.Q, bool) {
	if a.kind == elem && a.m.Sign() == 0 {
		return a.r, true
	}
	return rational.Q{}, false
}

// Mod returns (m, r) for an elem; ok is false for ⊥/⊤.
func (a Cong) Mod() (m, r rational.Q, ok bool) {
	if a.kind != elem {
		return rational.Q{}, rational.Q{}, false
	}
	return a.m, a.r, true
}

// Contains reports whether v ∈ γ(a).
func (a Cong) Contains(v rational.Q) bool {
	switch a.kind {
	case bottom:
		return false
	case top:
		return true
	}
	if a.m.Sign() == 0 {
		return v.Eq(a.r)
	}
	return v.Sub(a.r).Div(a.m).IsInt()
}

// IsIntegers reports whether a is exactly 0 + 1·ℤ.
func (a Cong) IsIntegers() bool { return a.kind == elem && a.m.Eq(one) && a.r.IsZero() }

// IsIntOnly reports whether every element of γ(a) is an integer.
func (a Cong) IsIntOnly() bool {
	if a.kind != elem {
		return false
	}
	return a.m.IsInt() && a.r.IsInt()
}

// Eq reports equality of canonical forms.
func (a Cong) Eq(b Cong) bool {
	if a.kind != b.kind {
		return false
	}
	if a.kind != elem {
		return true
	}
	return a.m.Eq(b.m) && a.r.Eq(b.r)
}

// Leq reports γ(a) ⊆ γ(b).
func (a Cong) Leq(b Cong) bool {
	if a.kind == bottom || b.kind == top {
		return true
	}
	if b.kind == bottom || a.kind == top {
		return false
	}
	// r_a + m_a ℤ ⊆ r_b + m_b ℤ iff m_b | m_a and r_a ≡ r_b (mod m_b).
	if b.m.Sign() == 0 {
		return a.m.Sign() == 0 && a.r.Eq(b.r)
	}
	if !a.m.Div(b.m).IsInt() && a.m.Sign() != 0 {
		return false
	}
	return a.r.Sub(b.r).Div(b.m).IsInt()
}

// gcdQ returns the rational gcd: the largest g with a/g, b/g ∈ ℤ
// (gcd(0, x) = |x|).
func gcdQ(a, b rational.Q) rational.Q { return rational.GCD(a, b) }

// lcmQ returns the rational lcm (a, b > 0): a·b / gcd(a,b).
func lcmQ(a, b rational.Q) rational.Q { return a.Mul(b).Div(gcdQ(a, b)) }

// Join returns the smallest congruence containing both arguments:
// (m1,r1) ⊔ (m2,r2) = (gcd(m1, m2, |r1 - r2|), r1).
func (a Cong) Join(b Cong) Cong {
	if a.Eq(b) {
		return a // a.join(a) = a for a canonical a
	}
	return a.join(b)
}

// join is Join without its equal-argument exit.
func (a Cong) join(b Cong) Cong {
	if a.kind == bottom {
		return b
	}
	if b.kind == bottom {
		return a
	}
	if a.kind == top || b.kind == top {
		return Top()
	}
	d := a.r.Sub(b.r).Abs()
	m := gcdQ(gcdQ(a.m, b.m), d)
	return Modulo(m, a.r)
}

// Meet returns the intersection, via the rational Chinese remainder
// theorem.
func (a Cong) Meet(b Cong) Cong {
	if a.Eq(b) {
		return a // a.meet(a) = a
	}
	return a.meet(b)
}

// meet is Meet without its equal-argument exit.
func (a Cong) meet(b Cong) Cong {
	if a.kind == bottom || b.kind == bottom {
		return Bottom()
	}
	if a.kind == top {
		return b
	}
	if b.kind == top {
		return a
	}
	// Singleton cases.
	if a.m.Sign() == 0 {
		if b.Contains(a.r) {
			return a
		}
		return Bottom()
	}
	if b.m.Sign() == 0 {
		if a.Contains(b.r) {
			return b
		}
		return Bottom()
	}
	// One side contains the other (the common case: a congruence met
	// with the integers): the intersection is the smaller side.
	if a.Leq(b) {
		return a
	}
	if b.Leq(a) {
		return b
	}
	if m, r, ok := rational.CRT(a.m, a.r, b.m, b.r); ok {
		return Modulo(m, r)
	}
	return Bottom()
}

// Widen returns a widening of a by b: the join, jumping to ⊤ when the
// modulus chain could fail to stabilize (non-integer moduli keep shrinking
// by rational gcds). For integer moduli, divisibility chains are finite, so
// the join itself terminates.
func (a Cong) Widen(b Cong) Cong {
	j := a.Join(b)
	if j.Eq(a) {
		return a
	}
	if j.kind == elem && !j.m.IsInt() && j.m.Sign() != 0 {
		return Top()
	}
	return j
}

// AddConst returns {v + c | v ∈ γ(a)}; exact.
func (a Cong) AddConst(c rational.Q) Cong {
	if a.kind != elem {
		return a
	}
	return Modulo(a.m, a.r.Add(c))
}

// MulConst returns {v · c | v ∈ γ(a)}; exact.
func (a Cong) MulConst(c rational.Q) Cong {
	if a.kind != elem {
		if a.kind == top && c.Sign() == 0 {
			return Const(rational.Q{})
		}
		return a
	}
	if c.Sign() == 0 {
		return Const(rational.Q{})
	}
	return Modulo(a.m.Mul(c), a.r.Mul(c))
}

// Neg returns {-v | v ∈ γ(a)}; exact.
func (a Cong) Neg() Cong { return a.MulConst(rational.QInt(-1)) }

// Add returns a sound over-approximation of {v + w}:
// (gcd(m1, m2), r1 + r2).
func (a Cong) Add(b Cong) Cong {
	if a.kind == bottom || b.kind == bottom {
		return Bottom()
	}
	if a.kind == top || b.kind == top {
		return Top()
	}
	return Modulo(gcdQ(a.m, b.m), a.r.Add(b.r))
}

// Sub returns a sound over-approximation of {v - w}:
// (gcd(m1, m2), r1 - r2), the same element as a.Add(b.Neg()).
func (a Cong) Sub(b Cong) Cong {
	if a.kind == bottom || b.kind == bottom {
		return Bottom()
	}
	if a.kind == top || b.kind == top {
		return Top()
	}
	return Modulo(gcdQ(a.m, b.m), a.r.Sub(b.r))
}

// Mul returns a sound over-approximation of {v · w}:
// r1·r2 + gcd(r1·m2, r2·m1, m1·m2)·ℤ.
func (a Cong) Mul(b Cong) Cong {
	if a.kind == bottom || b.kind == bottom {
		return Bottom()
	}
	if c, ok := a.IsConst(); ok {
		return b.MulConst(c)
	}
	if c, ok := b.IsConst(); ok {
		return a.MulConst(c)
	}
	if a.kind == top || b.kind == top {
		return Top()
	}
	m := gcdQ(gcdQ(a.r.Mul(b.m), b.r.Mul(a.m)), a.m.Mul(b.m))
	return Modulo(m, a.r.Mul(b.r))
}

// DivConst returns {v / c | v ∈ γ(a)} for c ≠ 0; exact.
func (a Cong) DivConst(c rational.Q) Cong { return a.MulConst(c.Inv()) }

// String renders the congruence.
func (a Cong) String() string {
	switch a.kind {
	case bottom:
		return "⊥"
	case top:
		return "⊤"
	}
	if a.m.Sign() == 0 {
		return "{" + a.r.String() + "}"
	}
	return a.r.String() + " mod " + a.m.String()
}
