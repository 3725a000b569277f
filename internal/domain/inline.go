package domain

import (
	"math"
	"math/bits"
)

// This file holds the int64 paths of IC's methods. Each one takes inline,
// non-empty operands and returns the inline encoding of the pair that the
// general form's method (pair.go) returns on the same operands; ok is
// false when an int64 step overflows, and the caller then runs the general
// form. The small integers are those of rational.Q's small form,
// (-2⁶³, 2⁶³), so math.MinInt64 counts as an overflow and negation never
// overflows.

// cong is an inline congruence: ⊤, or r + mℤ with m ≥ 0 and 0 ≤ r < m
// when m > 0 (m = 0 is the singleton {r}). Under ⊤, m and r are 0.
type cong struct {
	m, r int64
	top  bool
}

func (a IC) cong() cong { return cong{m: a.m, r: a.r, top: a.f&congTop != 0} }

func (a *IC) setCong(c cong) {
	a.m, a.r = c.m, c.r
	if c.top {
		a.f |= congTop
	} else {
		a.f &^= congTop
	}
}

// itvHas reports whether a's interval holds v.
func (a IC) itvHas(v int64) bool {
	return (a.f&loInf != 0 || a.lo <= v) && (a.f&hiInf != 0 || v <= a.hi)
}

// itvLeq is interval.Itv.Leq on non-empty inline values.
func (a IC) itvLeq(b IC) bool {
	if b.f&loInf == 0 && (a.f&loInf != 0 || a.lo < b.lo) {
		return false
	}
	return b.f&hiInf != 0 || a.f&hiInf == 0 && a.hi <= b.hi
}

// reduce is pair.reduce: it tightens the finite bounds onto the
// congruence and collapses a singleton interval's congruence.
func (a IC) reduce() (IC, bool) {
	c := a.cong()
	switch {
	case c.top || c.m == 1:
	case c.m == 0:
		if !a.itvHas(c.r) {
			return IC{}, true
		}
		a.lo, a.hi = c.r, c.r
		a.f &^= loInf | hiInf
	default:
		if a.f&loInf == 0 {
			// The smallest member of r + mℤ that is >= lo.
			lo, ok := add64(a.lo, mod(c.r-mod(a.lo, c.m), c.m))
			if !ok {
				return IC{}, false
			}
			if a.f&hiInf == 0 && lo > a.hi {
				return IC{}, true
			}
			a.lo = lo
		}
		if a.f&hiInf == 0 {
			// The greatest member that is <= hi; it is >= lo, since lo
			// is now a member no greater than hi.
			hi, ok := add64(a.hi, -mod(mod(a.hi, c.m)-c.r, c.m))
			if !ok {
				return IC{}, false
			}
			a.hi = hi
		}
	}
	if a.f&(loInf|hiInf) == 0 && a.lo == a.hi {
		// The bounds are members of the congruence now, so it holds lo.
		a.setCong(cong{r: a.lo})
	}
	return a, true
}

// meet is pair.meet.
func (a IC) meet(b IC) (IC, bool) {
	out := IC{f: nonEmpty}
	switch {
	case a.f&loInf != 0 && b.f&loInf != 0:
		out.f |= loInf
	case a.f&loInf != 0:
		out.lo = b.lo
	case b.f&loInf != 0:
		out.lo = a.lo
	default:
		out.lo = max(a.lo, b.lo)
	}
	switch {
	case a.f&hiInf != 0 && b.f&hiInf != 0:
		out.f |= hiInf
	case a.f&hiInf != 0:
		out.hi = b.hi
	case b.f&hiInf != 0:
		out.hi = a.hi
	default:
		out.hi = min(a.hi, b.hi)
	}
	if out.f&(loInf|hiInf) == 0 && out.lo > out.hi {
		return IC{}, true
	}
	c, empty, ok := a.cong().meet(b.cong())
	if !ok {
		return IC{}, false
	}
	if empty {
		return IC{}, true
	}
	out.setCong(c)
	return out.reduce()
}

// join is pair.join: the convex hull of the intervals and the join of
// the congruences.
func (a IC) join(b IC) (IC, bool) {
	c, ok := a.cong().join(b.cong())
	if !ok {
		return IC{}, false
	}
	out := IC{f: nonEmpty | (a.f|b.f)&(loInf|hiInf)}
	if out.f&loInf == 0 {
		out.lo = min(a.lo, b.lo)
	}
	if out.f&hiInf == 0 {
		out.hi = max(a.hi, b.hi)
	}
	out.setCong(c)
	return out.reduce()
}

// widen is pair.widen: on integer moduli the congruence widening is the
// join.
func (a IC) widen(b IC) (IC, bool) {
	c, ok := a.cong().join(b.cong())
	if !ok {
		return IC{}, false
	}
	out := IC{f: nonEmpty}
	if a.f&loInf == 0 && b.f&loInf == 0 && b.lo >= a.lo {
		out.lo = a.lo
	} else {
		out.f |= loInf
	}
	if a.f&hiInf == 0 && b.f&hiInf == 0 && b.hi <= a.hi {
		out.hi = a.hi
	} else {
		out.f |= hiInf
	}
	out.setCong(c)
	return out, true
}

// add is pair.add.
func (a IC) add(b IC) (IC, bool) {
	out := IC{f: nonEmpty | (a.f|b.f)&(loInf|hiInf)}
	ok1, ok2 := true, true
	if out.f&loInf == 0 {
		out.lo, ok1 = add64(a.lo, b.lo)
	}
	if out.f&hiInf == 0 {
		out.hi, ok2 = add64(a.hi, b.hi)
	}
	c, ok3 := a.cong().add(b.cong())
	if !ok1 || !ok2 || !ok3 {
		return IC{}, false
	}
	out.setCong(c)
	return out.reduce()
}

// neg is pair.neg; it cannot overflow.
func (a IC) neg() IC {
	if a.f == 0 {
		return a
	}
	// An infinite bound holds 0, so negating both fields and swapping
	// the flags keeps the encoding canonical.
	out := IC{lo: -a.hi, hi: -a.lo, f: a.f &^ (loInf | hiInf)}
	if a.f&loInf != 0 {
		out.f |= hiInf
	}
	if a.f&hiInf != 0 {
		out.f |= loInf
	}
	out.setCong(a.cong().neg())
	return out
}

// addConst is pair.addConst.
func (a IC) addConst(k int64) (IC, bool) {
	if a.f == 0 || k == 0 {
		return a, true
	}
	ok1, ok2 := true, true
	if a.f&loInf == 0 {
		a.lo, ok1 = add64(a.lo, k)
	}
	if a.f&hiInf == 0 {
		a.hi, ok2 = add64(a.hi, k)
	}
	c, ok3 := a.cong().addConst(k)
	a.setCong(c)
	return a, ok1 && ok2 && ok3
}

// mulConst is pair.mulConst.
func (a IC) mulConst(k int64) (IC, bool) {
	switch {
	case a.f == 0 || k == 1:
		return a, true
	case k == 0:
		return IC{f: nonEmpty}, true // {0} ∧ {0}
	}
	out := IC{f: nonEmpty}
	lo, hi, loI, hiI := a.lo, a.hi, a.f&loInf != 0, a.f&hiInf != 0
	if k < 0 {
		lo, hi, loI, hiI = hi, lo, hiI, loI
	}
	ok1, ok2 := true, true
	if loI {
		out.f |= loInf
	} else {
		out.lo, ok1 = mul64(lo, k)
	}
	if hiI {
		out.f |= hiInf
	} else {
		out.hi, ok2 = mul64(hi, k)
	}
	c, ok3 := a.cong().mulConst(k)
	out.setCong(c)
	return out, ok1 && ok2 && ok3
}

// intPreimage is IntPreimage on an inline, non-empty a: the integers v
// with k·v + off ∈ γ(a), for k ≠ 0.
func (a IC) intPreimage(k, off int64) (IC, bool) {
	t, ok := a.addConst(-off)
	if !ok {
		return IC{}, false
	}
	// Divide the bounds by k and round them inwards to integers.
	out := IC{f: nonEmpty}
	lo, hi, loI, hiI := t.lo, t.hi, t.f&loInf != 0, t.f&hiInf != 0
	if k < 0 {
		lo, hi, loI, hiI = hi, lo, hiI, loI
	}
	if loI {
		out.f |= loInf
	} else {
		out.lo = ceilDiv(lo, k)
	}
	if hiI {
		out.f |= hiInf
	} else {
		out.hi = floorDiv(hi, k)
	}
	if out.f&(loInf|hiInf) == 0 && out.lo > out.hi {
		return IC{}, true
	}
	// The integers v with k·v ∈ r + mℤ.
	c := t.cong()
	switch {
	case c.top:
		out.m = 1
	case c.m == 0:
		if c.r%k != 0 {
			return IC{}, true
		}
		out.r = c.r / k
	default:
		// k·v ≡ r (mod m) is solvable iff g = gcd(k, m) divides r, and
		// then v ≡ (r/g)·(k/g)⁻¹ (mod m/g).
		g := int64(gcd(abs64(k), uint64(c.m)))
		if c.r%g != 0 {
			return IC{}, true
		}
		m := c.m / g
		out.m = m
		out.r = mulMod(c.r/g, inverse(mod(k/g, m), m), m)
	}
	return out.reduce()
}

// has reports whether c holds v.
func (c cong) has(v int64) bool {
	switch {
	case c.top:
		return true
	case c.m == 0:
		return v == c.r
	}
	return mod(v, c.m) == c.r
}

// leq is congruence.Cong.Leq: r_a + m_a ℤ ⊆ r_b + m_b ℤ iff m_b | m_a
// and r_a ≡ r_b (mod m_b).
func (a cong) leq(b cong) bool {
	switch {
	case b.top:
		return true
	case a.top:
		return false
	case b.m == 0:
		return a.m == 0 && a.r == b.r
	case a.m != 0 && a.m%b.m != 0:
		return false
	}
	return mod(a.r, b.m) == b.r
}

// meet is congruence.Cong.Meet; empty reports ⊥.
func (a cong) meet(b cong) (c cong, empty, ok bool) {
	switch {
	case a == b || b.top:
		return a, false, true
	case a.top:
		return b, false, true
	case a.m == 0:
		return a, !b.has(a.r), true
	case b.m == 0:
		return b, !a.has(b.r), true
	case a.leq(b):
		return a, false, true
	case b.leq(a):
		return b, false, true
	}
	// Chinese remainder theorem: x = r_a + m_a·t with
	// t ≡ ((r_b - r_a)/g)·(m_a/g)⁻¹ (mod m_b/g), g = gcd(m_a, m_b).
	g := int64(gcd(uint64(a.m), uint64(b.m)))
	d := b.r - a.r // in (-m_a, m_b): no overflow
	if d%g != 0 {
		return cong{}, true, true
	}
	ag, bg := a.m/g, b.m/g
	l, ok := mul64(ag, b.m)
	if !ok {
		return cong{}, false, false
	}
	t := mulMod(mod(d/g, bg), inverse(mod(ag, bg), bg), bg)
	return cong{m: l, r: a.r + a.m*t}, false, true // a.r + a.m·t < l
}

// join is congruence.Cong.Join: gcd(m_a, m_b, |r_a - r_b|) + r_a ℤ.
func (a cong) join(b cong) (cong, bool) {
	switch {
	case a == b:
		return a, true
	case a.top || b.top:
		return cong{top: true}, true
	}
	d := uint64(a.r) - uint64(b.r) // |r_a - r_b| < 2⁶⁴, modulo 2⁶⁴
	if a.r < b.r {
		d = -d
	}
	m := gcd(gcd(uint64(a.m), uint64(b.m)), d)
	if m > math.MaxInt64 {
		return cong{}, false
	}
	return cong{m: int64(m), r: mod(a.r, int64(m))}, true
}

// add is congruence.Cong.Add: gcd(m_a, m_b) + (r_a + r_b)ℤ.
func (a cong) add(b cong) (cong, bool) {
	if a.top || b.top {
		return cong{top: true}, true
	}
	m := int64(gcd(uint64(a.m), uint64(b.m)))
	if m == 0 {
		r, ok := add64(a.r, b.r)
		return cong{r: r}, ok
	}
	return cong{m: m, r: addMod(mod(a.r, m), mod(b.r, m), m)}, true
}

// neg is congruence.Cong.Neg.
func (a cong) neg() cong {
	switch {
	case a.top:
		return a
	case a.m == 0:
		return cong{r: -a.r}
	case a.r == 0:
		return a
	}
	return cong{m: a.m, r: a.m - a.r}
}

// addConst is congruence.Cong.AddConst.
func (a cong) addConst(k int64) (cong, bool) {
	switch {
	case a.top:
		return a, true
	case a.m == 0:
		r, ok := add64(a.r, k)
		return cong{r: r}, ok
	}
	return cong{m: a.m, r: addMod(a.r, mod(k, a.m), a.m)}, true
}

// mulConst is congruence.Cong.MulConst.
func (a cong) mulConst(k int64) (cong, bool) {
	switch {
	case k == 0:
		return cong{}, true // {0}
	case a.top:
		return a, true
	}
	m, ok1 := mul64(a.m, k)
	r, ok2 := mul64(a.r, k)
	if m < 0 {
		m = -m
	}
	if m != 0 {
		r = mod(r, m)
	}
	return cong{m: m, r: r}, ok1 && ok2
}

// mul is congruence.Cong.Mul: r_a·r_b + gcd(r_a·m_b, r_b·m_a, m_a·m_b)ℤ,
// or an exact scaling when a side is a singleton.
func (a cong) mul(b cong) (cong, bool) {
	switch {
	case !a.top && a.m == 0:
		return b.mulConst(a.r)
	case !b.top && b.m == 0:
		return a.mulConst(b.r)
	case a.top || b.top:
		return cong{top: true}, true
	}
	x, ok1 := mul64(a.r, b.m)
	y, ok2 := mul64(b.r, a.m)
	z, ok3 := mul64(a.m, b.m)
	r, ok4 := mul64(a.r, b.r)
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return cong{}, false
	}
	m := int64(gcd(gcd(abs64(x), abs64(y)), uint64(z))) // ≤ z
	return cong{m: m, r: mod(r, m)}, true
}

// bound is a finite or infinite interval bound, for the corner products
// of Mul: inf is -1 for -∞, +1 for +∞ and 0 for the finite v.
type bound struct {
	inf int
	v   int64
}

func (a IC) loBound() bound {
	if a.f&loInf != 0 {
		return bound{inf: -1}
	}
	return bound{v: a.lo}
}

func (a IC) hiBound() bound {
	if a.f&hiInf != 0 {
		return bound{inf: +1}
	}
	return bound{v: a.hi}
}

func (x bound) sign() int {
	switch {
	case x.inf != 0:
		return x.inf
	case x.v < 0:
		return -1
	case x.v > 0:
		return 1
	}
	return 0
}

// mulBound multiplies two bounds; 0 · ±∞ is 0, as in interval.Itv.Mul.
func mulBound(x, y bound) (bound, bool) {
	if x.inf == 0 && y.inf == 0 {
		v, ok := mul64(x.v, y.v)
		return bound{v: v}, ok
	}
	return bound{inf: x.sign() * y.sign()}, true
}

func (x bound) less(y bound) bool {
	if x.inf != y.inf {
		return x.inf < y.inf
	}
	return x.inf == 0 && x.v < y.v
}

// setBounds sets a's interval to [lo, hi].
func (a *IC) setBounds(lo, hi bound) {
	a.lo, a.hi = lo.v, hi.v
	a.f &^= loInf | hiInf
	if lo.inf < 0 {
		a.f |= loInf
	}
	if hi.inf > 0 {
		a.f |= hiInf
	}
}

// mul is pair.mul: the interval's bounds are the least and greatest of
// the four corner products.
func (a IC) mul(b IC) (IC, bool) {
	var corners [4]bound
	for i, xy := range [4][2]bound{
		{a.loBound(), b.loBound()}, {a.loBound(), b.hiBound()},
		{a.hiBound(), b.loBound()}, {a.hiBound(), b.hiBound()},
	} {
		var ok bool
		if corners[i], ok = mulBound(xy[0], xy[1]); !ok {
			return IC{}, false
		}
	}
	lo, hi := corners[0], corners[0]
	for _, c := range corners[1:] {
		if c.less(lo) {
			lo = c
		}
		if hi.less(c) {
			hi = c
		}
	}
	c, ok := a.cong().mul(b.cong())
	if !ok {
		return IC{}, false
	}
	out := IC{f: nonEmpty}
	out.setBounds(lo, hi)
	out.setCong(c)
	return out.reduce()
}

// square is pair.square: interval.Itv.Square is [0, max(lo², hi²)] on an
// interval holding 0, and the product's interval otherwise.
func (a IC) square() (IC, bool) {
	if !a.itvHas(0) {
		return a.mul(a)
	}
	c, ok := a.cong().mul(a.cong())
	if !ok {
		return IC{}, false
	}
	out := IC{f: nonEmpty}
	if a.f&(loInf|hiInf) != 0 {
		out.f |= hiInf
	} else {
		lo2, ok1 := mul64(a.lo, a.lo)
		hi2, ok2 := mul64(a.hi, a.hi)
		if !ok1 || !ok2 {
			return IC{}, false
		}
		out.hi = max(lo2, hi2)
	}
	out.setCong(c)
	return out.reduce()
}

// add64 returns a + b; ok is false when the sum leaves (-2⁶³, 2⁶³).
func add64(a, b int64) (int64, bool) {
	s := a + b
	return s, (a^s)&(b^s) >= 0 && s != math.MinInt64
}

// mul64 returns a · b; ok is false when the product leaves (-2⁶³, 2⁶³).
func mul64(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(abs64(a), abs64(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

// abs64 returns |a| as a uint64 (exact for every int64).
func abs64(a int64) uint64 {
	if a < 0 {
		return -uint64(a)
	}
	return uint64(a)
}

// mod returns a mod m in [0, m), for m > 0.
func mod(a, m int64) int64 {
	if 0 <= a && a < m {
		return a // no division: residues are mostly normalized already
	}
	x := a % m
	if x < 0 {
		x += m
	}
	return x
}

// addMod returns (a + b) mod m for a, b in [0, m).
func addMod(a, b, m int64) int64 {
	s := uint64(a) + uint64(b) // < 2⁶⁴
	if s >= uint64(m) {
		s -= uint64(m)
	}
	return int64(s)
}

// mulMod returns a·b mod m for a, b in [0, m).
func mulMod(a, b, m int64) int64 {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	_, r := bits.Div64(hi, lo, uint64(m)) // hi < m since a, b < m
	return int64(r)
}

// inverse returns a⁻¹ mod m for gcd(a, m) = 1, by the extended Euclidean
// algorithm; every intermediate is bounded by m.
func inverse(a, m int64) int64 {
	t, nt := int64(0), int64(1)
	r, nr := m, a
	for nr != 0 {
		q := r / nr
		t, nt = nt, t-q*nt
		r, nr = nr, r-q*nr
	}
	if t < 0 {
		t += m
	}
	return t
}

// floorDiv returns ⌊a/k⌋ for k ≠ 0.
func floorDiv(a, k int64) int64 {
	q := a / k
	if a%k != 0 && (a < 0) != (k < 0) {
		q--
	}
	return q
}

// ceilDiv returns ⌈a/k⌉ for k ≠ 0.
func ceilDiv(a, k int64) int64 {
	q := a / k
	if a%k != 0 && (a < 0) == (k < 0) {
		q++
	}
	return q
}

// gcd returns gcd(a, b) by the binary algorithm (gcd(0, b) = b).
func gcd(a, b uint64) uint64 {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	shift := bits.TrailingZeros64(a | b)
	a >>= bits.TrailingZeros64(a)
	for b != 0 {
		b >>= bits.TrailingZeros64(b)
		if a > b {
			a, b = b, a
		}
		b -= a
	}
	return a << shift
}
