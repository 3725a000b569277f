package rational

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// Q is an exact rational number held by value. It has two forms:
//
//   - small: an int64 numerator in (-2⁶³, 2⁶³) and a positive int64
//     denominator, in lowest terms, with no heap allocation;
//   - big: a *big.Rat, used only for a value the small form cannot hold.
//
// A value that fits the small form is always stored in it, so each value
// has exactly one representation: Eq, Cmp, Key and Words never
// depend on the path that built it. Arithmetic on two small operands
// runs on int64 with overflow checks (math/bits) and falls back to
// math/big only when an intermediate or the result does not fit.
//
// The zero value is 0. Q values are immutable; the big form's *big.Rat
// is shared between copies and is never mutated.
type Q struct {
	num  int64    // small form: numerator, never math.MinInt64
	den1 int64    // small form: denominator minus one, so the zero Q is 0/1
	big  *big.Rat // big form when non-nil
}

// QInt returns the rational n/1.
func QInt(n int64) Q {
	if n == math.MinInt64 {
		return Q{big: new(big.Rat).SetInt64(n)}
	}
	return Q{num: n}
}

// QFrac returns the rational num/den. It panics if den == 0.
func QFrac(num, den int64) Q {
	if den == 0 {
		panic("rational.QFrac: zero denominator")
	}
	if num != math.MinInt64 && den != math.MinInt64 {
		if den < 0 {
			num, den = -num, -den
		}
		g := int64(gcd64(abs64(num), uint64(den)))
		return Q{num: num / g, den1: den/g - 1}
	}
	return fromRat(big.NewRat(num, den))
}

// fromRat converts r to a Q. A value that fits the small form converts
// without allocating; otherwise the result shares r, which the caller
// must not mutate afterwards.
func fromRat(r *big.Rat) Q {
	n := r.Num() // aliases r, no allocation
	if !n.IsInt64() || n.Int64() == math.MinInt64 {
		return Q{big: r}
	}
	if r.IsInt() {
		return Q{num: n.Int64()}
	}
	d := r.Denom() // non-integer: aliases r, no allocation
	if !d.IsInt64() {
		return Q{big: r}
	}
	return Q{num: n.Int64(), den1: d.Int64() - 1}
}

// den returns the small form's denominator.
func (q Q) den() int64 { return q.den1 + 1 }

// rat returns q as a *big.Rat. A small value is converted into a fresh
// Rat; a big value returns the shared Rat, which must not be mutated.
func (q Q) rat() *big.Rat {
	if q.big != nil {
		return q.big
	}
	return big.NewRat(q.num, q.den())
}

// Sign returns -1, 0 or +1.
func (q Q) Sign() int {
	if q.big != nil {
		return q.big.Sign()
	}
	switch {
	case q.num < 0:
		return -1
	case q.num > 0:
		return 1
	}
	return 0
}

// IsZero reports whether q is zero.
func (q Q) IsZero() bool { return q.big == nil && q.num == 0 }

// IsInt reports whether q is an integer.
func (q Q) IsInt() bool {
	if q.big != nil {
		return q.big.IsInt()
	}
	return q.den1 == 0
}

// Int64 returns q when it is an integer in the small form, that is in
// (-2⁶³, 2⁶³); ok is false otherwise.
func (q Q) Int64() (n int64, ok bool) {
	if q.big != nil || q.den1 != 0 {
		return 0, false
	}
	return q.num, true
}

// Eq reports whether q == r.
func (q Q) Eq(r Q) bool {
	if q.big == nil && r.big == nil {
		return q.num == r.num && q.den1 == r.den1
	}
	if q.big == nil || r.big == nil {
		return false // one representation per value
	}
	// A big.Rat is kept in lowest terms, so equal values have equal
	// numerators and denominators. Comparing those allocates nothing,
	// unlike big.Rat.Cmp's cross products; Denom allocates for an
	// integer, so integers are told apart by IsInt first.
	if q.big.Num().Cmp(r.big.Num()) != 0 {
		return false
	}
	if qi, ri := q.big.IsInt(), r.big.IsInt(); qi || ri {
		return qi == ri
	}
	return q.big.Denom().Cmp(r.big.Denom()) == 0
}

// Cmp returns -1, 0 or +1 as q <, ==, > r.
func (q Q) Cmp(r Q) int {
	if q.big != nil || r.big != nil {
		return q.rat().Cmp(r.rat())
	}
	if q.den1 == 0 && r.den1 == 0 {
		return cmp64(q.num, r.num)
	}
	s := q.Sign()
	if s != r.Sign() {
		return cmp64(int64(s), int64(r.Sign()))
	}
	if s == 0 {
		return 0
	}
	// Same non-zero sign: compare |q.num|·r.den with |r.num|·q.den.
	h1, l1 := bits.Mul64(abs64(q.num), uint64(r.den()))
	h2, l2 := bits.Mul64(abs64(r.num), uint64(q.den()))
	if h1 != h2 {
		return cmpU64(h1, h2) * s
	}
	return cmpU64(l1, l2) * s
}

// Less reports whether q < r.
func (q Q) Less(r Q) bool { return q.Cmp(r) < 0 }

// Min returns the smaller of q and r (q on ties).
func (q Q) Min(r Q) Q {
	if q.Cmp(r) <= 0 {
		return q
	}
	return r
}

// Max returns the larger of q and r (q on ties).
func (q Q) Max(r Q) Q {
	if q.Cmp(r) >= 0 {
		return q
	}
	return r
}

// Neg returns -q.
func (q Q) Neg() Q {
	if q.big != nil {
		return fromRat(new(big.Rat).Neg(q.big))
	}
	return Q{num: -q.num, den1: q.den1}
}

// Abs returns |q|.
func (q Q) Abs() Q {
	if q.Sign() < 0 {
		return q.Neg()
	}
	return q
}

// Inv returns 1/q. It panics if q is zero.
func (q Q) Inv() Q {
	if q.big != nil {
		return fromRat(new(big.Rat).Inv(q.big))
	}
	switch {
	case q.num > 0:
		return Q{num: q.den(), den1: q.num - 1}
	case q.num < 0:
		return Q{num: -q.den(), den1: -q.num - 1}
	}
	panic("rational.Q.Inv: division by zero")
}

// Add returns q + r.
func (q Q) Add(r Q) Q {
	if q.big == nil && r.big == nil {
		if q.den1 == 0 && r.den1 == 0 {
			if s, ok := add64(q.num, r.num); ok {
				return Q{num: s}
			}
		} else if s, ok := addFrac(q, r); ok {
			return s
		}
	}
	return fromRat(new(big.Rat).Add(q.rat(), r.rat()))
}

// addFrac adds two small values with at least one non-integer; ok is
// false when an intermediate overflows.
func addFrac(q, r Q) (Q, bool) {
	qd, rd := q.den(), r.den()
	g := int64(gcd64(uint64(qd), uint64(rd)))
	rs := rd / g // r.den / g
	qs := qd / g
	n1, ok1 := mul64(q.num, rs)
	n2, ok2 := mul64(r.num, qs)
	d, ok3 := mul64(qd, rs)
	if !ok1 || !ok2 || !ok3 {
		return Q{}, false
	}
	n, ok := add64(n1, n2)
	if !ok {
		return Q{}, false
	}
	if n == 0 {
		return Q{}, true
	}
	h := int64(gcd64(abs64(n), uint64(d)))
	return Q{num: n / h, den1: d/h - 1}, true
}

// Sub returns q - r.
func (q Q) Sub(r Q) Q {
	if r.big == nil {
		return q.Add(Q{num: -r.num, den1: r.den1})
	}
	return fromRat(new(big.Rat).Sub(q.rat(), r.big))
}

// Mul returns q · r.
func (q Q) Mul(r Q) Q {
	if q.big == nil && r.big == nil {
		if q.den1 == 0 && r.den1 == 0 {
			if p, ok := mul64(q.num, r.num); ok {
				return Q{num: p}
			}
		} else if p, ok := mulFrac(q, r); ok {
			return p
		}
	}
	return fromRat(new(big.Rat).Mul(q.rat(), r.rat()))
}

// mulFrac multiplies two small values, cancelling cross factors first
// so the result is already in lowest terms; ok is false on overflow.
func mulFrac(q, r Q) (Q, bool) {
	if q.num == 0 || r.num == 0 {
		return Q{}, true
	}
	qd, rd := q.den(), r.den()
	g1 := int64(gcd64(abs64(q.num), uint64(rd)))
	g2 := int64(gcd64(abs64(r.num), uint64(qd)))
	n, ok1 := mul64(q.num/g1, r.num/g2)
	d, ok2 := mul64(qd/g2, rd/g1)
	if !ok1 || !ok2 {
		return Q{}, false
	}
	return Q{num: n, den1: d - 1}, true
}

// Div returns q / r. It panics if r is zero.
func (q Q) Div(r Q) Q { return q.Mul(r.Inv()) }

// GCD returns the rational gcd of q and r: the largest g > 0 with q/g
// and r/g both integers (gcd(0, r) = |r|). For fractions in lowest terms
// it is gcd(numerators) / lcm(denominators).
func GCD(q, r Q) Q {
	if q.IsZero() {
		return r.Abs()
	}
	if r.IsZero() {
		return q.Abs()
	}
	if q.big == nil && r.big == nil {
		qd, rd := uint64(q.den()), uint64(r.den())
		n := gcd64(abs64(q.num), abs64(r.num))
		if d, ok := mul64(int64(qd/gcd64(qd, rd)), int64(rd)); ok {
			return Q{num: int64(n), den1: d - 1}
		}
	}
	// gcd(p1/q1, p2/q2) = gcd(p1·q2, p2·q1) / (q1·q2).
	qr, rr := q.rat(), r.rat()
	n1 := new(big.Int).Mul(qr.Num(), rr.Denom())
	n2 := new(big.Int).Mul(rr.Num(), qr.Denom())
	g := new(big.Int).GCD(nil, nil, n1.Abs(n1), n2.Abs(n2))
	return fromRat(new(big.Rat).SetFrac(g, new(big.Int).Mul(qr.Denom(), rr.Denom())))
}

// Floor returns the largest integer <= q.
func (q Q) Floor() Q {
	if q.big != nil {
		// The denominator is positive, so Euclidean division floors.
		return fromRat(new(big.Rat).SetInt(new(big.Int).Div(q.big.Num(), q.big.Denom())))
	}
	if q.den1 == 0 {
		return q
	}
	f := q.num / q.den() // truncates toward zero
	if q.num < 0 {
		f--
	}
	return Q{num: f}
}

// Ceil returns the smallest integer >= q.
func (q Q) Ceil() Q {
	if q.big != nil {
		return q.Neg().Floor().Neg()
	}
	if q.den1 == 0 {
		return q
	}
	c := q.num / q.den()
	if q.num > 0 {
		c++
	}
	return Q{num: c}
}

// Key returns the canonical string of q, the same as big.Rat's
// RatString of the equal value ("7", "-3/2").
func (q Q) Key() string {
	if q.big != nil {
		return q.big.RatString()
	}
	s := strconv.FormatInt(q.num, 10)
	if q.den1 != 0 {
		s += "/" + strconv.FormatInt(q.den(), 10)
	}
	return s
}

// String renders q as Key does.
func (q Q) String() string { return q.Key() }

// Words returns the storage footprint of q in machine words: the limbs
// of its numerator plus those of its denominator, counted the same on
// either form. This is the measure of the paper's "more than 20 memory
// words" propagation limit (§7.1).
func (q Q) Words() int {
	if q.big != nil {
		return words(q.big)
	}
	return wordsOf(abs64(q.num)) + wordsOf(uint64(q.den()))
}

// words returns the limbs of r's numerator plus those of its denominator.
func words(r *big.Rat) int { return len(r.Num().Bits()) + len(r.Denom().Bits()) }

// wordsOf returns the number of big.Word limbs holding u.
func wordsOf(u uint64) int { return (bits.Len64(u) + bits.UintSize - 1) / bits.UintSize }

// add64 returns a + b; ok is false when the sum leaves the small range.
func add64(a, b int64) (int64, bool) {
	s := a + b
	if (a^s)&(b^s) < 0 || s == math.MinInt64 {
		return 0, false
	}
	return s, true
}

// mul64 returns a · b; ok is false when the product leaves the small
// range (-2⁶³, 2⁶³).
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
		return uint64(-a)
	}
	return uint64(a)
}

// gcd64 returns gcd(a, b) by the binary algorithm (gcd(0, b) = b).
func gcd64(a, b uint64) uint64 {
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

func cmp64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpU64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
