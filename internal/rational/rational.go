// Package rational provides Q, the one exact rational type of the
// labeled union-find library.
//
// Q is held by value: an int64 fraction with no heap allocation, falling
// back to a *big.Rat only when a result leaves int64. Every layer that
// computes with rationals uses it: the §7.1 solver and its Shostak
// theory, the rational constant-difference, TVPE and matrix labels, the
// intervals, congruences and difference-bound matrices. No other
// package touches math/big; the kernels that need it live here:
//
//   - ParseQ and ParseKey, the parsers of rational literals: ParseQ
//     bounds the literals it accepts from outside input, and ParseKey
//     reads back any Key, such as a journaled label;
//   - RoundDown and RoundUp, the bounded-size over-approximations that
//     Section 7.1 of the paper uses to tame slow convergences ("we
//     limited the propagation of the interval domain when its bounds
//     take more than 20 memory words");
//   - SqrtUpper and CRT, the square-root bound and the Chinese remainder
//     step of the interval and congruence domains.
package rational

import (
	"fmt"
	"math/big"
	"strings"
)

// maxParseDigits caps every digit run ParseQ accepts. It sits just
// above the 386 decimal digits of a 20-word (1280-bit) integer, the
// largest bound the §7.1 word guard keeps, so no literal an input can
// carry costs more than the solver's own arithmetic.
const maxParseDigits = 400

// ParseQ parses a rational literal from outside input. It reads the
// forms ParseKey reads, and refuses any run of more than maxParseDigits
// (400) digits before converting it, so the cost of a parse is bounded
// by the length of s.
func ParseQ(s string) (Q, error) {
	return parse(s, maxParseDigits)
}

// ParseKey parses a rational literal in one of three forms: an integer
// "[-]D", a fraction "[-]D/D" or a decimal "[-]D.D", where D is a run of
// decimal digits. A fraction's parts carry no leading zero (math/big
// would read them as octal). Exponents, hex and other bases, underscores
// and signs other than one leading '-' are refused. Every Key is in one
// of these forms and reads back unchanged, however many digits it has;
// ParseKey is for bytes whose size their container already bounds, such
// as a checksummed journal frame. Outside input goes through ParseQ.
func ParseKey(s string) (Q, error) {
	return parse(s, 0)
}

// parse implements ParseQ and ParseKey; maxDigits > 0 caps every digit
// run of s.
func parse(s string, maxDigits int) (Q, error) {
	body, _ := strings.CutPrefix(s, "-")
	num, den, sep := body, "", byte(0)
	if i := strings.IndexAny(body, "/."); i >= 0 {
		num, den, sep = body[:i], body[i+1:], body[i]
	}
	if !isDigits(num) || sep != 0 && !isDigits(den) ||
		sep == '/' && (len(num) > 1 && num[0] == '0' || len(den) > 1 && den[0] == '0') {
		return Q{}, fmt.Errorf("rational: cannot parse %q", s)
	}
	if maxDigits > 0 && (len(num) > maxDigits || len(den) > maxDigits) {
		return Q{}, fmt.Errorf("rational: literal has more than %d digits in a row", maxDigits)
	}
	if sep == '/' && den == "0" {
		return Q{}, fmt.Errorf("rational: %q has a zero denominator", s)
	}
	r, _ := new(big.Rat).SetString(s) // s is in a form SetString reads the same way
	return fromRat(r), nil
}

// isDigits reports whether s is a non-empty run of decimal digits.
func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// RoundDown returns a value q' <= q whose storage footprint is at most
// maxWords words (at least 2). It is the "on-demand floating point
// approximation" of Section 7.1: when interval bounds grow too large,
// they are relaxed to nearby dyadic rationals with small denominators.
// A value within the budget is returned unchanged. ok is false when the
// integer part of q alone does not fit the budget: no rational within
// it is close to q, and a caller bounding an interval relaxes that
// bound to -∞.
func (q Q) RoundDown(maxWords int) (Q, bool) {
	if q.Words() <= maxWords {
		return q, true
	}
	return dyadicApprox(q.rat(), maxWords, false)
}

// RoundUp returns a value q' >= q whose storage footprint is at most
// maxWords words; ok is false when the integer part of q does not fit
// (the bound relaxes to +∞). See RoundDown.
func (q Q) RoundUp(maxWords int) (Q, bool) {
	if q.Words() <= maxWords {
		return q, true
	}
	return dyadicApprox(q.rat(), maxWords, true)
}

// dyadicApprox approximates r by m / 2^k, rounding towards +inf when up
// is true and towards -inf otherwise. It starts with about half the
// budget for the fraction bits k and gives up a word of them at a time
// until m / 2^k fits in maxWords words; at k = 0 the result is r's floor
// or ceiling, and when even that does not fit ok is false.
func dyadicApprox(r *big.Rat, maxWords int, up bool) (Q, bool) {
	if maxWords < 2 {
		maxWords = 2
	}
	num, den := r.Num(), r.Denom()
	for k := (maxWords/2)*64 - 1; ; k -= 64 {
		if k < 0 {
			k = 0
		}
		// m = floor_or_ceil(num * 2^k / den)
		scaled := new(big.Int).Lsh(num, uint(k))
		quo, rem := new(big.Int).QuoRem(scaled, den, new(big.Int))
		if rem.Sign() != 0 {
			// big.Int Quo truncates towards zero; fix the direction.
			neg := (rem.Sign() < 0)
			if up && !neg {
				quo.Add(quo, big.NewInt(1))
			} else if !up && neg {
				quo.Sub(quo, big.NewInt(1))
			}
		}
		out := new(big.Rat).SetFrac(quo, new(big.Int).Lsh(big.NewInt(1), uint(k)))
		if words(out) <= maxWords {
			return fromRat(out), true
		}
		if k == 0 {
			return Q{}, false
		}
	}
}

// SqrtUpper returns a rational u ≥ √v for v ≥ 0, tight to within 1/2^20
// when v fits a float64 and rounded up to an integer otherwise.
func SqrtUpper(v Q) Q {
	if v.Sign() == 0 {
		return Q{}
	}
	r := v.rat()
	f, _ := r.Float64()
	if f > 0 && f <= 1e300 {
		u := new(big.Rat).SetFloat64(sqrtNewton(f) * (1 + 1e-9))
		if u != nil && new(big.Rat).Mul(u, u).Cmp(r) >= 0 {
			return fromRat(u)
		}
	}
	// Fallback: binary search on integers above.
	lo, hi := new(big.Int).SetInt64(0), new(big.Int).SetInt64(1)
	for new(big.Rat).SetInt(hi).Cmp(r) < 0 {
		hi.Lsh(hi, 1)
	}
	// hi >= v >= sqrt(v) for v >= 1; for v < 1, 1 is an upper bound.
	for i := 0; i < 80; i++ {
		mid := new(big.Int).Add(lo, hi)
		mid.Rsh(mid, 1)
		if mid.Cmp(lo) == 0 {
			break
		}
		m2 := new(big.Rat).SetInt(new(big.Int).Mul(mid, mid))
		if m2.Cmp(r) >= 0 {
			hi.Set(mid)
		} else {
			lo.Set(mid)
		}
	}
	return fromRat(new(big.Rat).SetInt(hi))
}

// sqrtNewton approximates √f by 64 Newton steps.
func sqrtNewton(f float64) float64 {
	x := f
	if x < 1 {
		x = 1
	}
	for i := 0; i < 64; i++ {
		x = (x + f/x) / 2
	}
	return x
}

// CRT intersects r1 + m1·ℤ with r2 + m2·ℤ (m1, m2 > 0) by the Chinese
// remainder theorem over ℤ, after clearing denominators: the result is
// r + m·ℤ, and ok is false when the intersection is empty.
func CRT(m1, r1, m2, r2 Q) (m, r Q, ok bool) {
	am, ar, bm, br := m1.rat(), r1.rat(), m2.rat(), r2.rat()
	// Clear denominators: scale by D so everything is an integer.
	D := new(big.Int).Mul(am.Denom(), ar.Denom())
	D.Mul(D, bm.Denom())
	D.Mul(D, br.Denom())
	scale := new(big.Rat).SetInt(D)
	im1 := new(big.Rat).Mul(am, scale).Num()
	ir1 := new(big.Rat).Mul(ar, scale).Num()
	im2 := new(big.Rat).Mul(bm, scale).Num()
	ir2 := new(big.Rat).Mul(br, scale).Num()
	// Solve x ≡ r1 (mod m1), x ≡ r2 (mod m2) over ℤ.
	g := new(big.Int)
	s := new(big.Int)
	g.GCD(s, nil, im1, im2)
	diff := new(big.Int).Sub(ir2, ir1)
	if new(big.Int).Mod(diff, g).Sign() != 0 {
		return Q{}, Q{}, false
	}
	// x = r1 + m1 · t where t ≡ (diff/g)·s (mod m2/g), s from Bézout
	// s·m1 + _·m2 = g.
	m2g := new(big.Int).Quo(im2, g)
	t := new(big.Int).Quo(diff, g)
	t.Mul(t, s)
	t.Mod(t, m2g)
	x := new(big.Int).Mul(im1, t)
	x.Add(x, ir1)
	l := new(big.Int).Quo(new(big.Int).Mul(im1, im2), g) // lcm
	// Scale back down.
	return fromRat(new(big.Rat).SetFrac(l, D)), fromRat(new(big.Rat).SetFrac(x, D)), true
}
