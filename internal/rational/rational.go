// Package rational provides the exact rationals of the labeled
// union-find library.
//
// Q is the value type of the §7.2 analyzer's layers (intervals,
// congruences, their reduced product, TVPE labels): an int64 fraction
// with no heap allocation, falling back to a *big.Rat only when a result
// leaves int64. The *big.Rat helpers below serve the layers whose values
// really are big (the §7.1 solver, Shostak, rational constant
// differences): construction shorthands, deterministic hashing keys,
// size accounting, and the bounded-size over-approximations that
// Section 7.1 of the paper uses to tame slow convergences ("we limited
// the propagation of the interval domain when its bounds take more than
// 20 memory words").
//
// All functions treat *big.Rat values as immutable: they never mutate their
// arguments and never return an alias of an argument unless the result is
// mathematically identical to it.
package rational

import (
	"fmt"
	"math/big"

	"luf/internal/fault"
)

// Common constants. These must never be mutated; use Clone when a mutable
// copy is needed.
var (
	Zero     = big.NewRat(0, 1)
	One      = big.NewRat(1, 1)
	MinusOne = big.NewRat(-1, 1)
	Two      = big.NewRat(2, 1)
	Half     = big.NewRat(1, 2)
)

// Int returns the rational n/1.
func Int(n int64) *big.Rat { return new(big.Rat).SetInt64(n) }

// New returns the rational num/den. It panics if den == 0.
func New(num, den int64) *big.Rat { return big.NewRat(num, den) }

// Clone returns a fresh copy of r.
func Clone(r *big.Rat) *big.Rat { return new(big.Rat).Set(r) }

// Add returns a + b without mutating either.
func Add(a, b *big.Rat) *big.Rat { return new(big.Rat).Add(a, b) }

// Sub returns a - b without mutating either.
func Sub(a, b *big.Rat) *big.Rat { return new(big.Rat).Sub(a, b) }

// Mul returns a * b without mutating either.
func Mul(a, b *big.Rat) *big.Rat { return new(big.Rat).Mul(a, b) }

// Div returns a / b without mutating either. It panics if b is zero.
func Div(a, b *big.Rat) *big.Rat { return new(big.Rat).Quo(a, b) }

// Neg returns -a without mutating a.
func Neg(a *big.Rat) *big.Rat { return new(big.Rat).Neg(a) }

// Inv returns 1/a without mutating a. It panics if a is zero.
func Inv(a *big.Rat) *big.Rat { return new(big.Rat).Inv(a) }

// IsZero reports whether r is zero.
func IsZero(r *big.Rat) bool { return r.Sign() == 0 }

// IsOne reports whether r is one.
func IsOne(r *big.Rat) bool { return r.Cmp(One) == 0 }

// Eq reports whether a == b.
func Eq(a, b *big.Rat) bool { return a.Cmp(b) == 0 }

// Less reports whether a < b.
func Less(a, b *big.Rat) bool { return a.Cmp(b) < 0 }

// Min returns the smaller of a and b (a on ties).
func Min(a, b *big.Rat) *big.Rat {
	if a.Cmp(b) <= 0 {
		return a
	}
	return b
}

// Max returns the larger of a and b (a on ties).
func Max(a, b *big.Rat) *big.Rat {
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

// IsInt reports whether r is an integer.
func IsInt(r *big.Rat) bool { return r.IsInt() }

// Key returns a canonical string key for r, suitable for use as a map key.
// big.Rat normalizes sign and gcd, so RatString is canonical.
func Key(r *big.Rat) string { return r.RatString() }

// Words returns the storage footprint of r in machine words, counting the
// limbs of the numerator and denominator. This is the measure used by the
// paper's "more than 20 memory words" propagation limit.
func Words(r *big.Rat) int {
	return len(r.Num().Bits()) + len(r.Denom().Bits())
}

// Floor returns the largest integer <= r, as a rational.
func Floor(r *big.Rat) *big.Rat {
	if r.IsInt() {
		return Clone(r)
	}
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if r.Sign() < 0 {
		q.Sub(q, big.NewInt(1))
	}
	return new(big.Rat).SetInt(q)
}

// Ceil returns the smallest integer >= r, as a rational.
func Ceil(r *big.Rat) *big.Rat {
	if r.IsInt() {
		return Clone(r)
	}
	q := new(big.Int).Quo(r.Num(), r.Denom())
	if r.Sign() > 0 {
		q.Add(q, big.NewInt(1))
	}
	return new(big.Rat).SetInt(q)
}

// RoundDown returns a rational r' <= r whose storage footprint is at most
// maxWords words (at least 2). It is the "on-demand floating point
// approximation" of Section 7.1: when interval bounds grow too large,
// they are relaxed to nearby dyadic rationals with small denominators.
// RoundDown is idempotent on already-small rationals. It returns nil when
// the integer part of r alone does not fit the budget: no rational within
// it is close to r, and a caller bounding an interval relaxes that bound
// to -∞.
func RoundDown(r *big.Rat, maxWords int) *big.Rat {
	if Words(r) <= maxWords {
		return r
	}
	return dyadicApprox(r, maxWords, false)
}

// RoundUp returns a rational r' >= r whose storage footprint is at most
// maxWords words, or nil when the integer part of r does not fit (the
// bound relaxes to +∞). See RoundDown.
func RoundUp(r *big.Rat, maxWords int) *big.Rat {
	if Words(r) <= maxWords {
		return r
	}
	return dyadicApprox(r, maxWords, true)
}

// dyadicApprox approximates r by m / 2^k, rounding towards +inf when up
// is true and towards -inf otherwise. It starts with about half the
// budget for the fraction bits k and gives up a word of them at a time
// until m / 2^k fits in maxWords words; at k = 0 the result is r's floor
// or ceiling, and when even that does not fit it returns nil.
func dyadicApprox(r *big.Rat, maxWords int, up bool) *big.Rat {
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
		if Words(out) <= maxWords {
			return out
		}
		if k == 0 {
			return nil
		}
	}
}

// Format renders r compactly: integers without denominator, otherwise n/d.
func Format(r *big.Rat) string {
	if r == nil {
		return "<nil>"
	}
	return r.RatString()
}

// Parse parses a rational from a string accepted by big.Rat.SetString
// ("3", "-7/2", "0.5", ...). It returns an error on malformed input.
func Parse(s string) (*big.Rat, error) {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return nil, fmt.Errorf("rational: cannot parse %q", s)
	}
	return r, nil
}

// MustParse is Parse that panics with a classified error on malformed
// input; for tests and tables.
func MustParse(s string) *big.Rat {
	r, err := Parse(s)
	if err != nil {
		panic(fault.Invalidf("rational.MustParse: %v", err))
	}
	return r
}

// Sum returns the sum of rs (zero for an empty slice).
func Sum(rs ...*big.Rat) *big.Rat {
	acc := new(big.Rat)
	for _, r := range rs {
		acc.Add(acc, r)
	}
	return acc
}
