package domain

import (
	"math"
	"math/rand"
	"testing"

	"luf/internal/congruence"
	"luf/internal/group"
	"luf/internal/interval"
	"luf/internal/rational"
)

// icBytes draws the fuzzer's choices from its input, reading 0 once the
// input is used up.
type icBytes []byte

func (b *icBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// q draws a rational: a small integer, a fraction, or a value past
// int64 (big form).
func (b *icBytes) q() rational.Q {
	n := rational.QInt(int64(b.next(17) - 8))
	switch b.next(4) {
	case 1:
		return rational.QFrac(int64(b.next(17)-8), int64(1+b.next(6)))
	case 2:
		big := rational.QInt(math.MaxInt64).Add(n)
		if b.next(2) == 1 {
			big = big.Neg()
		}
		if b.next(2) == 1 {
			big = big.Div(rational.QInt(3))
		}
		return big
	}
	return n
}

// itv draws an interval with finite or infinite bounds, possibly empty.
func (b *icBytes) itv() interval.Itv {
	lo := b.q()
	switch b.next(5) {
	case 0:
		return interval.Top()
	case 1:
		return interval.AtLeast(lo)
	case 2:
		return interval.AtMost(lo)
	case 3:
		return interval.Const(lo)
	}
	return interval.Range(lo, lo.Add(b.q().Abs()))
}

// cong draws a congruence: ⊤, the integers, a singleton or r + mℤ.
func (b *icBytes) cong() congruence.Cong {
	switch b.next(5) {
	case 0:
		return congruence.Top()
	case 1, 2:
		return congruence.Integers()
	case 3:
		return congruence.Const(b.q())
	}
	m := b.q()
	if m.Sign() == 0 {
		m = rational.QInt(2)
	}
	return congruence.Modulo(m, b.q())
}

// raw draws an interval and a congruence with no reduction between them.
func (b *icBytes) raw() IC {
	if b.next(12) == 0 {
		return Bottom()
	}
	return newIC(b.itv(), b.cong())
}

// value draws a reduced value (by the long path): ⊥, ⊤, the integers,
// singletons, and integer and rational bounds, small or big.
func (b *icBytes) value() IC {
	switch b.next(8) {
	case 0:
		return Bottom()
	case 1:
		return Top()
	case 2:
		return Integers()
	case 3:
		return Const(b.q())
	}
	return reduceLong(b.raw())
}

// reduceLong is Reduce without its unit exit: it tightens every value's
// bounds onto the congruence.
func reduceLong(a IC) IC {
	if a.IsBottom() {
		return Bottom()
	}
	itv, ok := tighten(a.I(), a.C())
	if !ok {
		return Bottom()
	}
	c := collapse(itv, a.C())
	return c.ic()
}

// checkReduced fails unless x is reduced by the long path.
func checkReduced(t *testing.T, op string, x IC, args ...IC) {
	t.Helper()
	if r := reduceLong(x); !r.Eq(x) {
		t.Fatalf("%s%v = %s is not reduced: reduces to %s", op, args, x, r)
	}
}

// FuzzICFastPaths checks the value domain's fast paths against the long
// paths they skip, on reduced values: integer and rational bounds,
// singletons, ⊤, ⊥ and values past int64. Every operation the analyzer
// writes into a state must return a reduced value, since the analyzer's
// own shortcuts rely on it (x ⊔ x = x, and x ⊑ y ⇒ x ⊓ y = x); IC.Sub
// must equal Add(Neg); Reduce's unit exit must equal full tightening;
// and Meet and Join must return their argument on equal arguments.
func FuzzICFastPaths(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		seed := make([]byte, 48)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := icBytes(data)
		a, b, c := in.value(), in.value(), in.q()
		checkReduced(t, "value", a)
		checkReduced(t, "value", b)

		checkReduced(t, "Meet", a.Meet(b), a, b)
		checkReduced(t, "Join", a.Join(b), a, b)
		checkReduced(t, "Widen", a.Widen(b), a, b)
		checkReduced(t, "Add", a.Add(b), a, b)
		checkReduced(t, "Sub", a.Sub(b), a, b)
		checkReduced(t, "Mul", a.Mul(b), a, b)
		checkReduced(t, "Neg", a.Neg(), a)
		checkReduced(t, "AddConst", a.AddConst(c), a, Const(c))
		checkReduced(t, "MulConst", a.MulConst(c), a, Const(c))
		checkReduced(t, "MeetInt", a.MeetInt(), a)
		if c.Sign() != 0 {
			l := group.MustAffine(c, in.q())
			checkReduced(t, "ApplyAffine", a.ApplyAffine(l), a, Const(l.A), Const(l.B))
		}

		if got, want := a.Sub(b), a.Add(b.Neg()); !got.Eq(want) {
			t.Fatalf("%s.Sub(%s) = %s, Add(Neg) gives %s", a, b, got, want)
		}
		if got, want := a.C().Sub(b.C()), a.C().Add(b.C().Neg()); !got.Eq(want) {
			t.Fatalf("%s.Sub(%s) = %s, Add(Neg) gives %s", a.C(), b.C(), got, want)
		}
		if a.Leq(b) {
			if m := a.Meet(b); !m.Eq(a) {
				t.Fatalf("%s ⊑ %s but their meet is %s", a, b, m)
			}
		}
		if m, j := a.Meet(a), a.Join(a); !m.Eq(a) || !j.Eq(a) {
			t.Fatalf("%s ⊓ itself = %s, ⊔ itself = %s", a, m, j)
		}

		// Reduce, unit exit included, on values that need reducing.
		r := in.raw()
		if got, want := r.Reduce(), reduceLong(r); !got.Eq(want) {
			t.Fatalf("Reduce(%s ∧ %s) = %s, full tightening gives %s", r.I(), r.C(), got, want)
		}
		if !r.IsBottom() && r.C().IsIntegers() && intBounds(r.I()) {
			if itv, ok := tighten(r.I(), r.C()); !ok || !itv.Eq(r.I()) {
				t.Fatalf("tightening %s onto the integers gives %s (ok=%v), want it unchanged", r.I(), itv, ok)
			}
		}
	})
}
