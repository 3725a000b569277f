package rational_test

import (
	"math"
	"math/big"
	"testing"

	"luf/internal/group"
	"luf/internal/rational"
)

// operand builds a fuzz operand from raw inputs: n/d as given, shifted
// next to ±2⁶³, scaled past int64 by a power of two, or put over a
// denominator near the int64 limit, as k selects.
func operand(n, d int64, k uint8) *big.Rat {
	if d == 0 {
		d = 1
	}
	r := big.NewRat(n, d)
	switch k % 4 {
	case 1:
		near := big.NewRat(math.MaxInt64-int64(k>>2), 1)
		if n < 0 {
			near.Neg(near)
		}
		r.Add(r, near)
	case 2:
		r.Mul(r, new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), uint(k>>2))))
	case 3:
		r.Quo(r, big.NewRat(math.MaxInt64-int64(k>>2), 1))
	}
	return r
}

// affineRef is a TVPE label with *big.Rat coefficients, composed with
// the same formulas as group.TVPE, as the reference for the Q labels.
type affineRef struct{ a, b *big.Rat }

func (l affineRef) compose(m affineRef) affineRef {
	return affineRef{
		a: new(big.Rat).Mul(l.a, m.a),
		b: new(big.Rat).Add(new(big.Rat).Mul(m.a, l.b), m.b),
	}
}

func (l affineRef) inverse() affineRef {
	inv := new(big.Rat).Inv(l.a)
	return affineRef{a: inv, b: new(big.Rat).Neg(new(big.Rat).Mul(inv, l.b))}
}

func checkLabel(t *testing.T, what string, got group.Affine, want affineRef) {
	t.Helper()
	if got.A.Rat().Cmp(want.a) != 0 || got.B.Rat().Cmp(want.b) != 0 {
		t.Fatalf("%s = %s, want *%s+%s", what, group.TVPE{}.Format(got), want.a.RatString(), want.b.RatString())
	}
	if key := want.a.RatString() + "|" + want.b.RatString(); (group.TVPE{}).Key(got) != key {
		t.Fatalf("%s: Key %q, want %q", what, group.TVPE{}.Key(got), key)
	}
}

// FuzzQ checks every Q operation against math/big on random operands,
// including ones near ±2⁶³ and denominators that overflow, and TVPE
// Compose/Inverse chains against a *big.Rat reference.
func FuzzQ(f *testing.F) {
	f.Add(int64(7), int64(3), int64(-12), int64(1), uint8(0), uint8(0))
	f.Add(int64(1), int64(1), int64(1), int64(1), uint8(1), uint8(1))
	f.Add(int64(-3), int64(2), int64(5), int64(7), uint8(2+4*63), uint8(3))
	f.Add(int64(math.MaxInt64), int64(1), int64(math.MinInt64), int64(-1), uint8(0), uint8(5))
	f.Add(int64(1), int64(math.MaxInt64), int64(-1), int64(math.MaxInt64-1), uint8(3), uint8(7))
	f.Fuzz(func(t *testing.T, an, ad, bn, bd int64, ka, kb uint8) {
		a, b := operand(an, ad, ka), operand(bn, bd, kb)
		rational.CheckQPair(t, a, b)
		rational.CheckQPair(t, b, a)

		if a.Sign() == 0 || b.Sign() == 0 {
			return
		}
		g := group.TVPE{}
		l1, r1 := group.MustAffine(a, b), affineRef{a, b}
		l2, r2 := group.MustAffine(b, a), affineRef{b, a}
		c := g.Compose(g.Compose(l1, l2), g.Inverse(l1))
		rc := r1.compose(r2).compose(r1.inverse())
		checkLabel(t, "l1;l2;l1⁻¹", c, rc)
		checkLabel(t, "(l1;l2;l1⁻¹)⁻¹", g.Inverse(c), rc.inverse())
		if id := g.Compose(c, g.Inverse(c)); !g.Equal(id, g.Identity()) {
			t.Fatalf("c;c⁻¹ = %s, want the identity", g.Format(id))
		}
	})
}
