package rational_test

import (
	"fmt"
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
	if got.A.Key() != want.a.RatString() || got.B.Key() != want.b.RatString() {
		t.Fatalf("%s = %s, want *%s+%s", what, group.TVPE{}.Format(got), want.a.RatString(), want.b.RatString())
	}
	if key := want.a.RatString() + "|" + want.b.RatString(); (group.TVPE{}).Key(got) != key {
		t.Fatalf("%s: Key %q, want %q", what, group.TVPE{}.Key(got), key)
	}
}

// checkParse checks ParseQ on s: where it accepts s, it must agree with
// big.Rat.SetString.
func checkParse(t *testing.T, s string) {
	t.Helper()
	q, err := rational.ParseQ(s)
	if err != nil {
		return
	}
	r, ok := new(big.Rat).SetString(s)
	if !ok || q.Key() != r.RatString() {
		t.Fatalf("ParseQ(%q) = %s, big.Rat reads %v (ok=%v)", s, q, r, ok)
	}
}

// FuzzQ checks every Q operation against math/big on random operands,
// including ones near ±2⁶³ and denominators that overflow, TVPE
// Compose/Inverse chains against a *big.Rat reference, and ParseQ and
// ParseKey: both read back every Key, and ParseQ agrees with
// big.Rat.SetString on every literal it accepts.
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

		for _, r := range []*big.Rat{a, b} {
			q := rational.FromRat(r)
			if back, err := rational.ParseQ(q.Key()); err != nil || !back.Eq(q) {
				t.Fatalf("ParseQ(%q) = %v, %v; want %s", q.Key(), back, err, q)
			}
			if back, err := rational.ParseKey(q.Key()); err != nil || !back.Eq(q) {
				t.Fatalf("ParseKey(%q) = %v, %v; want %s", q.Key(), back, err, q)
			}
		}
		for _, s := range []string{
			fmt.Sprintf("%d/%d", an, ad), fmt.Sprintf("%d.%d", an, bd),
			fmt.Sprintf("%d/%d", bn, bd), fmt.Sprintf("%d.%d", bn, ad),
			fmt.Sprintf("%d/0%d", an, uint64(ad)), fmt.Sprintf("%de%d", an, ka),
			a.RatString(), a.FloatString(int(ka % 40)), b.FloatString(int(kb % 40)),
		} {
			checkParse(t, s)
		}

		if a.Sign() == 0 || b.Sign() == 0 {
			return
		}
		g := group.TVPE{}
		qa, qb := rational.FromRat(a), rational.FromRat(b)
		l1, r1 := group.MustAffine(qa, qb), affineRef{a, b}
		l2, r2 := group.MustAffine(qb, qa), affineRef{b, a}
		c := g.Compose(g.Compose(l1, l2), g.Inverse(l1))
		rc := r1.compose(r2).compose(r1.inverse())
		checkLabel(t, "l1;l2;l1⁻¹", c, rc)
		checkLabel(t, "(l1;l2;l1⁻¹)⁻¹", g.Inverse(c), rc.inverse())
		if id := g.Compose(c, g.Inverse(c)); !g.Equal(id, g.Identity()) {
			t.Fatalf("c;c⁻¹ = %s, want the identity", g.Format(id))
		}
	})
}
