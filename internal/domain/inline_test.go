package domain

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"luf/internal/congruence"
	"luf/internal/group"
	"luf/internal/interval"
	"luf/internal/rational"
)

// edges are the int64 values where an int64 path can go wrong: zero and
// ±1, the ends of the small range (-2⁶³, 2⁶³) and math.MinInt64 just past
// it, and moduli near 2⁶².
var edges = [...]int64{
	0, 1, -1, 2, -2, 3, 6, -7,
	math.MaxInt64, -math.MaxInt64, math.MaxInt64 - 1, math.MinInt64,
	1 << 62, 1<<62 + 1, 1<<62 - 1, -(1 << 62), 3 << 61, 1<<62 + 3,
}

// int64 draws an edge, a small integer or any int64.
func (b *icBytes) int64() int64 {
	switch b.next(4) {
	case 0:
		return edges[b.next(len(edges))]
	case 1:
		var buf [8]byte
		for i := range buf {
			buf[i] = byte(b.next(256))
		}
		return int64(binary.LittleEndian.Uint64(buf[:]))
	}
	return int64(b.next(33) - 16)
}

// edgeQ draws a rational: mostly an int64 from int64 (math.MinInt64 is
// big-form), sometimes ±2⁶³ or a fraction, so that both forms occur.
func (b *icBytes) edgeQ() rational.Q {
	n := rational.QInt(b.int64())
	switch b.next(8) {
	case 0:
		return rational.QInt(math.MaxInt64).Add(rational.QInt(1)).Mul(rational.QInt(int64(1 - 2*b.next(2))))
	case 1:
		return n.Div(rational.QInt(int64(2 + b.next(5))))
	}
	return n
}

// edgeItv draws a non-empty interval over edgeQ bounds, either finite
// bound possibly infinite.
func (b *icBytes) edgeItv() interval.Itv {
	lo, hi := b.edgeQ(), b.edgeQ()
	if b.next(3) == 0 {
		hi = lo.Add(rational.QInt(int64(b.next(20))))
	}
	if lo.Cmp(hi) > 0 {
		lo, hi = hi, lo
	}
	switch b.next(6) {
	case 0:
		return interval.Top()
	case 1:
		return interval.AtLeast(lo)
	case 2:
		return interval.AtMost(hi)
	}
	return interval.Range(lo, hi)
}

// edgeCong draws ⊥, ⊤, the integers, a singleton, or r + mℤ with any
// residue (negative ones included; Modulo normalizes them).
func (b *icBytes) edgeCong() congruence.Cong {
	switch b.next(8) {
	case 0:
		return congruence.Bottom()
	case 1:
		return congruence.Top()
	case 2:
		return congruence.Integers()
	case 3:
		return congruence.Const(b.edgeQ())
	}
	m := b.edgeQ()
	if m.Sign() == 0 {
		m = rational.QInt(1 << 62)
	}
	return congruence.Modulo(m, b.edgeQ())
}

// edgeIC draws a value in either form: an unreduced pair, or its
// reduction.
func (b *icBytes) edgeIC() IC {
	p := pair{I: b.edgeItv(), C: b.edgeCong()}
	if b.next(3) == 0 {
		return p.ic()
	}
	r := p.reduce()
	return r.ic()
}

// sameIC reports whether x and y have the same encoding: equal fields when
// inline, equal pairs when general.
func sameIC(x, y IC) bool {
	if x.g == nil || y.g == nil {
		return x == y
	}
	return x.g.I.Eq(y.g.I) && x.g.C.Eq(y.g.C)
}

// FuzzICInline checks every IC method against the general form's code
// (pair.go) that defines it, on operands in both forms drawn around the
// int64 edges: bounds at ±2⁶³ and math.MinInt64, moduli near 2⁶², negative
// residues, ⊥ and ⊤ congruences, and unreduced pairs.
func FuzzICInline(f *testing.F) {
	rng := rand.New(rand.NewSource(30))
	for range 400 {
		seed := make([]byte, 64)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := icBytes(data)
		a, b := in.edgeIC(), in.edgeIC()
		c, off := in.edgeQ(), in.edgeQ()
		checkInline(t, a, b, c, off, 1+in.next(3))
	})
}

// TestICInlineEdges runs FuzzICInline's check on every pair of a fixed
// set of values whose int64 paths overflow, or come within one step of
// it, so that each overflow exit runs on every test run.
func TestICInlineEdges(t *testing.T) {
	big := rational.QInt(math.MaxInt64)
	near := rational.QInt(1 << 62)
	mod := func(m, r rational.Q) congruence.Cong { return congruence.Modulo(m, r) }
	values := []IC{
		Bottom(), Top(), Integers(), ConstInt(math.MaxInt64), ConstInt(-math.MaxInt64), ConstInt(-3),
		newIC(interval.AtLeast(big.Sub(rational.QInt(1))), mod(rational.QInt(4), rational.QInt(0))),
		newIC(interval.AtMost(big.Neg().Add(rational.QInt(1))), mod(rational.QInt(4), rational.QInt(3))),
		newIC(interval.Range(rational.QInt(-5), big), mod(near, rational.QInt(-1))),
		newIC(interval.Top(), mod(near.Add(rational.QInt(1)), rational.QInt(5))),
		newIC(interval.AtLeast(rational.QInt(-7)), mod(rational.QInt(3<<61), rational.QInt(2))),
		newIC(interval.Range(rational.QInt(1), rational.QInt(9)), congruence.ConstInt(4)),
		FromInterval(interval.Range(rational.QFrac(1, 2), big)),
	}
	consts := []rational.Q{
		rational.Q{}, rational.QInt(1), rational.QInt(-1), rational.QInt(3),
		big, big.Neg(), rational.QFrac(-7, 2),
	}
	for _, a := range values {
		for _, b := range values {
			for _, c := range consts {
				checkInline(t, a, b, c, c.Neg(), 1)
			}
		}
	}
}

// checkInline checks that each IC method, on a and b with the constants
// c and off, returns what the general form's code returns: the same
// encoding, once that result is put in canonical form, and the same
// printed value.
func checkInline(t *testing.T, a, b IC, c, off rational.Q, words int) {
	t.Helper()
	ap, bp := a.pair(), b.pair()
	then := func(p pair) *pair { return &p } // chains the oracle's steps
	check := func(op string, got IC, want pair) {
		t.Helper()
		w := want.ic()
		if !sameIC(got, w) || got.String() != w.String() {
			t.Fatalf("%s on %s (inline %v), %s (inline %v), c=%s, off=%s: got %s (inline %v), want %s (inline %v)",
				op, a, a.Inline(), b, b.Inline(), c, off, got, got.Inline(), w, w.Inline())
		}
	}
	checkBool := func(op string, got, want bool) {
		t.Helper()
		if got != want {
			t.Fatalf("%s on %s, %s, c=%s: got %v, want %v", op, a, b, c, got, want)
		}
	}

	// The encoding round-trips through the accessors.
	check("pair", newIC(a.I(), a.C()), ap)
	check("Reduce", a.Reduce(), ap.reduce())
	check("Meet", a.Meet(b), ap.meet(&bp))
	check("Join", a.Join(b), ap.join(&bp))
	check("Widen", a.Widen(b), ap.widen(&bp))
	check("Add", a.Add(b), ap.add(&bp))
	check("Sub", a.Sub(b), ap.sub(&bp))
	check("Mul", a.Mul(b), ap.mul(&bp))
	check("Square", a.Square(), ap.square())
	check("Neg", a.Neg(), ap.neg())
	check("AddConst", a.AddConst(c), ap.addConst(c))
	check("MulConst", a.MulConst(c), ap.mulConst(c))
	check("MeetInt", a.MeetInt(), ap.meetInt())
	check("LimitWords", a.LimitWords(words), ap.limitWords(words))
	check("FromInterval", FromInterval(ap.I), then(pair{I: ap.I, C: congruence.Top()}).reduce())
	check("Const", Const(c), pair{I: interval.Const(c), C: congruence.Const(c)})
	if c.Sign() != 0 {
		check("IntPreimage", a.IntPreimage(c, off), then(then(ap.addConst(off.Neg())).mulConst(c.Inv())).meetInt())
		l := group.MustAffine(c, off)
		check("ApplyAffine", a.ApplyAffine(l), then(ap.mulConst(l.A)).addConst(l.B))
		check("UnapplyAffine", a.UnapplyAffine(l), then(ap.addConst(l.B.Neg())).mulConst(l.A.Inv()))
	}

	checkBool("Leq", a.Leq(b), ap.leq(&bp))
	checkBool("Eq", a.Eq(b), ap.eq(&bp))
	checkBool("IsBottom", a.IsBottom(), ap.isBottom())
	checkBool("IsTop", a.IsTop(), ap.isTop())
	checkBool("Contains", a.Contains(c), ap.contains(c))
	checkBool("Words", a.Words() == ap.I.Words(), true)
	got, gotOK := a.IsConst()
	want, wantOK := ap.isConst()
	checkBool("IsConst", gotOK == wantOK && got.Eq(want), true)
	for _, v := range []IC{b, a.Meet(b), a.Join(b)} {
		if vc, ok := v.IsConst(); ok {
			checkBool("Contains", a.Contains(vc), ap.contains(vc))
		}
	}
}
