package congruence

import (
	"math/rand"
	"testing"

	"luf/internal/rational"
)

func mod(m, r int64) Cong { return Modulo(rational.QInt(m), rational.QInt(r)) }

func TestBasics(t *testing.T) {
	var zero Cong
	if !zero.IsBottom() {
		t.Error("zero value must be bottom")
	}
	if !Top().IsTop() || Top().IsBottom() {
		t.Error("top wrong")
	}
	if v, ok := ConstInt(7).IsConst(); !ok || !v.Eq(rational.QInt(7)) {
		t.Error("IsConst")
	}
	if _, ok := mod(2, 1).IsConst(); ok {
		t.Error("IsConst on non-singleton")
	}
	if !Integers().Contains(rational.QInt(-5)) || Integers().Contains(rational.QFrac(1, 2)) {
		t.Error("Integers")
	}
	if !Integers().IsIntOnly() || mod(2, 1).IsIntOnly() != true {
		t.Error("IsIntOnly integers")
	}
	if Modulo(rational.QFrac(1, 2), rational.QInt(0)).IsIntOnly() {
		t.Error("IsIntOnly on half-integers")
	}
}

func TestNormalization(t *testing.T) {
	// 7 mod 3 canonicalizes to 1 mod 3; negative remainders normalize too.
	if !mod(3, 7).Eq(mod(3, 1)) {
		t.Error("7 mod 3 != 1 mod 3")
	}
	if !mod(3, -2).Eq(mod(3, 1)) {
		t.Error("-2 mod 3 != 1 mod 3")
	}
	if !Modulo(rational.QInt(-3), rational.QInt(1)).Eq(mod(3, 1)) {
		t.Error("negative modulus must be normalized")
	}
}

func TestContains(t *testing.T) {
	c := mod(3, 1)
	for _, v := range []int64{1, 4, 7, -2, -5} {
		if !c.Contains(rational.QInt(v)) {
			t.Errorf("1 mod 3 must contain %d", v)
		}
	}
	for _, v := range []int64{0, 2, 3, 5} {
		if c.Contains(rational.QInt(v)) {
			t.Errorf("1 mod 3 must not contain %d", v)
		}
	}
	if c.Contains(rational.QFrac(5, 2)) {
		t.Error("1 mod 3 must not contain 5/2")
	}
	half := Modulo(rational.QFrac(1, 2), rational.QInt(0))
	if !half.Contains(rational.QFrac(3, 2)) || half.Contains(rational.QFrac(1, 3)) {
		t.Error("0 mod 1/2")
	}
}

func TestLeq(t *testing.T) {
	if !mod(6, 1).Leq(mod(3, 1)) {
		t.Error("1 mod 6 ⊑ 1 mod 3")
	}
	if mod(3, 1).Leq(mod(6, 1)) {
		t.Error("1 mod 3 ⋢ 1 mod 6")
	}
	if !ConstInt(7).Leq(mod(3, 1)) {
		t.Error("{7} ⊑ 1 mod 3")
	}
	if ConstInt(8).Leq(mod(3, 1)) {
		t.Error("{8} ⋢ 1 mod 3")
	}
	if !Bottom().Leq(ConstInt(0)) || !mod(2, 0).Leq(Top()) {
		t.Error("extremes")
	}
	if Top().Leq(mod(1, 0)) {
		t.Error("⊤ ⋢ ℤ")
	}
}

func TestJoin(t *testing.T) {
	// {3} ⊔ {7} = 3 mod 4.
	if got := ConstInt(3).Join(ConstInt(7)); !got.Eq(mod(4, 3)) {
		t.Errorf("{3} ⊔ {7} = %s", got)
	}
	// 1 mod 6 ⊔ 4 mod 6 = 1 mod 3.
	if got := mod(6, 1).Join(mod(6, 4)); !got.Eq(mod(3, 1)) {
		t.Errorf("got %s", got)
	}
	if got := mod(4, 1).Join(Bottom()); !got.Eq(mod(4, 1)) {
		t.Errorf("join bottom = %s", got)
	}
	if !mod(4, 1).Join(Top()).IsTop() {
		t.Error("join top")
	}
	// Rational: {1/2} ⊔ {3/2} = 1/2 mod 1.
	got := Const(rational.QFrac(1, 2)).Join(Const(rational.QFrac(3, 2)))
	want := Modulo(rational.QInt(1), rational.QFrac(1, 2))
	if !got.Eq(want) {
		t.Errorf("got %s want %s", got, want)
	}
}

func TestMeet(t *testing.T) {
	// 1 mod 3 ⊓ 2 mod 5 = 7 mod 15 (CRT).
	if got := mod(3, 1).Meet(mod(5, 2)); !got.Eq(mod(15, 7)) {
		t.Errorf("CRT meet = %s", got)
	}
	// Incompatible: 0 mod 2 ⊓ 1 mod 2 = ⊥.
	if !mod(2, 0).Meet(mod(2, 1)).IsBottom() {
		t.Error("incompatible meet must be bottom")
	}
	// Singleton cases.
	if got := ConstInt(7).Meet(mod(3, 1)); !got.Eq(ConstInt(7)) {
		t.Errorf("singleton meet = %s", got)
	}
	if !ConstInt(8).Meet(mod(3, 1)).IsBottom() {
		t.Error("singleton mismatch")
	}
	if got := Top().Meet(mod(3, 1)); !got.Eq(mod(3, 1)) {
		t.Errorf("top meet = %s", got)
	}
	// Non-coprime compatible: 1 mod 4 ⊓ 3 mod 6 → x ≡ 9 mod 12.
	if got := mod(4, 1).Meet(mod(6, 3)); !got.Eq(mod(12, 9)) {
		t.Errorf("non-coprime meet = %s", got)
	}
	// Non-coprime incompatible: 1 mod 4 ⊓ 0 mod 6 (gcd 2, 1 ≢ 0 mod 2).
	if !mod(4, 1).Meet(mod(6, 0)).IsBottom() {
		t.Error("incompatible non-coprime meet")
	}
}

func TestMeetRational(t *testing.T) {
	// x ≡ 1/2 mod 1 and x ≡ 0 mod 3/2: x ∈ {3/2·k} ∩ {1/2 + j}.
	a := Modulo(rational.QInt(1), rational.QFrac(1, 2))
	b := Modulo(rational.QFrac(3, 2), rational.QInt(0))
	got := a.Meet(b)
	if got.IsBottom() {
		t.Fatal("meet should be non-empty (x = 3/2 + 3k works: 3/2 ≡ 1/2 mod 1 ✓)")
	}
	// Check a few members.
	count := 0
	for k := int64(-20); k <= 20; k++ {
		v := rational.QFrac(3, 2).Mul(rational.QInt(k)).Add(rational.QInt(0))
		inBoth := a.Contains(v) && b.Contains(v)
		if inBoth {
			count++
			if !got.Contains(v) {
				t.Errorf("meet misses %s", v)
			}
		}
	}
	if count == 0 {
		t.Fatal("test vacuous")
	}
}

func TestArith(t *testing.T) {
	if got := mod(3, 1).AddConst(rational.QInt(5)); !got.Eq(mod(3, 0)) {
		t.Errorf("AddConst = %s", got)
	}
	if got := mod(3, 1).MulConst(rational.QInt(2)); !got.Eq(mod(6, 2)) {
		t.Errorf("MulConst = %s", got)
	}
	if got := mod(3, 1).MulConst(rational.QInt(0)); !got.Eq(ConstInt(0)) {
		t.Errorf("MulConst 0 = %s", got)
	}
	if got := mod(3, 1).Neg(); !got.Eq(mod(3, 2)) {
		t.Errorf("Neg = %s", got)
	}
	if got := mod(4, 1).Add(mod(6, 3)); !got.Eq(mod(2, 0)) {
		t.Errorf("Add = %s", got)
	}
	if got := mod(4, 1).Sub(mod(4, 3)); !got.Eq(mod(4, 2)) {
		t.Errorf("Sub = %s", got)
	}
	if got := Top().MulConst(rational.QInt(0)); !got.Eq(ConstInt(0)) {
		t.Errorf("T*0 = %s", got)
	}
	if got := mod(6, 2).DivConst(rational.QInt(2)); !got.Eq(mod(3, 1)) {
		t.Errorf("DivConst = %s", got)
	}
}

func TestMulSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		a := mod(int64(rng.Intn(6)+1), int64(rng.Intn(6)))
		b := mod(int64(rng.Intn(6)+1), int64(rng.Intn(6)))
		prod := a.Mul(b)
		sum := a.Add(b)
		for j := 0; j < 10; j++ {
			va := a.r.Add(a.m.Mul(rational.QInt(int64(rng.Intn(9) - 4))))
			vb := b.r.Add(b.m.Mul(rational.QInt(int64(rng.Intn(9) - 4))))
			if !prod.Contains(va.Mul(vb)) {
				t.Fatalf("%s * %s = %s misses %s·%s", a, b, prod, va, vb)
			}
			if !sum.Contains(va.Add(vb)) {
				t.Fatalf("%s + %s = %s misses %s+%s", a, b, sum, va, vb)
			}
		}
	}
}

func TestJoinMeetProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	gen := func() Cong {
		switch rng.Intn(8) {
		case 0:
			return Bottom()
		case 1:
			return Top()
		case 2:
			return ConstInt(int64(rng.Intn(11) - 5))
		case 3:
			return Modulo(rational.QFrac(int64(rng.Intn(4)+1), int64(rng.Intn(3)+1)), rational.QFrac(int64(rng.Intn(7)), int64(rng.Intn(3)+1)))
		default:
			return mod(int64(rng.Intn(8)+1), int64(rng.Intn(8)))
		}
	}
	for i := 0; i < 400; i++ {
		a, b := gen(), gen()
		j, m := a.Join(b), a.Meet(b)
		if !a.Leq(j) || !b.Leq(j) {
			t.Fatalf("join not upper bound: %s ⊔ %s = %s", a, b, j)
		}
		if !m.Leq(a) || !m.Leq(b) {
			t.Fatalf("meet not lower bound: %s ⊓ %s = %s", a, b, m)
		}
		if !a.Join(b).Eq(b.Join(a)) || !a.Meet(b).Eq(b.Meet(a)) {
			t.Fatalf("commutativity: %s %s", a, b)
		}
		if !a.Leq(a.Widen(b)) || !b.Leq(a.Widen(b)) {
			t.Fatalf("widen not upper bound: %s %s", a, b)
		}
		// Meet must be exact on sampled concrete values.
		if am, ar, ok := a.Mod(); ok {
			for k := int64(-6); k <= 6; k++ {
				v := ar.Add(am.Mul(rational.QInt(k)))
				if b.Contains(v) != m.Contains(v) && b.Contains(v) {
					t.Fatalf("meet lost %s from %s ⊓ %s = %s", v, a, b, m)
				}
				if m.Contains(v) && !b.Contains(v) {
					t.Fatalf("meet invented %s in %s ⊓ %s = %s", v, a, b, m)
				}
			}
		}
	}
}

func TestWidenTerminates(t *testing.T) {
	// Repeated widening on a descending rational gcd chain must hit ⊤ or a
	// fixpoint quickly.
	cur := Const(rational.QInt(1))
	for i := 0; i < 100; i++ {
		next := Const(rational.QFrac(1, int64(i+2)))
		w := cur.Widen(cur.Join(next))
		if w.Eq(cur) {
			return
		}
		cur = w
		if cur.IsTop() {
			return
		}
	}
	t.Error("widening chain did not stabilize in 100 steps")
}

func TestGcdLcmQ(t *testing.T) {
	g := gcdQ(rational.QFrac(1, 2), rational.QFrac(1, 3))
	if !g.Eq(rational.QFrac(1, 6)) {
		t.Errorf("gcd(1/2,1/3) = %s", g)
	}
	l := lcmQ(rational.QFrac(1, 2), rational.QFrac(1, 3))
	if !l.Eq(rational.QInt(1)) {
		t.Errorf("lcm(1/2,1/3) = %s", l)
	}
	if !gcdQ(rational.QInt(0), rational.QInt(2)).Eq(rational.QInt(2)) {
		t.Error("gcd(0,x)")
	}
	g2 := gcdQ(rational.QInt(12), rational.QInt(18))
	if !g2.Eq(rational.QInt(6)) {
		t.Errorf("gcd(12,18) = %s", g2)
	}
}

func TestString(t *testing.T) {
	if Bottom().String() != "⊥" || Top().String() != "⊤" {
		t.Error("extremes String")
	}
	if got := ConstInt(3).String(); got != "{3}" {
		t.Errorf("String = %q", got)
	}
	if got := mod(3, 1).String(); got != "1 mod 3" {
		t.Errorf("String = %q", got)
	}
}

// TestFastPathsMatchLongPaths: Meet and Join return their argument on
// equal arguments, which must be what the long paths compute; Sub must
// equal Add(Neg); and normalize's modulus-1 exit must equal the general
// reduction. Elements include rational moduli and values past int64.
func TestFastPathsMatchLongPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	q := func() rational.Q {
		n := rational.QFrac(int64(rng.Intn(17)-8), int64(rng.Intn(4)+1))
		if rng.Intn(4) == 0 {
			return n.Add(rational.QInt(1 << 62)).Mul(rational.QInt(5)) // big form
		}
		return n
	}
	gen := func() Cong {
		switch rng.Intn(6) {
		case 0:
			return Bottom()
		case 1:
			return Top()
		case 2:
			return Integers()
		case 3:
			return Const(q())
		}
		m := q()
		if m.Sign() == 0 {
			m = rational.QInt(3)
		}
		return Modulo(m, q())
	}
	for i := 0; i < 2000; i++ {
		a, b := gen(), gen()
		if got, want := a.Meet(a), a.meet(a); !got.Eq(want) {
			t.Fatalf("%s ⊓ itself = %s, the long path gives %s", a, got, want)
		}
		if got, want := a.Join(a), a.join(a); !got.Eq(want) {
			t.Fatalf("%s ⊔ itself = %s, the long path gives %s", a, got, want)
		}
		if got, want := a.Sub(b), a.Add(b.Neg()); !got.Eq(want) {
			t.Fatalf("%s - %s = %s, Add(Neg) gives %s", a, b, got, want)
		}
		r := q()
		if got, want := normalize(r, one), r.Sub(r.Div(one).Floor().Mul(one)); !got.Eq(want) {
			t.Fatalf("normalize(%s, 1) = %s, want %s", r, got, want)
		}
	}
}
