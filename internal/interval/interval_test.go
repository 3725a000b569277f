package interval

import (
	"math/rand"
	"testing"

	"luf/internal/rational"
)

func itv(lo, hi int64) Itv { return RangeInt(lo, hi) }

func TestConstructorsAndPredicates(t *testing.T) {
	if !Bottom().IsBottom() || Top().IsBottom() {
		t.Error("bottom/top wrong")
	}
	if !Top().IsTop() || itv(0, 1).IsTop() {
		t.Error("IsTop wrong")
	}
	var zero Itv
	if !zero.IsBottom() {
		t.Error("zero value must be bottom")
	}
	if v, ok := ConstInt(5).IsConst(); !ok || !v.Eq(rational.QInt(5)) {
		t.Error("IsConst on singleton")
	}
	if _, ok := itv(1, 2).IsConst(); ok {
		t.Error("IsConst on range")
	}
	if !Range(rational.QInt(3), rational.QInt(1)).IsBottom() {
		t.Error("inverted range must be bottom")
	}
	if !itv(1, 5).Contains(rational.QInt(3)) || itv(1, 5).Contains(rational.QInt(6)) {
		t.Error("Contains")
	}
	if !AtLeast(rational.QInt(0)).Contains(rational.QInt(1e9)) {
		t.Error("AtLeast")
	}
	if !AtMost(rational.QInt(0)).Contains(rational.QInt(-7)) {
		t.Error("AtMost")
	}
	if Bottom().Contains(rational.QInt(0)) {
		t.Error("bottom contains nothing")
	}
}

func TestLatticeOps(t *testing.T) {
	a, b := itv(0, 10), itv(5, 20)
	if got := a.Meet(b); !got.Eq(itv(5, 10)) {
		t.Errorf("Meet = %s", got)
	}
	if got := a.Join(b); !got.Eq(itv(0, 20)) {
		t.Errorf("Join = %s", got)
	}
	if got := itv(0, 1).Meet(itv(5, 6)); !got.IsBottom() {
		t.Errorf("disjoint Meet = %s", got)
	}
	if !itv(2, 3).Leq(itv(0, 10)) || itv(0, 10).Leq(itv(2, 3)) {
		t.Error("Leq wrong")
	}
	if !Bottom().Leq(itv(0, 0)) || !itv(0, 0).Leq(Top()) {
		t.Error("Leq extremes")
	}
	if got := AtLeast(rational.QInt(3)).Meet(AtMost(rational.QInt(7))); !got.Eq(itv(3, 7)) {
		t.Errorf("infinite Meet = %s", got)
	}
	if got := Bottom().Join(itv(1, 2)); !got.Eq(itv(1, 2)) {
		t.Errorf("bottom Join = %s", got)
	}
}

func TestWiden(t *testing.T) {
	if got := itv(0, 5).Widen(itv(0, 7)); !(got.LoInf == false && got.HiInf == true && got.Lo.Eq(rational.QInt(0))) {
		t.Errorf("Widen up = %s", got)
	}
	if got := itv(0, 5).Widen(itv(-1, 5)); !(got.LoInf && !got.HiInf) {
		t.Errorf("Widen down = %s", got)
	}
	if got := itv(0, 5).Widen(itv(1, 4)); !got.Eq(itv(0, 5)) {
		t.Errorf("stable Widen = %s", got)
	}
	if got := Bottom().Widen(itv(1, 2)); !got.Eq(itv(1, 2)) {
		t.Errorf("bottom Widen = %s", got)
	}
	// Widening must be an upper bound of its first argument.
	if !itv(0, 5).Leq(itv(0, 5).Widen(itv(2, 9))) {
		t.Error("widen not increasing")
	}
}

func TestArithmetic(t *testing.T) {
	if got := itv(1, 2).Add(itv(10, 20)); !got.Eq(itv(11, 22)) {
		t.Errorf("Add = %s", got)
	}
	if got := itv(1, 2).Sub(itv(10, 20)); !got.Eq(itv(-19, -8)) {
		t.Errorf("Sub = %s", got)
	}
	if got := itv(1, 2).Neg(); !got.Eq(itv(-2, -1)) {
		t.Errorf("Neg = %s", got)
	}
	if got := itv(1, 2).AddConst(rational.QInt(5)); !got.Eq(itv(6, 7)) {
		t.Errorf("AddConst = %s", got)
	}
	if got := itv(1, 2).MulConst(rational.QInt(-3)); !got.Eq(itv(-6, -3)) {
		t.Errorf("MulConst = %s", got)
	}
	if got := itv(-5, 5).MulConst(rational.QInt(0)); !got.Eq(itv(0, 0)) {
		t.Errorf("MulConst 0 = %s", got)
	}
	if got := AtLeast(rational.QInt(1)).Add(itv(1, 1)); !(got.HiInf && got.Lo.Eq(rational.QInt(2))) {
		t.Errorf("Add inf = %s", got)
	}
	if !Bottom().Add(itv(1, 2)).IsBottom() {
		t.Error("bottom propagation in Add")
	}
}

func TestMul(t *testing.T) {
	cases := []struct{ a, b, want Itv }{
		{itv(2, 3), itv(4, 5), itv(8, 15)},
		{itv(-2, 3), itv(4, 5), itv(-10, 15)},
		{itv(-2, -1), itv(-3, -2), itv(2, 6)},
		{itv(-2, 3), itv(-5, 4), itv(-15, 12)},
	}
	for _, c := range cases {
		if got := c.a.Mul(c.b); !got.Eq(c.want) {
			t.Errorf("%s * %s = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	// Infinities.
	got := AtLeast(rational.QInt(2)).Mul(itv(3, 4))
	if !(got.HiInf && !got.LoInf && got.Lo.Eq(rational.QInt(6))) {
		t.Errorf("[2,inf)*[3,4] = %s", got)
	}
	got = Top().Mul(itv(0, 0))
	if !got.Eq(itv(0, 0)) {
		t.Errorf("T*[0,0] = %s", got)
	}
	got = AtLeast(rational.QInt(-1)).Mul(itv(-2, 3))
	if !(got.LoInf && got.HiInf) {
		t.Errorf("[-1,inf)*[-2,3] = %s", got)
	}
}

func TestMulSoundnessFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		alo := int64(rng.Intn(21) - 10)
		a := itv(alo, alo+int64(rng.Intn(8)))
		blo := int64(rng.Intn(21) - 10)
		b := itv(blo, blo+int64(rng.Intn(8)))
		prod := a.Mul(b)
		// Sample concrete points.
		for j := 0; j < 10; j++ {
			va := a.Lo.Add(rational.QInt(int64(rng.Intn(9))))
			if !a.Contains(va) {
				continue
			}
			vb := b.Lo.Add(rational.QInt(int64(rng.Intn(9))))
			if !b.Contains(vb) {
				continue
			}
			if !prod.Contains(va.Mul(vb)) {
				t.Fatalf("%s * %s = %s misses %s*%s", a, b, prod, va, vb)
			}
		}
	}
}

func TestSquare(t *testing.T) {
	if got := itv(-3, 2).Square(); !got.Eq(itv(0, 9)) {
		t.Errorf("[-3,2]^2 = %s", got)
	}
	if got := itv(2, 3).Square(); !got.Eq(itv(4, 9)) {
		t.Errorf("[2,3]^2 = %s", got)
	}
	if got := itv(-3, -2).Square(); !got.Eq(itv(4, 9)) {
		t.Errorf("[-3,-2]^2 = %s", got)
	}
	if got := Top().Square(); !(got.HiInf && !got.LoInf && got.Lo.Sign() == 0) {
		t.Errorf("T^2 = %s", got)
	}
}

func TestSqrtRange(t *testing.T) {
	got := itv(0, 225).SqrtRange()
	if !got.Contains(rational.QInt(15)) || !got.Contains(rational.QInt(-15)) {
		t.Errorf("sqrt[0,225] = %s must contain ±15", got)
	}
	if got.Contains(rational.QInt(17)) {
		t.Errorf("sqrt[0,225] = %s too wide", got)
	}
	if !itv(-10, -1).SqrtRange().IsBottom() {
		t.Error("sqrt of negative range must be bottom")
	}
	if !Top().SqrtRange().IsTop() {
		t.Error("sqrt of top must be top")
	}
	// Preimage soundness on non-squares.
	got = itv(0, 2).SqrtRange()
	for _, v := range []rational.Q{rational.QFrac(141, 100), rational.QFrac(-141, 100), rational.QInt(1)} {
		if !got.Contains(v) {
			t.Errorf("sqrt[0,2] = %s misses %s", got, v)
		}
	}
}

func TestTighten(t *testing.T) {
	a := Range(rational.QFrac(1, 2), rational.QFrac(7, 3))
	if got := a.Tighten(); !got.Eq(itv(1, 2)) {
		t.Errorf("Tighten = %s", got)
	}
	b := Range(rational.QFrac(1, 3), rational.QFrac(2, 3))
	if !b.Tighten().IsBottom() {
		t.Error("no integer in (1/3, 2/3)")
	}
	if got := AtLeast(rational.QFrac(5, 2)).Tighten(); got.Lo.Eq(rational.QInt(3)) != true {
		t.Errorf("Tighten inf = %s", got)
	}
}

// pow2 returns 2^k.
func pow2(k int) rational.Q {
	q := rational.QInt(1)
	for ; k >= 62; k -= 62 {
		q = q.Mul(rational.QInt(1 << 62))
	}
	return q.Mul(rational.QInt(1 << k))
}

func TestLimitWords(t *testing.T) {
	big1 := pow2(5000).Div(pow2(5000).Sub(rational.QInt(1)))
	a := Range(big1.Neg(), big1)
	out := a.LimitWords(8)
	if !a.Leq(out) {
		t.Error("LimitWords must over-approximate")
	}
	if out.Words() >= a.Words() {
		t.Errorf("LimitWords did not shrink: %d vs %d", out.Words(), a.Words())
	}
	small := itv(1, 2)
	if got := small.LimitWords(8); !got.Eq(small) {
		t.Error("small intervals unchanged")
	}
	if Bottom().Words() != 0 {
		t.Error("bottom Words")
	}
}

func TestString(t *testing.T) {
	if Bottom().String() != "⊥" {
		t.Error("bottom String")
	}
	if got := itv(1, 2).String(); got != "[1; 2]" {
		t.Errorf("String = %q", got)
	}
	if got := Top().String(); got != "[-inf; +inf]" {
		t.Errorf("String = %q", got)
	}
}

func TestLatticeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	gen := func() Itv {
		switch rng.Intn(6) {
		case 0:
			return Bottom()
		case 1:
			return Top()
		case 2:
			return AtLeast(rational.QInt(int64(rng.Intn(11) - 5)))
		case 3:
			return AtMost(rational.QInt(int64(rng.Intn(11) - 5)))
		default:
			lo := int64(rng.Intn(21) - 10)
			return itv(lo, lo+int64(rng.Intn(10)))
		}
	}
	for i := 0; i < 500; i++ {
		a, b, c := gen(), gen(), gen()
		if !a.Meet(b).Leq(a) || !a.Meet(b).Leq(b) {
			t.Fatalf("meet not a lower bound: %s %s", a, b)
		}
		if !a.Leq(a.Join(b)) || !b.Leq(a.Join(b)) {
			t.Fatalf("join not an upper bound: %s %s", a, b)
		}
		if !a.Meet(b).Eq(b.Meet(a)) || !a.Join(b).Eq(b.Join(a)) {
			t.Fatalf("commutativity: %s %s", a, b)
		}
		if !a.Meet(b.Meet(c)).Eq(a.Meet(b).Meet(c)) {
			t.Fatalf("meet associativity: %s %s %s", a, b, c)
		}
		if !a.Leq(a.Widen(b)) || !b.Leq(a.Widen(b)) {
			t.Fatalf("widen not an upper bound: %s %s -> %s", a, b, a.Widen(b))
		}
		if !a.Meet(a).Eq(a) || !a.Join(a).Eq(a) {
			t.Fatalf("idempotence: %s", a)
		}
	}
}

func TestRecipDiv(t *testing.T) {
	if got, ok := itv(2, 4).Recip(); !ok || !got.Eq(Range(rational.QFrac(1, 4), rational.QFrac(1, 2))) {
		t.Errorf("Recip[2,4] = %s,%v", got, ok)
	}
	if got, ok := itv(-4, -2).Recip(); !ok || !got.Eq(Range(rational.QFrac(-1, 2), rational.QFrac(-1, 4))) {
		t.Errorf("Recip[-4,-2] = %s,%v", got, ok)
	}
	if _, ok := itv(-1, 1).Recip(); ok {
		t.Error("Recip through zero must fail")
	}
	if _, ok := Bottom().Recip(); ok {
		t.Error("Recip of bottom")
	}
	got, ok := AtLeast(rational.QInt(2)).Recip()
	if !ok || !got.Eq(Range(rational.QInt(0), rational.QFrac(1, 2))) {
		t.Errorf("Recip[2,inf) = %s", got)
	}
	// Division.
	if got, ok := itv(6, 12).Div(itv(2, 3)); !ok || !got.Eq(itv(2, 6)) {
		t.Errorf("Div = %s,%v", got, ok)
	}
	if _, ok := itv(1, 2).Div(itv(0, 1)); ok {
		t.Error("Div by zero-containing must fail")
	}
	// Soundness fuzz.
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		alo := int64(rng.Intn(21) - 10)
		a := itv(alo, alo+int64(rng.Intn(6)))
		blo := int64(rng.Intn(10) + 1)
		b := itv(blo, blo+int64(rng.Intn(5)))
		if rng.Intn(2) == 0 {
			b = b.Neg()
		}
		q, ok := a.Div(b)
		if !ok {
			t.Fatal("division should succeed")
		}
		for j := 0; j < 6; j++ {
			va := rational.QInt(alo + int64(rng.Intn(7)))
			vb := b.Lo.Add(rational.QInt(int64(rng.Intn(6))))
			if a.Contains(va) && b.Contains(vb) {
				if !q.Contains(va.Div(vb)) {
					t.Fatalf("%s / %s = %s misses %s/%s", a, b, q, va, vb)
				}
			}
		}
	}
}

// TestLimitWordsHugeIntegerPart checks that a bound whose integer part
// alone exceeds the word budget is relaxed to infinity, and that every
// other relaxed bound fits the budget.
func TestLimitWordsHugeIntegerPart(t *testing.T) {
	huge := pow2(32*64 - 1)
	a := Range(huge.Neg(), huge)
	out := a.LimitWords(20)
	if !out.LoInf || !out.HiInf {
		t.Errorf("LimitWords(20) of a 32-word range = %d words, want (-inf, +inf)", out.Words())
	}
	frac := pow2(31*64 - 1).Div(rational.QInt(3).Mul(pow2(12 * 64)))
	b := Range(frac.Neg(), frac)
	out = b.LimitWords(20)
	if out.LoInf || out.HiInf || !b.Leq(out) {
		t.Fatalf("LimitWords(20) = %s, want finite and containing the input", out)
	}
	if out.Lo.Words() > 20 || out.Hi.Words() > 20 {
		t.Errorf("relaxed bounds take %d and %d words, want <= 20", out.Lo.Words(), out.Hi.Words())
	}
}
