package rational

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstructorsAndArith(t *testing.T) {
	if got := Add(New(1, 2), New(1, 3)); !Eq(got, New(5, 6)) {
		t.Errorf("1/2 + 1/3 = %s, want 5/6", got)
	}
	if got := Sub(Int(3), New(1, 2)); !Eq(got, New(5, 2)) {
		t.Errorf("3 - 1/2 = %s, want 5/2", got)
	}
	if got := Mul(New(2, 3), New(3, 4)); !Eq(got, New(1, 2)) {
		t.Errorf("2/3 * 3/4 = %s, want 1/2", got)
	}
	if got := Div(Int(7), Int(2)); !Eq(got, New(7, 2)) {
		t.Errorf("7 / 2 = %s, want 7/2", got)
	}
	if got := Neg(New(-3, 5)); !Eq(got, New(3, 5)) {
		t.Errorf("-(-3/5) = %s, want 3/5", got)
	}
	if got := Inv(New(4, 9)); !Eq(got, New(9, 4)) {
		t.Errorf("inv(4/9) = %s, want 9/4", got)
	}
}

func TestArithDoesNotMutate(t *testing.T) {
	a, b := New(1, 2), New(1, 3)
	_ = Add(a, b)
	_ = Sub(a, b)
	_ = Mul(a, b)
	_ = Div(a, b)
	_ = Neg(a)
	_ = Inv(a)
	if !Eq(a, New(1, 2)) || !Eq(b, New(1, 3)) {
		t.Fatalf("arguments mutated: a=%s b=%s", a, b)
	}
}

func TestPredicates(t *testing.T) {
	if !IsZero(Zero) || IsZero(One) {
		t.Error("IsZero wrong")
	}
	if !IsOne(One) || IsOne(Two) {
		t.Error("IsOne wrong")
	}
	if !IsInt(Int(42)) || IsInt(Half) {
		t.Error("IsInt wrong")
	}
	if !Less(Zero, One) || Less(One, Zero) || Less(One, One) {
		t.Error("Less wrong")
	}
}

func TestMinMax(t *testing.T) {
	if got := Min(Int(3), Int(5)); !Eq(got, Int(3)) {
		t.Errorf("Min = %s", got)
	}
	if got := Max(Int(3), Int(5)); !Eq(got, Int(5)) {
		t.Errorf("Max = %s", got)
	}
	// Ties return first argument (identity matters for aliasing callers).
	a := Int(4)
	if Min(a, Int(4)) != a || Max(a, Int(4)) != a {
		t.Error("tie should return first argument")
	}
}

func TestFloorCeil(t *testing.T) {
	cases := []struct {
		in          string
		floor, ceil string
	}{
		{"5", "5", "5"},
		{"-5", "-5", "-5"},
		{"7/2", "3", "4"},
		{"-7/2", "-4", "-3"},
		{"1/3", "0", "1"},
		{"-1/3", "-1", "0"},
		{"0", "0", "0"},
	}
	for _, c := range cases {
		r := MustParse(c.in)
		if got := Floor(r); got.RatString() != c.floor {
			t.Errorf("Floor(%s) = %s, want %s", c.in, got, c.floor)
		}
		if got := Ceil(r); got.RatString() != c.ceil {
			t.Errorf("Ceil(%s) = %s, want %s", c.in, got, c.ceil)
		}
	}
}

func TestFloorCeilProperties(t *testing.T) {
	f := func(num int64, den int64) bool {
		if den == 0 {
			return true
		}
		r := New(num, den)
		fl, ce := Floor(r), Ceil(r)
		if !fl.IsInt() || !ce.IsInt() {
			return false
		}
		// floor <= r <= ceil and ceil - floor <= 1
		if fl.Cmp(r) > 0 || ce.Cmp(r) < 0 {
			return false
		}
		return Sub(ce, fl).Cmp(One) <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyCanonical(t *testing.T) {
	if Key(New(2, 4)) != Key(New(1, 2)) {
		t.Error("Key must be canonical under gcd normalization")
	}
	if Key(New(-1, 2)) != Key(New(1, -2)) {
		t.Error("Key must be canonical under sign normalization")
	}
	if Key(Int(3)) == Key(Int(-3)) {
		t.Error("Key must distinguish sign")
	}
}

func TestWords(t *testing.T) {
	if w := Words(Int(1)); w != 2 {
		t.Errorf("Words(1) = %d, want 2 (one limb each)", w)
	}
	huge := new(big.Rat).SetFrac(
		new(big.Int).Lsh(big.NewInt(1), 1024),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 1024), big.NewInt(1)),
	)
	if w := Words(huge); w < 30 {
		t.Errorf("Words(huge) = %d, want >= 30", w)
	}
}

func TestRoundDownUp(t *testing.T) {
	// Small rationals are returned unchanged (same pointer is fine).
	small := New(3, 7)
	if RoundDown(small, 20) != small || RoundUp(small, 20) != small {
		t.Error("small rationals must pass through unchanged")
	}

	// A huge rational gets approximated within budget, in the right direction.
	num := new(big.Int).Lsh(big.NewInt(1), 4000)
	num.Add(num, big.NewInt(7))
	den := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 4000), big.NewInt(11))
	huge := new(big.Rat).SetFrac(num, den)

	lo := RoundDown(huge, 20)
	hi := RoundUp(huge, 20)
	if lo.Cmp(huge) > 0 {
		t.Errorf("RoundDown must not exceed input: %s > %s", lo, huge)
	}
	if hi.Cmp(huge) < 0 {
		t.Errorf("RoundUp must not undershoot input: %s < %s", hi, huge)
	}
	if Words(lo) > 40 || Words(hi) > 40 {
		// The budget is approximate (numerator may still need carry room)
		// but must be drastically below the original ~126 words.
		t.Errorf("approximation too large: lo=%d hi=%d words", Words(lo), Words(hi))
	}
	if Words(huge) < 100 {
		t.Fatalf("test setup wrong, huge only %d words", Words(huge))
	}
}

func TestRoundDirectionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		num := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 2000))
		den := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 2000))
		den.Add(den, big.NewInt(1))
		r := new(big.Rat).SetFrac(num, den)
		if i%2 == 0 {
			r.Neg(r)
		}
		if RoundDown(r, 8).Cmp(r) > 0 {
			t.Fatalf("RoundDown(%v) went up", r)
		}
		if RoundUp(r, 8).Cmp(r) < 0 {
			t.Fatalf("RoundUp(%v) went down", r)
		}
	}
}

func TestParse(t *testing.T) {
	r, err := Parse("-7/2")
	if err != nil || !Eq(r, New(-7, 2)) {
		t.Errorf("Parse(-7/2) = %v, %v", r, err)
	}
	if _, err := Parse("zebra"); err == nil {
		t.Error("Parse should fail on junk")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on junk")
		}
	}()
	MustParse("zebra")
}

func TestSum(t *testing.T) {
	if got := Sum(); !IsZero(got) {
		t.Errorf("empty Sum = %s", got)
	}
	if got := Sum(Int(1), New(1, 2), New(1, 2)); !Eq(got, Int(2)) {
		t.Errorf("Sum = %s, want 2", got)
	}
}

func TestFormat(t *testing.T) {
	if Format(nil) != "<nil>" {
		t.Error("Format(nil)")
	}
	if Format(New(3, 2)) != "3/2" || Format(Int(4)) != "4" {
		t.Error("Format wrong")
	}
}

// TestRoundLargeMagnitudes covers bounds whose integer part is large: a
// fraction with a 31-word numerator must come back within the budget,
// and a value whose integer part alone exceeds it has no in-budget bound.
func TestRoundLargeMagnitudes(t *testing.T) {
	num := new(big.Int).Lsh(big.NewInt(1), 31*64-1)
	num.Add(num, big.NewInt(12345))
	den := new(big.Int).Lsh(big.NewInt(3), 12*64)
	den.Add(den, big.NewInt(1))
	frac := new(big.Rat).SetFrac(num, den) // integer part ≈ 19 words
	if w := Words(frac); w < 31 {
		t.Fatalf("setup: %d words", w)
	}
	for _, maxWords := range []int{20, 25, 40} {
		lo, hi := RoundDown(frac, maxWords), RoundUp(frac, maxWords)
		if lo == nil || hi == nil {
			t.Fatalf("maxWords %d: integer part fits, yet no bound", maxWords)
		}
		if lo.Cmp(frac) > 0 || hi.Cmp(frac) < 0 {
			t.Fatalf("maxWords %d: rounding went the wrong way", maxWords)
		}
		if Words(lo) > maxWords || Words(hi) > maxWords {
			t.Errorf("maxWords %d: lo %d words, hi %d words", maxWords, Words(lo), Words(hi))
		}
	}
	bigInt := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(-1), 32*64-1)) // 32 words
	bigFrac := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 40*64), big.NewInt(3))
	for _, r := range []*big.Rat{bigInt, bigFrac} {
		if lo, hi := RoundDown(r, 20), RoundUp(r, 20); lo != nil || hi != nil {
			t.Errorf("integer part of %d words must not fit 20: got %v, %v", Words(r), lo, hi)
		}
	}
}
