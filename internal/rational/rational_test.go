package rational

import (
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// mustParse is ParseQ for literals the test knows to be well formed.
func mustParse(t testing.TB, s string) Q {
	t.Helper()
	q, err := ParseQ(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestConstructorsAndArith(t *testing.T) {
	if got := QFrac(1, 2).Add(QFrac(1, 3)); !got.Eq(QFrac(5, 6)) {
		t.Errorf("1/2 + 1/3 = %s, want 5/6", got)
	}
	if got := QInt(3).Sub(QFrac(1, 2)); !got.Eq(QFrac(5, 2)) {
		t.Errorf("3 - 1/2 = %s, want 5/2", got)
	}
	if got := QFrac(2, 3).Mul(QFrac(3, 4)); !got.Eq(QFrac(1, 2)) {
		t.Errorf("2/3 * 3/4 = %s, want 1/2", got)
	}
	if got := QInt(7).Div(QInt(2)); !got.Eq(QFrac(7, 2)) {
		t.Errorf("7 / 2 = %s, want 7/2", got)
	}
	if got := QFrac(-3, 5).Neg(); !got.Eq(QFrac(3, 5)) {
		t.Errorf("-(-3/5) = %s, want 3/5", got)
	}
	if got := QFrac(4, 9).Inv(); !got.Eq(QFrac(9, 4)) {
		t.Errorf("inv(4/9) = %s, want 9/4", got)
	}
}

// TestArithDoesNotMutate checks that the big form's shared *big.Rat is
// never written through: copies of a big value stay equal to it after
// every operation on them.
func TestArithDoesNotMutate(t *testing.T) {
	a := mustParse(t, "1180591620717411303424/3") // 2⁷⁰/3: big form
	b := QFrac(1, 3)
	keep := a.Key()
	_ = []Q{a.Add(b), a.Sub(b), a.Mul(b), a.Div(b), a.Neg(), a.Inv(), a.Floor(), a.Ceil(), GCD(a, b)}
	if a.big == nil || a.Key() != keep || !b.Eq(QFrac(1, 3)) {
		t.Fatalf("arguments mutated: a=%s b=%s", a, b)
	}
}

func TestPredicates(t *testing.T) {
	zero, one := Q{}, QInt(1)
	if !zero.IsZero() || one.IsZero() {
		t.Error("IsZero wrong")
	}
	if !QInt(42).IsInt() || QFrac(1, 2).IsInt() {
		t.Error("IsInt wrong")
	}
	if !zero.Less(one) || one.Less(zero) || one.Less(one) {
		t.Error("Less wrong")
	}
}

func TestMinMax(t *testing.T) {
	if got := QInt(3).Min(QInt(5)); !got.Eq(QInt(3)) {
		t.Errorf("Min = %s", got)
	}
	if got := QInt(3).Max(QInt(5)); !got.Eq(QInt(5)) {
		t.Errorf("Max = %s", got)
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
		{"-36893488147419103233/2", "-18446744073709551617", "-18446744073709551616"},
	}
	for _, c := range cases {
		r := mustParse(t, c.in)
		if got := r.Floor(); got.Key() != c.floor {
			t.Errorf("Floor(%s) = %s, want %s", c.in, got, c.floor)
		}
		if got := r.Ceil(); got.Key() != c.ceil {
			t.Errorf("Ceil(%s) = %s, want %s", c.in, got, c.ceil)
		}
	}
}

func TestFloorCeilProperties(t *testing.T) {
	f := func(num int64, den int64) bool {
		if den == 0 {
			return true
		}
		r := QFrac(num, den)
		fl, ce := r.Floor(), r.Ceil()
		if !fl.IsInt() || !ce.IsInt() {
			return false
		}
		// floor <= r <= ceil and ceil - floor <= 1
		if fl.Cmp(r) > 0 || ce.Cmp(r) < 0 {
			return false
		}
		return ce.Sub(fl).Cmp(QInt(1)) <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyCanonical(t *testing.T) {
	if QFrac(2, 4).Key() != QFrac(1, 2).Key() {
		t.Error("Key must be canonical under gcd normalization")
	}
	if QFrac(-1, 2).Key() != QFrac(1, -2).Key() {
		t.Error("Key must be canonical under sign normalization")
	}
	if QInt(3).Key() == QInt(-3).Key() {
		t.Error("Key must distinguish sign")
	}
}

func TestWords(t *testing.T) {
	if w := QInt(1).Words(); w != 2 {
		t.Errorf("Words(1) = %d, want 2 (one limb each)", w)
	}
	huge := fromRat(new(big.Rat).SetFrac(
		new(big.Int).Lsh(big.NewInt(1), 1024),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 1024), big.NewInt(1)),
	))
	if w := huge.Words(); w < 30 {
		t.Errorf("Words(huge) = %d, want >= 30", w)
	}
}

func TestRoundDownUp(t *testing.T) {
	// Small rationals are returned unchanged.
	small := QFrac(3, 7)
	if lo, ok := small.RoundDown(20); !ok || !lo.Eq(small) {
		t.Error("RoundDown must pass a small rational through unchanged")
	}
	if hi, ok := small.RoundUp(20); !ok || !hi.Eq(small) {
		t.Error("RoundUp must pass a small rational through unchanged")
	}

	// A huge rational gets approximated within budget, in the right direction.
	num := new(big.Int).Lsh(big.NewInt(1), 4000)
	num.Add(num, big.NewInt(7))
	den := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 4000), big.NewInt(11))
	huge := fromRat(new(big.Rat).SetFrac(num, den))

	lo, _ := huge.RoundDown(20)
	hi, _ := huge.RoundUp(20)
	if lo.Cmp(huge) > 0 {
		t.Errorf("RoundDown must not exceed input: %s > %s", lo, huge)
	}
	if hi.Cmp(huge) < 0 {
		t.Errorf("RoundUp must not undershoot input: %s < %s", hi, huge)
	}
	if lo.Words() > 40 || hi.Words() > 40 {
		// The budget is approximate (numerator may still need carry room)
		// but must be drastically below the original ~126 words.
		t.Errorf("approximation too large: lo=%d hi=%d words", lo.Words(), hi.Words())
	}
	if huge.Words() < 100 {
		t.Fatalf("test setup wrong, huge only %d words", huge.Words())
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
		q := fromRat(r)
		if lo, _ := q.RoundDown(8); lo.Cmp(q) > 0 {
			t.Fatalf("RoundDown(%v) went up", r)
		}
		if hi, _ := q.RoundUp(8); hi.Cmp(q) < 0 {
			t.Fatalf("RoundUp(%v) went down", r)
		}
	}
}

// TestParse covers ParseQ's three accepted forms and what it refuses:
// other syntax, exponents, other bases, fractions with leading zeros (big
// reads them as octal) and digit runs past the cap, which it refuses
// without converting them. ParseKey reads the same forms with no cap.
func TestParse(t *testing.T) {
	for in, want := range map[string]string{
		"-7/2":                              "-7/2",
		"6/4":                               "3/2",
		"0/5":                               "0",
		"-0":                                "0",
		"007":                               "7",
		"0.5":                               "1/2",
		"-12.25":                            "-49/4",
		"9223372036854775807":               "9223372036854775807",
		"-9223372036854775808":              "-9223372036854775808",
		"36893488147419103232/3":            "36893488147419103232/3",
		strings.Repeat("9", maxParseDigits): strings.Repeat("9", maxParseDigits),
	} {
		got, err := ParseQ(in)
		if err != nil || got.Key() != want {
			t.Errorf("ParseQ(%q) = %v, %v; want %s", in, got, err, want)
		}
	}
	for _, in := range []string{
		"", "-", "zebra", "+3", "--1", "1/-3", "1/0", "1/00", "1.", ".5", "1.5/2",
		"1e3", "1e999999", "0x1p9999999", "0x10", "0b1", "1_000", "010/3", "3/010",
		" 1", "1 ",
	} {
		if q, err := ParseQ(in); err == nil {
			t.Errorf("ParseQ(%q) = %s, want an error", in, q)
		}
		if q, err := ParseKey(in); err == nil {
			t.Errorf("ParseKey(%q) = %s, want an error", in, q)
		}
	}
	for _, in := range []string{
		strings.Repeat("9", maxParseDigits+1),
		"-1/" + strings.Repeat("7", 2*maxParseDigits),
		strings.Repeat("3", 3*maxParseDigits) + "/2",
	} {
		if q, err := ParseQ(in); err == nil {
			t.Errorf("ParseQ(%.20q...) = %.20s..., want an error", in, q.Key())
		}
		if q, err := ParseKey(in); err != nil || q.Key() != in {
			t.Errorf("ParseKey(%.20q...) = %.20s..., %v; want it back unchanged", in, q.Key(), err)
		}
	}
}

func TestFormat(t *testing.T) {
	if QFrac(3, 2).String() != "3/2" || QInt(4).String() != "4" || QInt(-4).String() != "-4" {
		t.Error("String wrong")
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
	frac := fromRat(new(big.Rat).SetFrac(num, den)) // integer part ≈ 19 words
	if w := frac.Words(); w < 31 {
		t.Fatalf("setup: %d words", w)
	}
	for _, maxWords := range []int{20, 25, 40} {
		lo, okLo := frac.RoundDown(maxWords)
		hi, okHi := frac.RoundUp(maxWords)
		if !okLo || !okHi {
			t.Fatalf("maxWords %d: integer part fits, yet no bound", maxWords)
		}
		if lo.Cmp(frac) > 0 || hi.Cmp(frac) < 0 {
			t.Fatalf("maxWords %d: rounding went the wrong way", maxWords)
		}
		if lo.Words() > maxWords || hi.Words() > maxWords {
			t.Errorf("maxWords %d: lo %d words, hi %d words", maxWords, lo.Words(), hi.Words())
		}
	}
	bigInt := fromRat(new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(-1), 32*64-1))) // 32 words
	bigFrac := fromRat(new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 40*64), big.NewInt(3)))
	for _, r := range []Q{bigInt, bigFrac} {
		_, okLo := r.RoundDown(20)
		_, okHi := r.RoundUp(20)
		if okLo || okHi {
			t.Errorf("integer part of %d words must not fit 20", r.Words())
		}
	}
}

// TestSqrtUpper checks u ≥ √v on exact squares, fractions, and a value
// past float64's range (the integer binary search).
func TestSqrtUpper(t *testing.T) {
	for _, v := range []Q{QInt(0), QInt(1), QInt(2), QInt(49), QFrac(1, 3), QFrac(99, 7),
		fromRat(new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 1100)))} {
		u := SqrtUpper(v)
		if u.Sign() < 0 || u.Mul(u).Less(v) {
			t.Errorf("SqrtUpper(%s) = %s is not an upper bound", v, u)
		}
	}
}
