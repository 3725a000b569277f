package rational

import (
	"math"
	"math/big"
	"testing"
)

// qEdge are operands at the edges of the small form: zero, units, the
// int64 extremes, and fractions whose denominators sit at the limit.
func qEdge() []*big.Rat {
	two63 := new(big.Int).Lsh(big.NewInt(1), 63)
	return []*big.Rat{
		big.NewRat(0, 1), big.NewRat(1, 1), big.NewRat(-1, 1),
		big.NewRat(1, 2), big.NewRat(-7, 3), big.NewRat(22, 7),
		big.NewRat(math.MaxInt64, 1), big.NewRat(-math.MaxInt64, 1),
		big.NewRat(math.MaxInt64-1, 1), big.NewRat(math.MinInt64, 1),
		big.NewRat(1, math.MaxInt64), big.NewRat(-1, math.MaxInt64),
		big.NewRat(math.MaxInt64, math.MaxInt64-1),
		big.NewRat(1<<62, 3), big.NewRat(-(1 << 62), 5),
		new(big.Rat).SetInt(two63),
		new(big.Rat).SetFrac(big.NewInt(1), two63),
		new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(3)),
	}
}

// fitsSmall reports whether r belongs in Q's small form.
func fitsSmall(r *big.Rat) bool {
	return r.Num().IsInt64() && r.Num().Int64() != math.MinInt64 && r.Denom().IsInt64()
}

// checkQ compares q with the reference r: same value, the canonical form
// for that value, and the same Key and Words.
func checkQ(t testing.TB, what string, q Q, r *big.Rat) {
	t.Helper()
	if q.rat().Cmp(r) != 0 {
		t.Fatalf("%s = %s, want %s", what, q, r.RatString())
	}
	if small := q.big == nil; small != fitsSmall(r) {
		t.Fatalf("%s = %s in the wrong form (small=%v)", what, q, small)
	}
	if q.Key() != r.RatString() || q.Words() != words(r) {
		t.Fatalf("%s: Key/Words %q/%d, want %q/%d", what, q.Key(), q.Words(), r.RatString(), words(r))
	}
	if q.Sign() != r.Sign() || q.IsInt() != r.IsInt() || q.IsZero() != (r.Sign() == 0) {
		t.Fatalf("%s: Sign/IsInt/IsZero disagree with %s", what, r.RatString())
	}
}

// checkQPair checks every Q operation on (a, b) against math/big.
func checkQPair(t testing.TB, a, b *big.Rat) {
	t.Helper()
	qa, qb := fromRat(a), fromRat(b)
	checkQ(t, "fromRat(a)", qa, a)
	checkQ(t, "a+b", qa.Add(qb), new(big.Rat).Add(a, b))
	checkQ(t, "a-b", qa.Sub(qb), new(big.Rat).Sub(a, b))
	checkQ(t, "a*b", qa.Mul(qb), new(big.Rat).Mul(a, b))
	checkQ(t, "-a", qa.Neg(), new(big.Rat).Neg(a))
	checkQ(t, "|a|", qa.Abs(), new(big.Rat).Abs(a))
	// For a positive denominator big.Int's Euclidean Div is the floor.
	floor := new(big.Rat).SetInt(new(big.Int).Div(a.Num(), a.Denom()))
	ceil := new(big.Rat).SetInt(new(big.Int).Neg(new(big.Int).Div(new(big.Int).Neg(a.Num()), a.Denom())))
	checkQ(t, "floor(a)", qa.Floor(), floor)
	checkQ(t, "ceil(a)", qa.Ceil(), ceil)
	if b.Sign() != 0 {
		checkQ(t, "a/b", qa.Div(qb), new(big.Rat).Quo(a, b))
		checkQ(t, "1/b", qb.Inv(), new(big.Rat).Inv(b))
	}
	if a.Sign() != 0 && b.Sign() != 0 {
		// gcd(p1/q1, p2/q2) = gcd(p1·q2, p2·q1) / (q1·q2).
		n1 := new(big.Int).Mul(a.Num(), b.Denom())
		n2 := new(big.Int).Mul(b.Num(), a.Denom())
		g := new(big.Int).GCD(nil, nil, n1.Abs(n1), n2.Abs(n2))
		checkQ(t, "gcd(a,b)", GCD(qa, qb), new(big.Rat).SetFrac(g, new(big.Int).Mul(a.Denom(), b.Denom())))
	}
	if got, want := qa.Cmp(qb), a.Cmp(b); got != want {
		t.Fatalf("Cmp(%s, %s) = %d, want %d", a.RatString(), b.RatString(), got, want)
	}
	if got, want := qa.Eq(qb), a.Cmp(b) == 0; got != want {
		t.Fatalf("Eq(%s, %s) = %v, want %v", a.RatString(), b.RatString(), got, want)
	}
}

func TestQMatchesBigRat(t *testing.T) {
	edge := qEdge()
	for _, a := range edge {
		for _, b := range edge {
			checkQPair(t, a, b)
		}
	}
}

func TestQConstructors(t *testing.T) {
	var zero Q
	checkQ(t, "Q{}", zero, new(big.Rat))
	checkQ(t, "QInt(-5)", QInt(-5), big.NewRat(-5, 1))
	checkQ(t, "QInt(min)", QInt(math.MinInt64), big.NewRat(math.MinInt64, 1))
	checkQ(t, "QFrac(6,-4)", QFrac(6, -4), big.NewRat(-3, 2))
	checkQ(t, "QFrac(0,-4)", QFrac(0, -4), new(big.Rat))
	checkQ(t, "QFrac(1,min)", QFrac(1, math.MinInt64), big.NewRat(1, math.MinInt64))
	checkQ(t, "QFrac(min,2)", QFrac(math.MinInt64, 2), big.NewRat(math.MinInt64, 2))
	if got := QFrac(7, 2).String(); got != "7/2" {
		t.Errorf("String = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("QFrac with a zero denominator must panic")
		}
	}()
	QFrac(1, 0)
}

// TestQSmallNoAlloc pins the point of the small form: arithmetic whose
// results fit int64 does not touch the heap, and neither does converting
// a small *big.Rat.
func TestQSmallNoAlloc(t *testing.T) {
	a, b := QFrac(7, 3), QInt(-12)
	r := big.NewRat(-9, 4)
	var sink Q
	n := testing.AllocsPerRun(100, func() {
		sink = a.Add(b).Mul(a).Sub(b).Div(a).Neg().Inv().Floor().Add(a.Ceil())
		if a.Cmp(b) < 0 || !sink.Eq(sink) || a.Words() != 2 {
			t.Fatal("unexpected")
		}
		sink = GCD(sink, a).Add(fromRat(r))
	})
	if n != 0 {
		t.Errorf("small-form arithmetic allocated %.0f times per run", n)
	}
}

// TestQBigEqNoAlloc: Eq on two big values compares their normalized
// numerators and denominators, so it allocates nothing, equal or not,
// integer or fraction.
func TestQBigEqNoAlloc(t *testing.T) {
	huge := new(big.Int).Lsh(big.NewInt(1), 100)
	frac := func(num, den *big.Int) Q { return fromRat(new(big.Rat).SetFrac(num, den)) }
	a := frac(huge, big.NewInt(3))
	b := frac(new(big.Int).Set(huge), big.NewInt(3)) // equal to a, not shared
	c := frac(huge, big.NewInt(7))
	d := frac(new(big.Int).Add(huge, big.NewInt(1)), big.NewInt(3))
	i := frac(huge, big.NewInt(1))
	j := frac(new(big.Int).Set(huge), big.NewInt(1))
	if a.big == nil || b.big == nil || i.big == nil || a.big == b.big || i.big == j.big {
		t.Fatal("want distinct big-form operands")
	}
	n := testing.AllocsPerRun(100, func() {
		if !a.Eq(b) || a.Eq(c) || a.Eq(d) || a.Eq(i) || i.Eq(a) || !i.Eq(j) {
			t.Fatal("Eq answered wrong")
		}
	})
	if n != 0 {
		t.Errorf("Eq on big values allocated %.0f times per run", n)
	}
}

// CheckQPair and FromRat are exported for the differential fuzz test,
// which lives in package rational_test so that it can drive TVPE labels
// too.
var (
	CheckQPair = checkQPair
	FromRat    = fromRat
)
