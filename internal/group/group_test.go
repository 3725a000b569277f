package group

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"luf/internal/fault"
	"luf/internal/rational"
)

func TestDeltaLaws(t *testing.T) {
	samples := []DeltaLabel{0, 1, -1, 5, -17, 1 << 30}
	if err := CheckLaws[DeltaLabel](Delta{}, samples); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaSemantics(t *testing.T) {
	// γ(k) = {(x,y) | y = x + k}; composition must mirror function composition.
	g := Delta{}
	x := int64(10)
	k1, k2 := int64(3), int64(-7)
	if got := x + g.Compose(k1, k2); got != (x+k1)+k2 {
		t.Errorf("compose semantics: %d", got)
	}
	if g.Format(5) != "+5" || g.Format(-5) != "-5" {
		t.Error("Format")
	}
}

func TestQDiffLaws(t *testing.T) {
	samples := []rational.Q{
		rational.Q{}, rational.QInt(1), rational.QFrac(-3, 2), rational.QFrac(7, 5), rational.QInt(100),
	}
	if err := CheckLaws[rational.Q](QDiff{}, samples); err != nil {
		t.Fatal(err)
	}
}

func TestTVPELaws(t *testing.T) {
	samples := []Affine{
		AffineInt(1, 0),
		AffineInt(2, 3),
		AffineInt(-1, 5),
		MustAffine(rational.QFrac(1, 2), rational.QFrac(-3, 4)),
		MustAffine(rational.QFrac(-5, 3), rational.Q{}),
	}
	if err := CheckLaws[Affine](TVPE{}, samples); err != nil {
		t.Fatal(err)
	}
}

func TestTVPEApplySemantics(t *testing.T) {
	g := TVPE{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		l1 := MustAffine(rational.QFrac(int64(rng.Intn(9)+1), int64(rng.Intn(5)+1)), rational.QInt(int64(rng.Intn(21)-10)))
		l2 := MustAffine(rational.QFrac(int64(-(rng.Intn(9)+1)), int64(rng.Intn(5)+1)), rational.QInt(int64(rng.Intn(21)-10)))
		x := rational.QInt(int64(rng.Intn(100) - 50))
		// Compose must mirror function composition along the path.
		want := l2.Apply(l1.Apply(x))
		got := g.Compose(l1, l2).Apply(x)
		if !got.Eq(want) {
			t.Fatalf("compose mismatch: %s vs %s", got, want)
		}
		// Inverse must mirror functional inverse.
		y := l1.Apply(x)
		if !g.Inverse(l1).Apply(y).Eq(x) {
			t.Fatalf("inverse mismatch")
		}
		if !l1.ApplyInv(y).Eq(x) {
			t.Fatalf("ApplyInv mismatch")
		}
	}
}

func TestTVPERejectsZeroSlope(t *testing.T) {
	if _, err := NewAffine(rational.Q{}, rational.QInt(1)); !errors.Is(err, fault.ErrInvalidLabel) {
		t.Errorf("zero slope must report ErrInvalidLabel (not injective), got %v", err)
	}
	defer func() {
		if err := fault.Classify(recover()); !errors.Is(err, fault.ErrInvalidLabel) {
			t.Errorf("MustAffine must panic with a classified error, got %v", err)
		}
	}()
	MustAffine(rational.Q{}, rational.QInt(1))
}

func TestIntersect(t *testing.T) {
	// y = 2x + 3 and y = x + 5 meet at x=2, y=7.
	x, y, sat := Intersect(AffineInt(2, 3), AffineInt(1, 5))
	if !sat || !x.Eq(rational.QInt(2)) || !y.Eq(rational.QInt(7)) {
		t.Errorf("Intersect = %s,%s,%v", x, y, sat)
	}
	// Parallel distinct lines: unsat.
	if _, _, sat := Intersect(AffineInt(2, 3), AffineInt(2, 4)); sat {
		t.Error("parallel lines must be unsat")
	}
}

func TestThroughPoints(t *testing.T) {
	// Paper §7.2: branch 1 has x=1,y=3; branch 2 has x=2,y=5 => y = 2x + 1.
	l, ok := ThroughPoints(rational.QInt(1), rational.QInt(3), rational.QInt(2), rational.QInt(5))
	if !ok {
		t.Fatal("should find a line")
	}
	if !l.A.Eq(rational.QInt(2)) || !l.B.Eq(rational.QInt(1)) {
		t.Errorf("line = %s", (TVPE{}).Format(l))
	}
	// Same x: no function through them.
	if _, ok := ThroughPoints(rational.QInt(1), rational.QInt(3), rational.QInt(1), rational.QInt(5)); ok {
		t.Error("vertical line is not a function")
	}
	// Same y: slope 0 not injective.
	if _, ok := ThroughPoints(rational.QInt(1), rational.QInt(3), rational.QInt(2), rational.QInt(3)); ok {
		t.Error("horizontal line is not injective")
	}
}

func TestModTVPELaws(t *testing.T) {
	for _, w := range []uint{1, 8, 32, 64} {
		g := MustModTVPE(w)
		samples := []ModAffine{
			g.Identity(),
			g.MustLabel(3, 7),
			g.MustLabel(0xdeadbeefdeadbeef|1, 42),
			g.MustLabel(^uint64(0), 1), // -1 is odd
		}
		if err := CheckLaws[ModAffine](g, samples); err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
	}
}

func TestModTVPESemantics(t *testing.T) {
	g := MustModTVPE(16)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		l1 := g.MustLabel(uint64(rng.Uint32())|1, uint64(rng.Uint32()))
		l2 := g.MustLabel(uint64(rng.Uint32())|1, uint64(rng.Uint32()))
		x := uint64(rng.Uint32()) & 0xffff
		if got, want := g.Apply(g.Compose(l1, l2), x), g.Apply(l2, g.Apply(l1, x)); got != want {
			t.Fatalf("compose mismatch: %x vs %x", got, want)
		}
		if got := g.Apply(g.Inverse(l1), g.Apply(l1, x)); got != x {
			t.Fatalf("inverse mismatch: %x vs %x", got, x)
		}
	}
}

func TestModTVPERejectsEven(t *testing.T) {
	if _, err := MustModTVPE(8).NewLabel(2, 0); !errors.Is(err, fault.ErrInvalidLabel) {
		t.Errorf("even multiplier must report ErrInvalidLabel, got %v", err)
	}
	defer func() {
		if err := fault.Classify(recover()); !errors.Is(err, fault.ErrInvalidLabel) {
			t.Errorf("MustLabel must panic with a classified error, got %v", err)
		}
	}()
	MustModTVPE(8).MustLabel(2, 0)
}

func TestOddInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		a := rng.Uint64() | 1
		if a*oddInverse(a) != 1 {
			t.Fatalf("oddInverse(%x) wrong", a)
		}
	}
}

func TestXorRotLaws(t *testing.T) {
	for _, w := range []uint{1, 7, 32, 64} {
		g := MustXorRot(w)
		samples := []XRLabel{
			g.Identity(),
			g.NewLabel(1, 0xff),
			g.NewLabel(w-1, 1),
			g.NewLabel(w/2, 0xdeadbeefcafebabe),
		}
		if err := CheckLaws[XRLabel](g, samples); err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
	}
}

func TestXorRotSemantics(t *testing.T) {
	for _, w := range []uint{8, 13, 64} {
		g := MustXorRot(w)
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < 300; i++ {
			l1 := g.NewLabel(uint(rng.Intn(int(w))), rng.Uint64())
			l2 := g.NewLabel(uint(rng.Intn(int(w))), rng.Uint64())
			x := rng.Uint64() & g.mask()
			if got, want := g.Apply(g.Compose(l1, l2), x), g.Apply(l2, g.Apply(l1, x)); got != want {
				t.Fatalf("w=%d compose mismatch: %x vs %x", w, got, want)
			}
			if got := g.Apply(g.Inverse(l1), g.Apply(l1, x)); got != x {
				t.Fatalf("w=%d inverse mismatch", w)
			}
		}
	}
}

func TestXorRotNegationEncoding(t *testing.T) {
	// Bitwise negation is (x xor ^0) rot 0 (Example 4.7).
	g := MustXorRot(8)
	l := g.NewLabel(0, 0xff)
	if g.Apply(l, 0b10110001) != 0b01001110 {
		t.Error("negation encoding wrong")
	}
}

func TestXorConstLaws(t *testing.T) {
	g := MustXorConst(32)
	samples := []uint64{0, 1, 0xff00ff00, 0xffffffff}
	if err := CheckLaws[uint64](g, samples); err != nil {
		t.Fatal(err)
	}
}

func TestParityLaws(t *testing.T) {
	if err := CheckLaws[ParityLabel](Parity{}, []ParityLabel{SameParity, DifferentParity}); err != nil {
		t.Fatal(err)
	}
	g := Parity{}
	if g.Compose(DifferentParity, DifferentParity) != SameParity {
		t.Error("odd+odd offset should preserve parity")
	}
}

func TestRelocLaws(t *testing.T) {
	if err := CheckLaws[RelocLabel](Reloc{}, []RelocLabel{0, 4, -9, 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPermLaws(t *testing.T) {
	g := MustPerm(4)
	samples := []PermLabel{
		g.Identity(),
		g.MustLabel([]int{1, 0, 2, 3}),
		g.MustLabel([]int{1, 2, 3, 0}),
		g.MustLabel([]int{3, 2, 1, 0}),
	}
	if err := CheckLaws[PermLabel](g, samples); err != nil {
		t.Fatal(err)
	}
}

func TestPermComposeOrder(t *testing.T) {
	g := MustPerm(3)
	a := g.MustLabel([]int{1, 2, 0}) // rotate
	b := g.MustLabel([]int{1, 0, 2}) // swap 0,1
	// First a then b: 0 -a-> 1 -b-> 0.
	if got := g.Compose(a, b); got[0] != 0 {
		t.Errorf("compose order wrong: %v", got)
	}
}

func TestPermValidation(t *testing.T) {
	g := MustPerm(3)
	for _, bad := range [][]int{{0, 1}, {0, 0, 1}, {0, 1, 3}} {
		if _, err := g.NewLabel(bad); !errors.Is(err, fault.ErrInvalidLabel) {
			t.Errorf("NewLabel(%v) must report ErrInvalidLabel, got %v", bad, err)
		}
	}
}

func TestFreeLaws(t *testing.T) {
	g := Free{}
	samples := []FreeLabel{
		nil,
		g.Gen(1),
		g.Gen(2),
		g.Compose(g.Gen(1), g.Gen(2)),
		g.Inverse(g.Gen(3)),
		g.Compose(g.Gen(2), g.Inverse(g.Gen(1))),
	}
	if err := CheckLaws[FreeLabel](g, samples); err != nil {
		t.Fatal(err)
	}
}

func TestFreeReduction(t *testing.T) {
	g := Free{}
	w := g.Compose(g.Gen(1), g.Compose(g.Gen(2), g.Compose(g.Inverse(g.Gen(2)), g.Inverse(g.Gen(1)))))
	if len(w) != 0 {
		t.Errorf("word should fully reduce, got %s", g.Format(w))
	}
	gens := Generators(g.Compose(g.Gen(3), g.Compose(g.Inverse(g.Gen(5)), g.Gen(3))))
	if len(gens) != 2 {
		t.Errorf("Generators = %v", gens)
	}
}

func TestMatGroupLaws(t *testing.T) {
	g := MustMatGroup(2)
	r := rational.QFrac
	samples := []MatAffine{
		g.Identity(),
		g.MustLabel([][]rational.Q{{r(2, 1), r(1, 1)}, {r(1, 1), r(1, 1)}}, []rational.Q{r(3, 1), r(-1, 2)}),
		g.MustLabel([][]rational.Q{{r(0, 1), r(1, 1)}, {r(-1, 1), r(0, 1)}}, []rational.Q{r(0, 1), r(0, 1)}),
		g.MustLabel([][]rational.Q{{r(1, 2), r(0, 1)}, {r(0, 1), r(3, 1)}}, []rational.Q{r(1, 1), r(1, 1)}),
	}
	if err := CheckLaws[MatAffine](g, samples); err != nil {
		t.Fatal(err)
	}
}

func TestMatGroupApplySemantics(t *testing.T) {
	g := MustMatGroup(2)
	r := rational.QInt
	l1 := g.MustLabel([][]rational.Q{{r(2), r(1)}, {r(1), r(1)}}, []rational.Q{r(3), r(-1)})
	l2 := g.MustLabel([][]rational.Q{{r(0), r(1)}, {r(-1), r(0)}}, []rational.Q{r(5), r(0)})
	x := []rational.Q{r(7), r(-2)}
	want := g.Apply(l2, g.Apply(l1, x))
	got := g.Apply(g.Compose(l1, l2), x)
	for i := range want {
		if !got[i].Eq(want[i]) {
			t.Fatalf("compose mismatch at %d: %s vs %s", i, got[i], want[i])
		}
	}
	y := g.Apply(l1, x)
	back := g.Apply(g.Inverse(l1), y)
	for i := range back {
		if !back[i].Eq(x[i]) {
			t.Fatalf("inverse mismatch at %d", i)
		}
	}
}

func TestMatGroupRejectsSingular(t *testing.T) {
	g := MustMatGroup(2)
	r := rational.QInt
	if _, err := g.NewLabel([][]rational.Q{{r(1), r(2)}, {r(2), r(4)}}, []rational.Q{r(0), r(0)}); !errors.Is(err, fault.ErrInvalidLabel) {
		t.Errorf("singular matrix must report ErrInvalidLabel, got %v", err)
	}
}

func TestHelpers(t *testing.T) {
	g := Delta{}
	if !IsIdentity[DeltaLabel](g, 0) || IsIdentity[DeltaLabel](g, 3) {
		t.Error("IsIdentity")
	}
	if ComposeAll[DeltaLabel](g, 1, 2, 3) != 6 {
		t.Error("ComposeAll")
	}
	if ComposeAll[DeltaLabel](g) != 0 {
		t.Error("ComposeAll empty")
	}
	// Conjugation in an abelian group is the identity operation.
	if Conjugate[DeltaLabel](g, 5, 100) != 5 {
		t.Error("Conjugate")
	}
}

func TestFormatters(t *testing.T) {
	cases := []struct{ got, want string }{
		{(QDiff{}).Format(rational.QFrac(3, 2)), "+3/2"},
		{(QDiff{}).Format(rational.QFrac(-3, 2)), "-3/2"},
		{(TVPE{}).Format(AffineInt(3, 4)), "*3+4"},
		{(TVPE{}).Format(AffineInt(2, -1)), "*2-1"},
		{(TVPE{}).Format(AffineInt(2, 0)), "*2"},
		{(Parity{}).Format(SameParity), "same parity"},
		{(Parity{}).Format(DifferentParity), "different parity"},
		{(Reloc{}).Format(-3), "reloc(-3)"},
		{(Free{}).Format(nil), "ε"},
		{(Free{}).Format(Free{}.Compose(Free{}.Gen(2), Free{}.Inverse(Free{}.Gen(1)))), "g2·g1⁻¹"},
		{MustModTVPE(8).Format(ModAffine{A: 3, B: 7}), "*3+7 (mod 2^8)"},
		{MustXorConst(8).Format(0x0f), "xor 0xf"},
		{MustPerm(3).Format(PermLabel{2, 0, 1}), "(2,0,1)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("Format = %q, want %q", c.got, c.want)
		}
	}
	if s := MustMatGroup(2).Format(MustMatGroup(2).Identity()); s != "[1 0; 0 1]x + (0 0)" {
		t.Errorf("matrix Format = %q", s)
	}
}

// TestConstructorErrors checks every validating constructor reports
// fault.ErrInvalidLabel on bad input instead of panicking.
func TestConstructorErrors(t *testing.T) {
	for name, f := range map[string]func() error{
		"ModTVPE-0":  func() error { _, err := NewModTVPE(0); return err },
		"ModTVPE-65": func() error { _, err := NewModTVPE(65); return err },
		"XorRot-0":   func() error { _, err := NewXorRot(0); return err },
		"XorRot-65":  func() error { _, err := NewXorRot(65); return err },
		"XorConst-0": func() error { _, err := NewXorConst(0); return err },
		"Perm-0":     func() error { _, err := NewPerm(0); return err },
		"MatGroup-0": func() error { _, err := NewMatGroup(0); return err },
		"Mat-dims":   func() error { _, err := MustMatGroup(2).NewLabel(nil, nil); return err },
	} {
		if err := f(); !errors.Is(err, fault.ErrInvalidLabel) {
			t.Errorf("%s must report ErrInvalidLabel, got %v", name, err)
		}
	}
}

// TestMustConstructorPanics checks the Must wrappers panic with
// classified (taxonomy-tagged) errors, so the facade's recover layer
// can map them back to the sentinel.
func TestMustConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"MustModTVPE-0":  func() { MustModTVPE(0) },
		"MustXorRot-0":   func() { MustXorRot(0) },
		"MustXorConst-0": func() { MustXorConst(0) },
		"MustPerm-0":     func() { MustPerm(0) },
		"MustMatGroup-0": func() { MustMatGroup(0) },
		"Free-gen-0":     func() { (Free{}).Gen(0) },
	} {
		func() {
			defer func() {
				if err := fault.Classify(recover()); !errors.Is(err, fault.ErrInvalidLabel) {
					t.Errorf("%s must panic with ErrInvalidLabel, got %v", name, err)
				}
			}()
			f()
		}()
	}
}

// TestDeltaOverflowChecked: composing Delta labels past int64 range
// must panic with a fault.ErrOverflow-tagged error, never wrap around
// silently (Delta is a group over ℤ).
func TestDeltaOverflowChecked(t *testing.T) {
	g := Delta{}
	for name, f := range map[string]func(){
		"compose":  func() { g.Compose(math.MaxInt64, 1) },
		"inverse":  func() { g.Inverse(math.MinInt64) },
		"compose2": func() { g.Compose(math.MinInt64, -1) },
	} {
		func() {
			defer func() {
				if err := fault.Classify(recover()); !errors.Is(err, fault.ErrOverflow) {
					t.Errorf("Delta %s must panic with ErrOverflow, got %v", name, err)
				}
			}()
			f()
		}()
	}
	relocG := Reloc{}
	func() {
		defer func() {
			if err := fault.Classify(recover()); !errors.Is(err, fault.ErrOverflow) {
				t.Errorf("Reloc compose must panic with ErrOverflow, got %v", err)
			}
		}()
		relocG.Compose(math.MaxInt64, 1)
	}()
}

// TestModTVPEWraparoundIntended pins down that ModTVPE composition is
// modular arithmetic by design, matching big.Int reference arithmetic
// mod 2ʷ — wraparound here is semantics, not overflow.
func TestModTVPEWraparoundIntended(t *testing.T) {
	for _, w := range []uint{8, 16, 64} {
		g := MustModTVPE(w)
		mod := new(big.Int).Lsh(big.NewInt(1), w)
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < 100; i++ {
			l1 := g.MustLabel(rng.Uint64()|1, rng.Uint64())
			l2 := g.MustLabel(rng.Uint64()|1, rng.Uint64())
			got := g.Compose(l1, l2)
			refA := new(big.Int).Mul(new(big.Int).SetUint64(l1.A), new(big.Int).SetUint64(l2.A))
			refA.Mod(refA, mod)
			refB := new(big.Int).Mul(new(big.Int).SetUint64(l2.A), new(big.Int).SetUint64(l1.B))
			refB.Add(refB, new(big.Int).SetUint64(l2.B))
			refB.Mod(refB, mod)
			if got.A != refA.Uint64() || got.B != refB.Uint64() {
				t.Fatalf("w=%d compose disagrees with big.Int reference: (%x,%x) vs (%x,%x)",
					w, got.A, got.B, refA.Uint64(), refB.Uint64())
			}
		}
	}
}

// TestCheckLawsCatchesViolations feeds CheckLaws deliberately broken
// groups and expects detection.
type brokenAssoc struct{ Delta }

// Compose is subtly non-associative.
func (brokenAssoc) Compose(a, b DeltaLabel) DeltaLabel {
	if a > 100 {
		return a + b + 1
	}
	return a + b
}

type brokenKey struct{ Delta }

func (brokenKey) Key(a DeltaLabel) string { return "same-for-everything" }

func TestCheckLawsCatchesViolations(t *testing.T) {
	if err := CheckLaws[DeltaLabel](brokenAssoc{}, []DeltaLabel{1, 50, 200}); err == nil {
		t.Error("broken associativity not caught")
	}
	if err := CheckLaws[DeltaLabel](brokenKey{}, []DeltaLabel{1, 2}); err == nil {
		t.Error("broken Key/Equal consistency not caught")
	}
}
