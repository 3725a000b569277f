package core

// Integration tests exercising the less common label groups through the
// union-find — the extensions the paper sketches in Sections 4.2 and 8.

import (
	"math/rand"
	"testing"

	"luf/internal/group"
	"luf/internal/rational"
)

// TestProofProduction implements the Nieuwenhuis–Oliveras usage from
// Section 8: labeling each union with a fresh free-group generator lets
// GetRelation return the set of union operations explaining why two nodes
// are connected.
func TestProofProduction(t *testing.T) {
	g := group.Free{}
	u := New[string, group.FreeLabel](g)
	unions := map[int][2]string{}
	addEq := func(id int, a, b string) {
		unions[id] = [2]string{a, b}
		u.AddRelation(a, b, g.Gen(id))
	}
	addEq(1, "a", "b")
	addEq(2, "c", "d")
	addEq(3, "b", "c")
	addEq(4, "d", "e")

	word, ok := u.GetRelation("a", "e")
	if !ok {
		t.Fatal("a and e should be connected")
	}
	proof := group.Generators(word)
	// The explanation must be exactly the unions on the a—e path.
	want := map[int]bool{1: true, 2: true, 3: true, 4: true}
	if len(proof) != len(want) {
		t.Fatalf("proof = %v, want the 4 chain unions", proof)
	}
	for _, id := range proof {
		if !want[id] {
			t.Errorf("proof cites union %d (%v) which is not needed", id, unions[id])
		}
	}
	// A shorter connection cites fewer unions.
	word, _ = u.GetRelation("a", "b")
	if p := group.Generators(word); len(p) != 1 || p[0] != 1 {
		t.Errorf("proof of a=b should be {1}, got %v", p)
	}
}

// TestParityDomain uses the parity-comparison group (Example 4.4), whose
// γ(id#) is coarser than equality: classes of the id# relation are the
// odd and even numbers.
func TestParityDomain(t *testing.T) {
	u := New[string, group.ParityLabel](group.Parity{})
	u.AddRelation("a", "b", group.DifferentParity)
	u.AddRelation("b", "c", group.DifferentParity)
	u.AddRelation("c", "d", group.SameParity)
	rel, ok := u.GetRelation("a", "d")
	if !ok || rel != group.SameParity {
		t.Errorf("a–d parity = %v, %v; want same", rel, ok)
	}
	// Conflicting parity claim.
	if u.AddRelation("a", "d", group.DifferentParity) {
		t.Error("conflict expected")
	}
}

// TestRelocSequences models the n-indexed sequence theory of Ait-El-Hara
// et al.: sequences equal up to an index shift form classes; the label
// gives the shift.
func TestRelocSequences(t *testing.T) {
	u := New[string, group.RelocLabel](group.Reloc{})
	u.AddRelation("s1", "s2", 4)  // s2 = s1 shifted by 4
	u.AddRelation("s2", "s3", -1) // s3 = s2 shifted by -1
	if rel, ok := u.GetRelation("s1", "s3"); !ok || rel != 3 {
		t.Errorf("s1–s3 shift = %d, %v; want 3", rel, ok)
	}
}

// TestMatrixClasses relates 2-vectors by invertible affine maps
// (Example 4.9) and checks the composed transform against a concrete
// vector.
func TestMatrixClasses(t *testing.T) {
	g := group.MustMatGroup(2)
	r := rational.QInt
	rot90 := g.MustLabel([][]rational.Q{{r(0), r(-1)}, {r(1), r(0)}}, []rational.Q{r(0), r(0)})
	shift := g.Identity()
	shift.B = []rational.Q{r(3), r(-2)}

	u := New[string, group.MatAffine](g)
	u.AddRelation("p", "q", rot90)
	u.AddRelation("q", "r", shift)
	rel, ok := u.GetRelation("p", "r")
	if !ok {
		t.Fatal("p and r should be related")
	}
	// p = (2, 5): q = rot90(p) = (-5, 2); r = q + (3, -2) = (-2, 0).
	got := g.Apply(rel, []rational.Q{r(2), r(5)})
	if !got[0].Eq(r(-2)) || !got[1].Eq(r(0)) {
		t.Errorf("r = (%s, %s), want (-2, 0)", got[0], got[1])
	}
}

// TestModTVPEClasses exercises machine-integer affine relations with odd
// multipliers (Example 4.8), including the unsigned/signed
// reinterpretation noted in Example 4.10 (the identity modulo 2^w).
func TestModTVPEClasses(t *testing.T) {
	g := group.MustModTVPE(16)
	u := New[string, group.ModAffine](g)
	u.AddRelation("x", "y", g.MustLabel(3, 7))      // y = 3x + 7 mod 2^16
	u.AddRelation("y", "z", g.MustLabel(0xabcd, 1)) // odd multiplier
	rel, ok := u.GetRelation("x", "z")
	if !ok {
		t.Fatal("related")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		x := uint64(rng.Uint32()) & 0xffff
		y := g.Apply(g.MustLabel(3, 7), x)
		z := g.Apply(g.MustLabel(0xabcd, 1), y)
		if g.Apply(rel, x) != z {
			t.Fatalf("composed relation wrong at x=%#x", x)
		}
	}
}
