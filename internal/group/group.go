// Package group defines the label groups used by labeled union-find
// (Section 3 of the paper) and provides the instances catalogued in
// Section 4.2: constant difference, TVPE (y = a·x + b over ℚ), modular TVPE
// over ℤ/2ʷℤ, xor-rotate and constant-xor bitvector relations, parity
// comparison, invertible affine matrix maps, sequence relocation,
// permutations, and the free group (proof production).
//
// A group is passed to the union-find as a descriptor value implementing
// Group[L]; labels themselves are plain values (int64, small structs,
// rational.Q pairs), which keeps them cheap and avoids method-set
// constraints on the label type.
//
// Orientation convention: an edge n --ℓ--> m states (σ(n), σ(m)) ∈ γ(ℓ).
// Compose(a, b) is relation composition along a path n --a--> p --b--> m,
// i.e. γ(Compose(a,b)) ⊇ γ(a) ; γ(b) (equality when the group is exact,
// Theorem 4.5).
package group

// Group is the descriptor of a label group ⟨L, Compose, Inverse, Identity⟩
// (Assumption 2 of the paper). Implementations must satisfy the group laws:
//
//	Compose(Compose(a,b),c) = Compose(a,Compose(b,c))   (associativity)
//	Compose(Identity(), a) = a = Compose(a, Identity()) (neutral element)
//	Compose(a, Inverse(a)) = Identity() = Compose(Inverse(a), a)
//
// Equal must be an equivalence consistent with the laws, and Key must return
// a canonical string: Equal(a,b) iff Key(a) == Key(b). Key is what lets
// client code (e.g. the equality-detection product of Section 6.1) index
// maps by label.
type Group[L any] interface {
	// Identity returns the neutral label id with γ(id) reflexive
	// (HIdentitySound).
	Identity() L
	// Compose returns the label of the two-edge path a then b.
	Compose(a, b L) L
	// Inverse returns the label of the reversed edge.
	Inverse(a L) L
	// Equal reports whether two labels are the same group element.
	Equal(a, b L) bool
	// Key returns a canonical map key for the label.
	Key(a L) string
	// Format renders the label for humans, reading "m = a(n)" along
	// an edge n --a--> m.
	Format(a L) string
}

// IsIdentity reports whether a is the neutral element of g.
func IsIdentity[L any](g Group[L], a L) bool { return g.Equal(a, g.Identity()) }

// ComposeAll folds Compose over labels left to right, starting from the
// identity; it returns the label of the path that traverses all edges in
// order.
func ComposeAll[L any](g Group[L], labels ...L) L {
	acc := g.Identity()
	for _, l := range labels {
		acc = g.Compose(acc, l)
	}
	return acc
}

// Conjugate returns Inverse(by) ; a ; by, the conjugate of a by `by`.
// Conjugation appears in add_relation when re-rooting trees (Fig. 4).
func Conjugate[L any](g Group[L], a, by L) L {
	return g.Compose(g.Compose(g.Inverse(by), a), by)
}
