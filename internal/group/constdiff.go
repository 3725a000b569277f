package group

import (
	"strconv"

	"luf/internal/fault"
	"luf/internal/rational"
)

// Delta is the constant-difference group over int64 (Example 2.1 of the
// paper): the label k on an edge n --k--> m states σ(m) = σ(n) + k.
// γ(k) = {(x, y) | y - x = k}, composition is addition, inverse is negation.
// This group is exact (Theorem 4.5), so its lattice of relations is flat.
//
// Delta is the fast-path instance used by the analyzer and the scaling
// benchmarks; QDiff is the arbitrary-precision rational variant used by the
// solver.
type Delta struct{}

// DeltaLabel is an int64 offset.
type DeltaLabel = int64

// Identity returns 0.
func (Delta) Identity() DeltaLabel { return 0 }

// Compose returns a + b with checked arithmetic: Delta is a group over
// ℤ, not ℤ/2⁶⁴ℤ, so silent wraparound would fabricate a wrong relation
// (use ModTVPE when modular semantics are wanted). On overflow it
// panics with a fault.ErrOverflow-tagged error that the facade's
// recover layer classifies.
func (Delta) Compose(a, b DeltaLabel) DeltaLabel {
	s, err := fault.AddInt64(a, b)
	if err != nil {
		panic(err)
	}
	return s
}

// Inverse returns -a, panicking with fault.ErrOverflow for MinInt64
// (whose negation is not representable).
func (Delta) Inverse(a DeltaLabel) DeltaLabel {
	n, err := fault.NegInt64(a)
	if err != nil {
		panic(err)
	}
	return n
}

// Equal reports a == b.
func (Delta) Equal(a, b DeltaLabel) bool { return a == b }

// Key returns the decimal rendering of a.
func (Delta) Key(a DeltaLabel) string { return strconv.FormatInt(a, 10) }

// Format renders the label as "+k".
func (Delta) Format(a DeltaLabel) string {
	if a >= 0 {
		return "+" + strconv.FormatInt(a, 10)
	}
	return strconv.FormatInt(a, 10)
}

// QDiff is the constant-difference group over rationals: the label k on an
// edge n --k--> m states σ(m) = σ(n) + k with k ∈ ℚ. It is the label group
// used by the Shostak product of Section 6.2 and the solver of Section 7.1.
type QDiff struct{}

// Identity returns 0.
func (QDiff) Identity() rational.Q { return rational.Q{} }

// Compose returns a + b.
func (QDiff) Compose(a, b rational.Q) rational.Q { return a.Add(b) }

// Inverse returns -a.
func (QDiff) Inverse(a rational.Q) rational.Q { return a.Neg() }

// Equal reports a == b as rationals.
func (QDiff) Equal(a, b rational.Q) bool { return a.Eq(b) }

// Key returns the canonical fraction string.
func (QDiff) Key(a rational.Q) string { return a.Key() }

// Format renders the label as "+k".
func (QDiff) Format(a rational.Q) string {
	if a.Sign() >= 0 {
		return "+" + a.Key()
	}
	return a.Key()
}
