package group

import (
	"luf/internal/fault"
	"luf/internal/rational"
)

// Affine is a TVPE label (Example 4.6 of the paper): the pair (a, b) with
// a ≠ 0 concretizes to γ(a,b) = {(x, y) | y = a·x + b}. An edge
// n --(a,b)--> m therefore reads σ(m) = a·σ(n) + b.
//
// Over ℚ this group is exact; over ℤ composition is sound but not exact
// (the paper's z = 2y ∧ y = x/2 example: the abstract composition forgets
// that x and z are even — that residual information belongs in a
// non-relational domain, see Section 5).
type Affine struct {
	A rational.Q // slope, non-zero
	B rational.Q // offset
}

// NewAffine returns the label y = a·x + b. It reports
// fault.ErrInvalidLabel if a is zero, since a constant map is not
// injective and cannot be a group element (Theorem 4.3).
func NewAffine(a, b rational.Q) (Affine, error) {
	if a.Sign() == 0 {
		return Affine{}, fault.Invalidf("TVPE slope must be non-zero")
	}
	return Affine{A: a, B: b}, nil
}

// MustAffine is NewAffine that panics (with the classified error) on
// invalid input, for tests, examples and statically-known labels.
func MustAffine(a, b rational.Q) Affine {
	l, err := NewAffine(a, b)
	if err != nil {
		panic(err)
	}
	return l
}

// AffineInt is a convenience constructor for integer coefficients; it
// panics if a is zero.
func AffineInt(a, b int64) Affine {
	return MustAffine(rational.QInt(a), rational.QInt(b))
}

// Apply returns a·x + b.
func (l Affine) Apply(x rational.Q) rational.Q { return l.A.Mul(x).Add(l.B) }

// ApplyInv returns (y - b) / a, the unique x with y = a·x + b.
func (l Affine) ApplyInv(y rational.Q) rational.Q { return y.Sub(l.B).Div(l.A) }

// TVPE is the group descriptor for Affine labels over ℚ
// ("two-values per equality", by analogy with the TVPI domain).
type TVPE struct{}

// Identity returns y = 1·x + 0.
func (TVPE) Identity() Affine { return Affine{A: rational.QInt(1)} }

// Compose returns the label of n --l1--> p --l2--> m:
// m = a2·(a1·n + b1) + b2 = (a1·a2)·n + (a2·b1 + b2).
func (TVPE) Compose(l1, l2 Affine) Affine {
	return Affine{A: l1.A.Mul(l2.A), B: l2.A.Mul(l1.B).Add(l2.B)}
}

// Inverse returns the label of the reversed edge: x = (1/a)·y + (-b/a).
func (TVPE) Inverse(l Affine) Affine {
	invA := l.A.Inv()
	return Affine{A: invA, B: invA.Mul(l.B).Neg()}
}

// Equal reports component-wise rational equality.
func (TVPE) Equal(l1, l2 Affine) bool { return l1.A.Eq(l2.A) && l1.B.Eq(l2.B) }

// Key returns "a|b" with canonical fraction strings.
func (TVPE) Key(l Affine) string { return l.A.Key() + "|" + l.B.Key() }

// Format renders the label as "*a+b".
func (TVPE) Format(l Affine) string {
	s := "*" + l.A.String()
	if l.B.Sign() > 0 {
		s += "+" + l.B.String()
	} else if l.B.Sign() < 0 {
		s += l.B.String()
	}
	return s
}

// Intersect computes the meeting point of two distinct affine relations
// assumed to constrain the same edge: if y = a1·x + b1 and y = a2·x + b2
// with (a1,b1) ≠ (a2,b2), either the lines are parallel (no solution, the
// state is unsatisfiable) or they intersect in the single point (x, y).
// This is the conflict resolution of Section 3.2 ("Managing Conflicts"):
// the intersection point should be propagated to a non-relational domain.
func Intersect(l1, l2 Affine) (x, y rational.Q, sat bool) {
	da := l1.A.Sub(l2.A)
	if da.Sign() == 0 {
		return rational.Q{}, rational.Q{}, false // parallel: bottom
	}
	// a1·x + b1 = a2·x + b2  =>  x = (b2 - b1) / (a1 - a2)
	x = l2.B.Sub(l1.B).Div(da)
	return x, l1.Apply(x), true
}

// ThroughPoints returns the unique affine label mapping x1 to y1 and x2 to
// y2, when it exists (x1 ≠ x2 and y1 ≠ y2; equal y's would need slope zero).
// This is the "joining constants" rule of Section 7.2: relating two φ-terms
// with constant arguments amounts to finding a line through two points.
func ThroughPoints(x1, y1, x2, y2 rational.Q) (Affine, bool) {
	dx := x2.Sub(x1)
	if dx.Sign() == 0 {
		return Affine{}, false
	}
	a := y2.Sub(y1).Div(dx)
	if a.Sign() == 0 {
		return Affine{}, false // not injective
	}
	return Affine{A: a, B: y1.Sub(a.Mul(x1))}, true
}
