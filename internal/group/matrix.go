package group

import (
	"slices"
	"strings"

	"luf/internal/fault"
	"luf/internal/rational"
)

// MatAffine is an invertible affine map label over ℚⁿ (Example 4.9 of the
// paper): the pair (A, b) with A an invertible n×n rational matrix
// concretizes to γ(A,b) = {(x, y) ∈ (ℚⁿ)² | y = A·x + b}.
type MatAffine struct {
	A [][]rational.Q // row-major n×n, invertible
	B []rational.Q   // length n
}

// MatGroup is the group of invertible affine maps on ℚⁿ.
type MatGroup struct {
	N int
}

// NewMatGroup returns the descriptor for dimension n; it reports
// fault.ErrInvalidLabel unless n >= 1.
func NewMatGroup(n int) (MatGroup, error) {
	if n < 1 {
		return MatGroup{}, fault.Invalidf("MatGroup dimension %d must be >= 1", n)
	}
	return MatGroup{N: n}, nil
}

// MustMatGroup is NewMatGroup that panics on invalid dimension.
func MustMatGroup(n int) MatGroup {
	g, err := NewMatGroup(n)
	if err != nil {
		panic(err)
	}
	return g
}

// NewLabel validates invertibility and returns the label y = A·x + b.
// It reports fault.ErrInvalidLabel if dimensions are wrong or A is
// singular (a singular map is not injective, Theorem 4.3).
func (g MatGroup) NewLabel(a [][]rational.Q, b []rational.Q) (MatAffine, error) {
	if len(a) != g.N || len(b) != g.N {
		return MatAffine{}, fault.Invalidf("matrix label has dimension %dx?/%d, want %d", len(a), len(b), g.N)
	}
	for _, row := range a {
		if len(row) != g.N {
			return MatAffine{}, fault.Invalidf("matrix label row has length %d, want %d", len(row), g.N)
		}
	}
	if _, ok := matInverse(a); !ok {
		return MatAffine{}, fault.Invalidf("matrix label is singular")
	}
	return MatAffine{A: matClone(a), B: slices.Clone(b)}, nil
}

// MustLabel is NewLabel that panics on an invalid matrix.
func (g MatGroup) MustLabel(a [][]rational.Q, b []rational.Q) MatAffine {
	l, err := g.NewLabel(a, b)
	if err != nil {
		panic(err)
	}
	return l
}

// Apply returns A·x + b.
func (g MatGroup) Apply(l MatAffine, x []rational.Q) []rational.Q {
	return vecAdd(matVec(l.A, x), l.B)
}

// Identity returns y = I·x + 0.
func (g MatGroup) Identity() MatAffine {
	a := make([][]rational.Q, g.N)
	for i := range a {
		a[i] = make([]rational.Q, g.N)
		a[i][i] = rational.QInt(1)
	}
	return MatAffine{A: a, B: make([]rational.Q, g.N)}
}

// Compose returns the label of n --l1--> p --l2--> m:
// m = A2·(A1·x + b1) + b2 = (A2·A1)·x + (A2·b1 + b2).
func (g MatGroup) Compose(l1, l2 MatAffine) MatAffine {
	return MatAffine{
		A: matMul(l2.A, l1.A),
		B: vecAdd(matVec(l2.A, l1.B), l2.B),
	}
}

// Inverse returns x = A⁻¹·y - A⁻¹·b.
func (g MatGroup) Inverse(l MatAffine) MatAffine {
	inv, ok := matInverse(l.A)
	if !ok {
		// Labels are validated at construction, so a singular matrix
		// here means the structure was corrupted — a classified panic
		// the facade's recover layer maps to ErrInvariantViolated.
		panic(fault.Invariantf("singular matrix in Inverse (labels must be validated)"))
	}
	nb := matVec(inv, l.B)
	for i := range nb {
		nb[i] = nb[i].Neg()
	}
	return MatAffine{A: inv, B: nb}
}

// Equal reports component-wise rational equality.
func (g MatGroup) Equal(l1, l2 MatAffine) bool {
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			if !l1.A[i][j].Eq(l2.A[i][j]) {
				return false
			}
		}
		if !l1.B[i].Eq(l2.B[i]) {
			return false
		}
	}
	return true
}

// Key returns a canonical rendering of all entries.
func (g MatGroup) Key(l MatAffine) string {
	var sb strings.Builder
	for i := 0; i < g.N; i++ {
		for j := 0; j < g.N; j++ {
			sb.WriteString(l.A[i][j].Key())
			sb.WriteByte(',')
		}
		sb.WriteString(l.B[i].Key())
		sb.WriteByte(';')
	}
	return sb.String()
}

// Format renders the label as "[A]x + b".
func (g MatGroup) Format(l MatAffine) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < g.N; i++ {
		if i > 0 {
			sb.WriteString("; ")
		}
		for j := 0; j < g.N; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(l.A[i][j].Key())
		}
	}
	sb.WriteString("]x + (")
	for i := 0; i < g.N; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(l.B[i].Key())
	}
	sb.WriteByte(')')
	return sb.String()
}

func matClone(a [][]rational.Q) [][]rational.Q {
	out := make([][]rational.Q, len(a))
	for i, row := range a {
		out[i] = slices.Clone(row)
	}
	return out
}

func matMul(a, b [][]rational.Q) [][]rational.Q {
	n := len(a)
	out := make([][]rational.Q, n)
	for i := 0; i < n; i++ {
		out[i] = make([]rational.Q, n)
		for j := 0; j < n; j++ {
			var acc rational.Q
			for k := 0; k < n; k++ {
				acc = acc.Add(a[i][k].Mul(b[k][j]))
			}
			out[i][j] = acc
		}
	}
	return out
}

func matVec(a [][]rational.Q, v []rational.Q) []rational.Q {
	n := len(a)
	out := make([]rational.Q, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			out[i] = out[i].Add(a[i][k].Mul(v[k]))
		}
	}
	return out
}

func vecAdd(a, b []rational.Q) []rational.Q {
	out := make([]rational.Q, len(a))
	for i := range a {
		out[i] = a[i].Add(b[i])
	}
	return out
}

// matInverse returns A⁻¹ by Gauss–Jordan elimination with exact rational
// arithmetic, or ok=false if A is singular.
func matInverse(a [][]rational.Q) ([][]rational.Q, bool) {
	n := len(a)
	// Augmented matrix [A | I].
	m := make([][]rational.Q, n)
	for i := 0; i < n; i++ {
		m[i] = make([]rational.Q, 2*n)
		copy(m[i], a[i])
		m[i][n+i] = rational.QInt(1)
	}
	for col := 0; col < n; col++ {
		// Find pivot.
		piv := -1
		for r := col; r < n; r++ {
			if m[r][col].Sign() != 0 {
				piv = r
				break
			}
		}
		if piv == -1 {
			return nil, false
		}
		m[col], m[piv] = m[piv], m[col]
		// Normalize pivot row.
		p := m[col][col]
		for j := 0; j < 2*n; j++ {
			m[col][j] = m[col][j].Div(p)
		}
		// Eliminate other rows.
		for r := 0; r < n; r++ {
			if r == col || m[r][col].Sign() == 0 {
				continue
			}
			f := m[r][col]
			for j := 0; j < 2*n; j++ {
				m[r][j] = m[r][j].Sub(f.Mul(m[col][j]))
			}
		}
	}
	out := make([][]rational.Q, n)
	for i := 0; i < n; i++ {
		out[i] = m[i][n:]
	}
	return out, true
}
