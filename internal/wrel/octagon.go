package wrel

import (
	"luf/internal/interval"
	"luf/internal/rational"
)

// OctRel is the octagon-style abstract relation of Section 2.1.1: a pair
// of intervals (D, S) on an edge x --(D,S)--> y constrains both the
// difference and the sum, γ(D,S) = {(x, y) | y - x ∈ D ∧ y + x ∈ S}.
// With the weakly-relational graph it yields the octagon domain's binary
// fragment (Miné 2006). Like the interval difference it is NOT a group —
// composition is sound but not exact — so it lives in the wrel baseline,
// not in a labeled union-find.
type OctRel struct{}

// Oct is an octagon relation label.
type Oct struct {
	D interval.Itv // y - x
	S interval.Itv // y + x
}

// OctDiff returns the constraint y - x ∈ [lo;hi] (sum unconstrained).
func OctDiff(lo, hi int64) Oct {
	return Oct{D: interval.RangeInt(lo, hi), S: interval.Top()}
}

// OctSum returns the constraint y + x ∈ [lo;hi] (difference
// unconstrained).
func OctSum(lo, hi int64) Oct {
	return Oct{D: interval.Top(), S: interval.RangeInt(lo, hi)}
}

// Identity returns {(x, x)}: difference exactly 0, sum unconstrained.
func (OctRel) Identity() Oct {
	return Oct{D: interval.ConstInt(0), S: interval.Top()}
}

// Compose over-approximates relation composition: for x --(D1,S1)--> y
// --(D2,S2)--> z,
//
//	z - x = (y - x) + (z - y)        ∈ D1 + D2
//	z + x = (z - y) + (y + x)        ∈ D2 + S1
//	z + x = (z + y) - (y - x)        ∈ S2 - D1
func (OctRel) Compose(a, b Oct) Oct {
	return Oct{
		D: a.D.Add(b.D),
		S: b.D.Add(a.S).Meet(b.S.Sub(a.D)),
	}
}

// Inverse flips the pair orientation: x - y = -(y - x), x + y unchanged.
func (OctRel) Inverse(a Oct) Oct { return Oct{D: a.D.Neg(), S: a.S} }

// Meet intersects both components; ok=false when either is empty.
func (OctRel) Meet(a, b Oct) (Oct, bool) {
	m := Oct{D: a.D.Meet(b.D), S: a.S.Meet(b.S)}
	return m, !m.D.IsBottom() && !m.S.IsBottom()
}

// Leq is component-wise inclusion.
func (OctRel) Leq(a, b Oct) bool { return a.D.Leq(b.D) && a.S.Leq(b.S) }

// Eq is component-wise equality.
func (OctRel) Eq(a, b Oct) bool { return a.D.Eq(b.D) && a.S.Eq(b.S) }

// IsTop reports the unconstrained relation.
func (OctRel) IsTop(a Oct) bool { return a.D.IsTop() && a.S.IsTop() }

// Format renders the relation.
func (OctRel) Format(a Oct) string {
	return "y-x∈" + a.D.String() + " ∧ y+x∈" + a.S.String()
}

// SatOct reports whether σ satisfies every constraint of an octagon graph.
func SatOct(g *Graph[Oct], sigma []int64) bool {
	if g.IsBottom() {
		return false
	}
	ok := true
	g.Edges(func(i, j int, r Oct) {
		d := rational.QInt(sigma[j] - sigma[i])
		s := rational.QInt(sigma[j] + sigma[i])
		if !r.D.Contains(d) || !r.S.Contains(s) {
			ok = false
		}
	})
	return ok
}
