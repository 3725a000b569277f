package wrel

import (
	"luf/internal/interval"
	"luf/internal/rational"
)

// ItvDiff is the interval-difference abstract relation (Example 2.2 of the
// paper): the relation [a;b] on an edge x --[a;b]--> y states
// y - x ∈ [a;b]. It is the relation of zones/DBMs. Composition is interval
// addition and the meet is interval intersection — sound and exact, but
// NOT a group (composition with the inverse widens instead of cancelling),
// which is exactly why it cannot label a union-find (Section 2.2).
type ItvDiff struct{}

// Identity returns [0;0].
func (ItvDiff) Identity() interval.Itv { return interval.ConstInt(0) }

// Compose returns a + b (interval addition).
func (ItvDiff) Compose(a, b interval.Itv) interval.Itv { return a.Add(b) }

// Inverse returns -a.
func (ItvDiff) Inverse(a interval.Itv) interval.Itv { return a.Neg() }

// Meet intersects; ok=false on empty intersection.
func (ItvDiff) Meet(a, b interval.Itv) (interval.Itv, bool) {
	m := a.Meet(b)
	return m, !m.IsBottom()
}

// Leq is interval inclusion.
func (ItvDiff) Leq(a, b interval.Itv) bool { return a.Leq(b) }

// Eq is interval equality.
func (ItvDiff) Eq(a, b interval.Itv) bool { return a.Eq(b) }

// IsTop reports the unconstrained difference.
func (ItvDiff) IsTop(a interval.Itv) bool { return a.IsTop() }

// Format renders the interval.
func (ItvDiff) Format(a interval.Itv) string { return a.String() }

// Diff is a convenience constructor: the constraint y - x ∈ [lo;hi].
func Diff(lo, hi int64) interval.Itv { return interval.RangeInt(lo, hi) }

// ExactDiff is the constraint y - x = k as an interval difference.
func ExactDiff(k int64) interval.Itv { return interval.ConstInt(k) }

// Sat reports whether the valuation σ satisfies every constraint of an
// interval-difference graph — the concretization test used by soundness
// fuzzing.
func Sat(g *Graph[interval.Itv], sigma []int64) bool {
	if g.IsBottom() {
		return false
	}
	ok := true
	g.Edges(func(i, j int, r interval.Itv) {
		d := rational.QInt(sigma[j] - sigma[i])
		if !r.Contains(d) {
			ok = false
		}
	})
	return ok
}
