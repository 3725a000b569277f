// Package factor implements the reduced products of labeled union-find
// with other abstractions:
//
//   - map factorization (Section 5.2, Figure 3): a non-relational value map
//     stored only at class representatives, transported by a group action —
//     as precise as full constraint propagation when the action is exact
//     (Theorems 5.2 and 5.6), at a fraction of the cost;
//   - equality detection (Section 6.1, Figure 6): discovering id# relations
//     eagerly via label→variable tries attached to relational classes;
//   - constraint factorization of weakly-relational domains (Figure 3):
//     quotienting an interval-difference graph by the relational classes of
//     a constant-difference union-find.
package factor

import (
	"luf/internal/core"
	"luf/internal/domain"
	"luf/internal/group"
	"luf/internal/interval"
	"luf/internal/rational"
	"luf/internal/wrel"
)

// TVPEMap is a factorized value map over TVPE relations: program variables
// are related by y = a·x + b constraints in a labeled union-find, and a
// single interval × congruence value is stored per relational class
// (Section 7.2's configuration). Conflicting relations are resolved as in
// Section 3.2: intersecting lines pin both variables to the intersection
// point; parallel lines make the state ⊥.
type TVPEMap[N comparable] struct {
	Info   *core.InfoUF[N, group.Affine, domain.IC]
	g      group.TVPE
	bottom bool
	// LastConflict captures the first pair of *parallel* conflicting
	// relations (the unsatisfiable case of Section 3.2), with the reason
	// of the rejected assertion in its Reason — the raw material of a
	// Conflict certificate. Intersecting conflicts are resolved, not
	// captured. The reason is empty outside recording mode, where
	// callers such as the §7.2 analyzer pass none.
	LastConflict *core.Conflict[N, group.Affine]
}

// NewTVPEMap returns an empty factorized TVPE value map.
func NewTVPEMap[N comparable](opts ...core.Option[N, group.Affine]) *TVPEMap[N] {
	m := &TVPEMap[N]{g: group.TVPE{}}
	opts = append(opts, core.WithConflictHandler[N, group.Affine](m.onConflict))
	uf := core.New[N, group.Affine](m.g, opts...)
	m.Info = core.NewInfo[N, group.Affine, domain.IC](uf, domain.TVPEAction{})
	return m
}

// onConflict resolves a second relation on an already-related pair: two
// distinct lines through (σ(n), σ(m)) either intersect — giving exact
// values — or are parallel — making the state unsatisfiable.
func (m *TVPEMap[N]) onConflict(c core.Conflict[N, group.Affine]) {
	x, y, sat := group.Intersect(c.Old, c.New)
	if !sat {
		m.bottom = true
		if m.LastConflict == nil {
			m.LastConflict = &c
		}
		return
	}
	m.Info.AddInfo(c.N, domain.Const(x))
	m.Info.AddInfo(c.M, domain.Const(y))
}

// IsBottom reports whether a conflict proved unsatisfiability, or some
// class value is empty.
func (m *TVPEMap[N]) IsBottom() bool { return m.bottom }

// SetBottom marks the state unsatisfiable.
func (m *TVPEMap[N]) SetBottom() { m.bottom = true }

// Relate adds σ(m2) = l.A·σ(n) + l.B.
func (m *TVPEMap[N]) Relate(n, m2 N, l group.Affine) { m.Info.AddRelation(n, m2, l) }

// RelateReason is Relate carrying a reason string (an analyzer program
// point) for recording mode; the reason also tags LastConflict when
// this very assertion turns out parallel-contradictory. Outside
// recording mode nothing reads it, and the analyzer passes "".
func (m *TVPEMap[N]) RelateReason(n, m2 N, l group.Affine, reason string) {
	m.Info.AddRelationReason(n, m2, l, reason)
}

// Refine intersects n's value with v (stored at the representative).
func (m *TVPEMap[N]) Refine(n N, v domain.IC) {
	m.Info.AddInfo(n, v)
	if m.Info.GetInfo(n).IsBottom() {
		m.bottom = true
	}
}

// Value returns the abstract value of n.
func (m *TVPEMap[N]) Value(n N) domain.IC {
	if m.bottom {
		return domain.Bottom()
	}
	return m.Info.GetInfo(n)
}

// Relation returns the affine relation between two variables, if related.
func (m *TVPEMap[N]) Relation(n, m2 N) (group.Affine, bool) {
	return m.Info.GetRelation(n, m2)
}

// Quotient performs constraint factorization of an interval-difference
// weakly-relational graph by the relational classes of a constant-
// difference union-find (Figure 3): each constraint y - x ∈ [a;b] between
// variables is rebased onto the class representatives
// (ry - rx ∈ [a;b] + lx - ly, since σ(r) = σ(v) + l along v --l--> r),
// producing a graph over representatives only. Combined with the
// union-find it has the same concretization as the original graph, with
// one node per class instead of one per variable.
func Quotient(uf *core.UF[int, group.DeltaLabel], numVars int,
	constraints []DiffConstraint) (*wrel.Graph[interval.Itv], map[int]int) {
	// Index representatives densely.
	repIdx := make(map[int]int)
	for v := 0; v < numVars; v++ {
		r, _ := uf.Find(v)
		if _, ok := repIdx[r]; !ok {
			repIdx[r] = len(repIdx)
		}
	}
	q := wrel.NewGraph[interval.Itv](wrel.ItvDiff{}, len(repIdx))
	for _, c := range constraints {
		rx, lx := uf.Find(c.X)
		ry, ly := uf.Find(c.Y)
		// σ(y) - σ(x) = (σ(ry) - ly) - (σ(rx) - lx) ∈ [lo;hi]
		// ⟹ σ(ry) - σ(rx) ∈ [lo;hi] + ly - lx.
		shift := rational.QInt(ly - lx)
		itv := c.Rel.AddConst(shift)
		if rx == ry {
			// Intra-class constraint: either redundant or contradictory.
			if !itv.Contains(rational.Q{}) {
				q.SetBottom()
			}
			continue
		}
		q.Add(repIdx[rx], repIdx[ry], itv)
	}
	return q, repIdx
}

// DiffConstraint is a raw weakly-relational constraint σ(Y) - σ(X) ∈ Rel.
type DiffConstraint struct {
	X, Y int
	Rel  interval.Itv
}

// QuotientQuery recovers the constraint between two original variables
// from the factorized representation: compose the union-find labels with
// the representative-level relation.
func QuotientQuery(uf *core.UF[int, group.DeltaLabel], q *wrel.Graph[interval.Itv],
	repIdx map[int]int, x, y int) (interval.Itv, bool) {
	rx, lx := uf.Find(x)
	ry, ly := uf.Find(y)
	if rx == ry {
		// Exact difference from the labels: σ(y) - σ(x) = lx - ly.
		return interval.Const(rational.QInt(lx - ly)), true
	}
	r, ok := q.Get(repIdx[rx], repIdx[ry])
	if !ok {
		return interval.Top(), false
	}
	// σ(y) - σ(x) = (σ(ry) - σ(rx)) + lx - ly.
	return r.AddConst(rational.QInt(lx - ly)), true
}
