package shostak

import (
	"sort"

	"luf/internal/core"
	"luf/internal/group"
	"luf/internal/rational"
)

// Theory is the incremental Shostak solver state for linear rational
// arithmetic (Example 6.1): a substitution S mapping solved variables to
// definitions over unsolved ones, plus the canon_rel extension of
// Section 6.2 — a reverse map M from the *term part* of canonized
// definitions to a representative variable, and a labeled union-find Δ
// over constant-difference labels relating variables whose canonized
// definitions differ by a constant.
//
// Callbacks:
//   - OnNewRelation fires whenever two variables are discovered to satisfy
//     σ(b) = σ(a) + k (including k = 0: plain equality). The solver of
//     Section 7.1 listens to this to propagate value domains across the
//     relational class.
//   - Unsat fires when an equation is contradictory (e.g. 0 = 1).
type Theory struct {
	s             map[Var]LinExp // solved forms; lhs vars never appear in any rhs
	reverse       map[string]Var // TermKey of canonized definition -> representative var
	Delta         *core.UF[Var, rational.Q]
	OnNewRelation func(a, b Var, k rational.Q)
	unsat         bool
	// UseCanonRel selects between the canon_rel factoring (LABELED-UF) and
	// the plain full-key reverse map that only detects exact equalities
	// (the BASE behaviour).
	UseCanonRel bool
	// Reason tags relations pushed into Delta while it is set (certifying
	// callers set it to the current constraint id before each AssertEq,
	// and Delta runs in recording mode via core.WithRecorder).
	Reason string
	// LastConflict captures the first *relational* contradiction: two
	// different constant differences derived between the same pair of
	// variables. It is the raw material of a Conflict certificate. Nil
	// when unsatisfiability (if any) was arithmetic (e.g. 0 = 1), which
	// has no relational evidence chain.
	LastConflict *RelConflict
}

// RelConflict is a contradictory constant-difference derivation:
// Delta already implies σ(B) = σ(A) + Old, and the assertion tagged
// Reason would additionally require σ(B) = σ(A) + New with New ≠ Old.
type RelConflict struct {
	A, B     Var
	New, Old rational.Q
	Reason   string
}

// New returns an empty theory. useCanonRel selects the Section 6.2
// extension; with it disabled only exact syntactic equalities of canonized
// right-hand sides are detected (still through Delta, with label 0).
// Extra options are forwarded to the underlying union-find (the solver
// passes core.WithAudit when invariant checking is requested).
func New(useCanonRel bool, opts ...core.Option[Var, rational.Q]) *Theory {
	t := &Theory{
		s:           make(map[Var]LinExp),
		reverse:     make(map[string]Var),
		UseCanonRel: useCanonRel,
	}
	t.Delta = core.New[Var, rational.Q](group.QDiff{}, opts...)
	return t
}

// IsUnsat reports whether a contradictory equation was asserted.
func (t *Theory) IsUnsat() bool { return t.unsat }

// Canon returns the canonical form of e under the current substitution.
func (t *Theory) Canon(e LinExp) LinExp {
	for _, v := range e.Vars() {
		if def, ok := t.s[v]; ok {
			e = e.Subst(v, def)
		}
	}
	return e
}

// CanonRel returns canon_rel(e): the canonized term part and the constant
// label, with canon(e) = term + label (Section 6.2).
func (t *Theory) CanonRel(e LinExp) (LinExp, rational.Q) {
	c := t.Canon(e)
	k := c.Const
	return c.AddConst(k.Neg()), k
}

// Entails reports whether the asserted equations imply e1 = e2.
func (t *Theory) Entails(e1, e2 LinExp) bool {
	if t.unsat {
		return true
	}
	return t.Canon(e1).Eq(t.Canon(e2))
}

// Diff returns k such that the asserted equations imply e2 = e1 + k.
func (t *Theory) Diff(e1, e2 LinExp) (rational.Q, bool) {
	d := t.Canon(e2).Sub(t.Canon(e1))
	if !d.IsConst() {
		return rational.Q{}, false
	}
	return d.Const, true
}

// AssertEq asserts e1 = e2. It returns false when the theory becomes
// unsatisfiable.
func (t *Theory) AssertEq(e1, e2 LinExp) bool {
	if t.unsat {
		return false
	}
	// σ_i = solve(S_{i-1}(e_i)).
	e := t.Canon(e1.Sub(e2))
	if e.IsConst() {
		if e.Const.Sign() != 0 {
			t.unsat = true
			return false
		}
		return true // redundant
	}
	// solve: isolate the largest variable: c·v + rest = 0 ⟹ v = -rest/c.
	vars := e.Vars()
	v := vars[len(vars)-1]
	c := e.Coeff(v)
	def := e.Subst(v, NewLinExp(rational.Q{})).Scale(c.Inv().Neg())
	// S_i = σ_i(S_{i-1}) ∪ σ_i: substitute v in all existing definitions.
	for w, d := range t.s {
		if _, uses := d.coeffs[v]; uses {
			t.s[w] = d.Subst(v, def)
		}
	}
	t.s[v] = def
	// Rebuild the reverse map and push newly entailed relations: any two
	// solved variables whose canonized definitions now share a term part
	// are at constant difference (Section 6.2 / Example 6.2). With
	// UseCanonRel off, only full-key matches (exact equality) are related.
	// Index in ascending variable order, so the relations (and the
	// union-find's shape and certificates) do not depend on map order.
	t.reverse = make(map[string]Var)
	solved := make([]Var, 0, len(t.s))
	for w := range t.s {
		solved = append(solved, w)
	}
	sort.Ints(solved)
	for _, w := range solved {
		t.index(w, t.s[w])
	}
	return true
}

// index registers w's definition in the reverse map, emitting relations on
// collisions.
func (t *Theory) index(w Var, d LinExp) {
	var key string
	var k rational.Q
	if t.UseCanonRel {
		key = d.TermKey()
		k = d.Const
	} else {
		key = d.Key()
	}
	// A definition that collapses to a plain variable (x = y + k) relates
	// w to that variable directly as well.
	rep, seen := t.reverse[key]
	if !seen {
		t.reverse[key] = w
		// Special case: definition is exactly "var + const" — relate to
		// that variable too (it may not be solved itself). Without
		// canon_rel only plain equalities (const = 0) are detected.
		if vs := d.Vars(); len(vs) == 1 && d.Coeff(vs[0]).Eq(rational.QInt(1)) {
			if t.UseCanonRel || d.Const.Sign() == 0 {
				t.relate(vs[0], w, d.Const)
			}
		}
		return
	}
	// rep and w differ by a constant: σ(w) = σ(rep) + (k_w - k_rep).
	repDef := t.s[rep]
	var repK rational.Q
	if t.UseCanonRel {
		repK = repDef.Const
	}
	t.relate(rep, w, k.Sub(repK))
	if vs := d.Vars(); len(vs) == 1 && d.Coeff(vs[0]).Eq(rational.QInt(1)) {
		if t.UseCanonRel || d.Const.Sign() == 0 {
			t.relate(vs[0], w, d.Const)
		}
	}
}

// relate records σ(b) = σ(a) + k in Δ and fires the callback on new
// information.
func (t *Theory) relate(a, b Var, k rational.Q) {
	if a == b {
		return
	}
	if existing, ok := t.Delta.GetRelation(a, b); ok {
		if !existing.Eq(k) {
			// Two different constant differences between the same pair:
			// contradiction.
			t.unsat = true
			if t.LastConflict == nil {
				t.LastConflict = &RelConflict{A: a, B: b, New: k, Old: existing, Reason: t.Reason}
			}
		}
		return
	}
	t.Delta.AddRelationReason(a, b, k, t.Reason)
	if t.OnNewRelation != nil {
		t.OnNewRelation(a, b, k)
	}
}
