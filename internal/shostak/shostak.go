package shostak

import (
	"slices"

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
	s map[Var]solved // solved forms; lhs vars never appear in any rhs
	// groups is M, kept across equations: index key -> the solved vars
	// whose definitions carry it, ascending; the first is the
	// representative. Both maps are allocated by the first solved equation.
	groups        map[string][]Var
	walk          []Var // scratch: members of the groups an equation grew
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
	// variables. Delta already implies N --Old--> M (σ(M) = σ(N) + Old),
	// and the assertion tagged Reason would add N --New--> M with
	// New ≠ Old. It is the raw material of a Conflict certificate. Nil
	// when unsatisfiability (if any) was arithmetic (e.g. 0 = 1), which
	// has no relational evidence chain.
	LastConflict *core.Conflict[Var, rational.Q]
}

// solved is a solved variable's definition and its cached index key
// (TermKey under UseCanonRel, Key otherwise).
type solved struct {
	def LinExp
	key string
}

// New returns an empty theory. useCanonRel selects the Section 6.2
// extension; with it disabled only exact syntactic equalities of canonized
// right-hand sides are detected (still through Delta, with label 0).
// Extra options are forwarded to the underlying union-find (the solver
// passes core.WithRecorder when it certifies or checks invariants).
func New(useCanonRel bool, opts ...core.Option[Var, rational.Q]) *Theory {
	return &Theory{UseCanonRel: useCanonRel, Delta: core.New[Var, rational.Q](group.QDiff{}, opts...)}
}

// IsUnsat reports whether a contradictory equation was asserted.
func (t *Theory) IsUnsat() bool { return t.unsat }

// Canon returns the canonical form of e under the current substitution.
func (t *Theory) Canon(e LinExp) LinExp {
	orig := e
	for i := range orig.Len() {
		v, _ := orig.Term(i)
		if d, ok := t.s[v]; ok {
			e = e.Subst(v, d.def)
		}
	}
	return e
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
	v, c := e.Term(e.Len() - 1)
	def := e.Subst(v, LinExp{}).Scale(c.Inv().Neg())
	if t.s == nil {
		t.s, t.groups = make(map[Var]solved), make(map[string][]Var)
	}
	// S_i = σ_i(S_{i-1}) ∪ σ_i: substitute v in the definitions that use
	// it, re-keying only those, and add v's own. A key names v exactly
	// when its definitions use v, so such a group moves out whole and its
	// key (naming a now solved variable) never returns.
	t.walk = t.walk[:0]
	for w, d := range t.s {
		if _, uses := d.def.find(v); uses {
			delete(t.groups, d.key)
			t.define(w, d.def.Subst(v, def))
		}
	}
	t.define(v, def)
	// Push newly entailed relations: any two solved variables whose
	// canonized definitions share a key are at constant difference
	// (Section 6.2 / Example 6.2); with UseCanonRel off, only full-key
	// matches (exact equality) are related. A from-scratch rebuild of M
	// in ascending variable order would relate every group; on a group
	// this equation did not grow, each of those relates is a no-op (the
	// same group made it in an earlier round, and Δ only grows). So only
	// the grown groups' members are walked, in the same ascending order,
	// and Δ sees the same effective unions in the same order.
	slices.Sort(t.walk)
	for _, w := range slices.Compact(t.walk) {
		t.index(w)
	}
	return !t.unsat
}

// define sets w's definition to d, adds w to the group of d's key and
// queues that group for the walk.
func (t *Theory) define(w Var, d LinExp) {
	key := d.Key()
	if t.UseCanonRel {
		key = d.TermKey()
	}
	t.s[w] = solved{def: d, key: key}
	g := t.groups[key]
	i, _ := slices.BinarySearch(g, w)
	g = slices.Insert(g, i, w)
	t.groups[key] = g
	t.walk = append(t.walk, g...)
}

// index emits the relations of w's definition: to the representative of
// its key group, and, for a definition that is exactly "var + const", to
// that variable (which may not be solved itself). Without canon_rel only
// plain equalities (const = 0) are detected.
func (t *Theory) index(w Var) {
	d := t.s[w].def
	var k rational.Q
	if t.UseCanonRel {
		k = d.Const
	}
	if rep := t.groups[t.s[w].key][0]; rep != w {
		// rep and w differ by a constant: σ(w) = σ(rep) + (k_w - k_rep).
		var repK rational.Q
		if t.UseCanonRel {
			repK = t.s[rep].def.Const
		}
		t.relate(rep, w, k.Sub(repK))
	}
	if d.Len() == 1 {
		if x, c := d.Term(0); c.Eq(rational.QInt(1)) && (t.UseCanonRel || d.Const.Sign() == 0) {
			t.relate(x, w, d.Const)
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
				t.LastConflict = &core.Conflict[Var, rational.Q]{N: a, M: b, New: k, Old: existing, Reason: t.Reason}
			}
		}
		return
	}
	t.Delta.AddRelationReason(a, b, k, t.Reason)
	if t.OnNewRelation != nil {
		t.OnNewRelation(a, b, k)
	}
}
