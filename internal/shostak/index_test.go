package shostak

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"luf/internal/cert"
	"luf/internal/core"
	"luf/internal/group"
	"luf/internal/rational"
)

// rebuildTheory is the theory as it was before M was kept across
// equations: the substitution in a plain map, and M rebuilt from scratch
// in ascending variable order after every equation. It is
// FuzzCanonRelIndex's oracle. Relations go through the embedded Theory's
// relate, so Δ, the callback and the conflict capture are shared code.
type rebuildTheory struct {
	*Theory
	defs    map[Var]LinExp
	reverse map[string]Var
}

func (o *rebuildTheory) canon(e LinExp) LinExp {
	for _, v := range e.Vars() {
		if def, ok := o.defs[v]; ok {
			e = e.Subst(v, def)
		}
	}
	return e
}

// assertEq is the rebuilding AssertEq. It returns !unsat, the documented
// contract (the rebuilding code returned true after a relational
// conflict found by the re-index).
func (o *rebuildTheory) assertEq(e1, e2 LinExp) bool {
	if o.unsat {
		return false
	}
	e := o.canon(e1.Sub(e2))
	if e.IsConst() {
		if e.Const.Sign() != 0 {
			o.unsat = true
			return false
		}
		return true
	}
	vars := e.Vars()
	v := vars[len(vars)-1]
	c := e.Coeff(v)
	def := e.Subst(v, NewLinExp(rational.Q{})).Scale(c.Inv().Neg())
	for w, d := range o.defs {
		if d.Coeff(v).Sign() != 0 {
			o.defs[w] = d.Subst(v, def)
		}
	}
	o.defs[v] = def
	o.reverse = make(map[string]Var)
	solved := make([]Var, 0, len(o.defs))
	for w := range o.defs {
		solved = append(solved, w)
	}
	sort.Ints(solved)
	for _, w := range solved {
		o.index(w, o.defs[w])
	}
	return !o.unsat
}

func (o *rebuildTheory) index(w Var, d LinExp) {
	var key string
	var k rational.Q
	if o.UseCanonRel {
		key = d.TermKey()
		k = d.Const
	} else {
		key = d.Key()
	}
	rep, seen := o.reverse[key]
	if !seen {
		o.reverse[key] = w
		if vs := d.Vars(); len(vs) == 1 && d.Coeff(vs[0]).Eq(rational.QInt(1)) {
			if o.UseCanonRel || d.Const.Sign() == 0 {
				o.relate(vs[0], w, d.Const)
			}
		}
		return
	}
	var repK rational.Q
	if o.UseCanonRel {
		repK = o.defs[rep].Const
	}
	o.relate(rep, w, k.Sub(repK))
	if vs := d.Vars(); len(vs) == 1 && d.Coeff(vs[0]).Eq(rational.QInt(1)) {
		if o.UseCanonRel || d.Const.Sign() == 0 {
			o.relate(vs[0], w, d.Const)
		}
	}
}

// recorded is a theory in recording mode with its journal and the log
// of its OnNewRelation calls.
type recorded struct {
	th  *Theory
	j   *cert.Journal[Var, rational.Q]
	log []string
}

func newRecorded(canonRel bool) *recorded {
	r := &recorded{j: cert.NewJournal[Var, rational.Q](group.QDiff{})}
	r.th = New(canonRel, core.WithRecorder[Var, rational.Q](r.j.Record))
	r.th.OnNewRelation = func(a, b Var, k rational.Q) {
		r.log = append(r.log, fmt.Sprintf("x%d = x%d + %s", b, a, k))
	}
	return r
}

// certs renders Δ's certificates as the solver emits them: one per
// non-representative member, roots ascending, then the conflict's.
func (r *recorded) certs() []string {
	var out []string
	var roots []Var
	r.th.Delta.ForEachRing(func(n, _, _ Var, size int) {
		if root, _ := r.th.Delta.Find(n); root == n && size > 1 {
			roots = append(roots, n)
		}
	})
	slices.Sort(roots)
	for _, root := range roots {
		for _, m := range r.th.Delta.Class(root) {
			if m == root {
				continue
			}
			c, err := r.j.Explain(m, root)
			if err != nil {
				out = append(out, err.Error())
				continue
			}
			out = append(out, cert.Format(c, group.QDiff{}))
		}
	}
	if lc := r.th.LastConflict; lc != nil {
		c, err := r.j.ExplainConflict(lc.N, lc.M, lc.New, lc.Reason)
		if err != nil {
			out = append(out, err.Error())
		} else {
			out = append(out, cert.Format(c, group.QDiff{}))
		}
	}
	return out
}

// randLin decodes up to three terms over x0..x(n-1), small coefficients
// (zero included) and a small constant.
func randLin(r *byteReader, n int) LinExp {
	e := NewLinExp(rational.QInt(int64(r.next()%7) - 3))
	for range 1 + int(r.next()%3) {
		e = e.Add(Monomial(rational.QInt(int64(r.next()%5)-2), Var(r.next())%n))
	}
	return e
}

// FuzzCanonRelIndex checks the incremental canon_rel index against the
// from-scratch rebuild: random equation systems under both UseCanonRel
// values, with relations seeded straight into Δ (which later
// derivations may contradict), must give the same AssertEq results, the
// same OnNewRelation calls in the same order, the same LastConflict and
// IsUnsat, the same canonical forms and the same certificates.
func FuzzCanonRelIndex(f *testing.F) {
	// The shortest inputs found that fail when the definitions using the
	// solved variable keep their old keys, and when only the new
	// definition's group is walked; then offset families sharing a term
	// part, and seeded relations.
	f.Add([]byte("0100221100000200100"))
	f.Add([]byte("0200102010202020000000009"))
	f.Add([]byte{1, 5, 3, 2, 4, 0, 3, 1, 2, 3, 1, 0, 1, 4, 2, 2, 2, 4, 3, 0, 3, 0, 1, 2})
	f.Add([]byte{1, 1, 0, 2, 3, 2, 1, 3, 2, 0, 1, 3, 0, 2, 0, 3, 1, 3, 0, 2, 6, 1, 3, 1, 0, 0, 1, 3, 4})
	f.Add([]byte{0, 4, 1, 5, 1, 3, 0, 3, 1, 4, 1, 1, 5, 1, 3, 0, 3, 1, 4, 2, 4, 1, 3, 0, 3, 1, 4, 1})
	f.Add([]byte{1, 4, 1, 0, 2, 3, 0, 1, 3, 2, 1, 3, 6, 0, 2, 4, 3, 1, 1, 1, 0, 3, 2, 2, 4, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := byteReader(data)
		canonRel := r.next()&1 == 1
		n := 3 + int(r.next()%6)
		inc, ora := newRecorded(canonRel), newRecorded(canonRel)
		oracle := &rebuildTheory{Theory: ora.th, defs: map[Var]LinExp{}}
		for step := 0; len(r) > 0 && step < 24; step++ {
			inc.th.Reason = fmt.Sprintf("eq#%d", step)
			ora.th.Reason = inc.th.Reason
			if r.next()%5 == 0 {
				a, b, k := Var(r.next())%n, Var(r.next())%n, rational.QInt(int64(r.next()%5)-2)
				inc.th.Delta.AddRelationReason(a, b, k, "seed#"+inc.th.Reason)
				ora.th.Delta.AddRelationReason(a, b, k, "seed#"+inc.th.Reason)
				continue
			}
			e1, e2 := randLin(&r, n), randLin(&r, n)
			if got, want := inc.th.AssertEq(e1, e2), oracle.assertEq(e1, e2); got != want {
				t.Fatalf("step %d: AssertEq(%s, %s) = %v, rebuild %v", step, e1, e2, got, want)
			}
			if !slices.Equal(inc.log, ora.log) {
				t.Fatalf("step %d: relations\n%q\nrebuild\n%q", step, inc.log, ora.log)
			}
		}
		if inc.th.IsUnsat() != ora.th.IsUnsat() || !reflect.DeepEqual(inc.th.LastConflict, ora.th.LastConflict) {
			t.Fatalf("unsat %v / %+v, rebuild %v / %+v", inc.th.IsUnsat(), inc.th.LastConflict, ora.th.IsUnsat(), ora.th.LastConflict)
		}
		for v := range Var(n) {
			if got, want := inc.th.Canon(VarExp(v)), oracle.canon(VarExp(v)); !got.Eq(want) {
				t.Fatalf("canon(x%d) = %s, rebuild %s", v, got, want)
			}
		}
		if got, want := inc.certs(), ora.certs(); !slices.Equal(got, want) {
			t.Fatalf("certificates\n%q\nrebuild\n%q", got, want)
		}
	})
}
