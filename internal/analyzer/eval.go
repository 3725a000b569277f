// Package analyzer implements the Section 7.2 abstract interpreter: a
// flow-sensitive interval × congruence analysis over SSA form, with
// up/down constraint propagation bounded by a configurable depth, and an
// optional labeled union-find TVPE domain with map factorization that
// mirrors the CODEX extension evaluated in the paper.
package analyzer

import (
	"luf/internal/cfg"
	"luf/internal/domain"
	"luf/internal/group"
	"luf/internal/interval"
	"luf/internal/lang"
	"luf/internal/rational"
)

// state is a flow-sensitive abstract environment, dense by SSA id: slot
// v holds v's value when its ok flag is set, and an unset slot means "not
// defined here". run() allocates every state once per run and reuses it;
// helpers mutate in place.
//
// Every value written into a state is reduced (domain.IC.Reduce returns
// it unchanged): the domain operations the analyzer uses all return
// reduced values. Reduced values make x ⊔ x = x and, for x ⊑ y, x ⊓ y = x,
// so join and refineValue skip those cases, and equal slots compare
// equal with == before Eq is needed.
type state []slot

// slot is one SSA value's binding in a state.
type slot struct {
	ok bool
	v  domain.IC
}

// auditWrite, when non-nil, sees every value written into a state; the
// tests use it to check that each one is reduced.
var auditWrite func(domain.IC)

// get returns the value of an SSA value in this state (⊤ integers for
// ids never constrained — uses are dominated by defs, so this only
// happens for undef placeholders).
func (s state) get(v int) domain.IC {
	if s[v].ok {
		return s[v].v
	}
	return domain.Integers()
}

// lookup returns v's binding and whether it is set.
func (s state) lookup(v int) (domain.IC, bool) { return s[v].v, s[v].ok }

// set binds v to x.
func (s state) set(v int, x domain.IC) {
	if auditWrite != nil {
		auditWrite(x)
	}
	s[v] = slot{ok: true, v: x}
}

// join merges o into s value-wise; ids bound on one side only keep that
// binding (they are defined on one path only and dead beyond it, but
// keeping them is sound because any use is dominated by a def).
func (s state) join(o state) {
	for i := range o {
		switch {
		case !o[i].ok || s[i] == o[i]:
		case s[i].ok:
			s[i].v = s[i].v.Join(o[i].v)
			if auditWrite != nil {
				auditWrite(s[i].v)
			}
		default:
			s[i] = o[i]
		}
	}
}

func statesEq(a, b state) bool {
	for i := range a {
		if a[i] != b[i] && (a[i].ok != b[i].ok || a[i].ok && !a[i].v.Eq(b[i].v)) {
			return false
		}
	}
	return true
}

// evalExpr evaluates an SSA expression to an abstract value.
func (a *analysis) evalExpr(s state, e cfg.Expr) domain.IC {
	switch e := e.(type) {
	case cfg.EConst:
		return domain.ConstInt(e.V)
	case cfg.EVar:
		return s.get(e.ID)
	case cfg.ENondet:
		return domain.Integers()
	case cfg.EUn:
		v := a.evalExpr(s, e.E)
		if e.Op == lang.OpNeg {
			return v.Neg()
		}
		// Logical not: {0, 1}.
		return boolRange()
	case cfg.EBin:
		if e.Op.IsComparison() || e.Op == lang.OpAnd || e.Op == lang.OpOr {
			return boolRange()
		}
		l := a.evalExpr(s, e.L)
		r := a.evalExpr(s, e.R)
		switch e.Op {
		case lang.OpAdd:
			return l.Add(r)
		case lang.OpSub:
			return l.Sub(r)
		case lang.OpMul:
			return l.Mul(r)
		case lang.OpDiv:
			return evalDiv(l, r)
		case lang.OpMod:
			return evalMod(l, r)
		}
	}
	return domain.Integers()
}

func boolRange() domain.IC {
	return domain.FromInterval(interval.RangeInt(0, 1)).MeetInt()
}

// evalDiv over-approximates C-style truncated division.
func evalDiv(l, r domain.IC) domain.IC {
	if l.IsBottom() || r.IsBottom() {
		return domain.Bottom()
	}
	if c, ok := r.IsConst(); ok && c.Sign() != 0 {
		// Truncated division by a constant is monotone (for the sign of c).
		lo, hi, ok := truncDivBound(l.I(), c)
		if !ok {
			return domain.Integers()
		}
		return domain.FromInterval(interval.Range(lo, hi)).MeetInt()
	}
	q, ok := l.I().Div(r.I())
	if !ok {
		return domain.Integers() // divisor may be 0; that path blocks anyway
	}
	// Rational quotient, then truncation moves at most 1 toward zero.
	q = q.AddConst(rational.QInt(-1))
	q = interval.Itv.Join(q, q.AddConst(rational.QInt(2)))
	return domain.FromInterval(q).MeetInt()
}

func truncDivBound(l interval.Itv, c rational.Q) (lo, hi rational.Q, ok bool) {
	if l.IsBottom() || l.LoInf || l.HiInf {
		return rational.Q{}, rational.Q{}, false
	}
	a := truncQ(l.Lo.Div(c))
	b := truncQ(l.Hi.Div(c))
	if a.Cmp(b) > 0 {
		a, b = b, a
	}
	return a, b, true
}

// truncQ truncates a rational toward zero.
func truncQ(r rational.Q) rational.Q {
	if r.Sign() >= 0 {
		return r.Floor()
	}
	return r.Ceil()
}

// evalMod over-approximates C-style remainder (sign of the dividend).
func evalMod(l, r domain.IC) domain.IC {
	if l.IsBottom() || r.IsBottom() {
		return domain.Bottom()
	}
	c, ok := r.IsConst()
	if !ok || c.Sign() == 0 {
		return domain.Integers()
	}
	bound := c.Abs().Sub(rational.QInt(1))
	lo, hi := bound.Neg(), bound
	itv := l.I()
	if !itv.IsBottom() && !itv.LoInf && itv.Lo.Sign() >= 0 {
		lo = rational.Q{}
	}
	if !itv.IsBottom() && !itv.HiInf && itv.Hi.Sign() <= 0 {
		hi = rational.Q{}
	}
	return domain.FromInterval(interval.Range(lo, hi)).MeetInt()
}

// affineOf decomposes e as a·v + b over a single SSA value; ok is false
// when e is not of that shape (or is constant: a = 0 is reported with
// v = -1).
func affineOf(e cfg.Expr) (v int, aa, bb rational.Q, ok bool) {
	var zero rational.Q
	switch e := e.(type) {
	case cfg.EConst:
		return -1, zero, rational.QInt(e.V), true
	case cfg.EVar:
		return e.ID, rational.QInt(1), zero, true
	case cfg.EUn:
		if e.Op != lang.OpNeg {
			return 0, zero, zero, false
		}
		v, a1, b1, ok := affineOf(e.E)
		if !ok {
			return 0, zero, zero, false
		}
		return v, a1.Neg(), b1.Neg(), true
	case cfg.EBin:
		switch e.Op {
		case lang.OpAdd, lang.OpSub:
			v1, a1, b1, ok1 := affineOf(e.L)
			v2, a2, b2, ok2 := affineOf(e.R)
			if !ok1 || !ok2 {
				return 0, zero, zero, false
			}
			if e.Op == lang.OpSub {
				a2, b2 = a2.Neg(), b2.Neg()
			}
			switch {
			case v1 == -1:
				return v2, a2, b1.Add(b2), true
			case v2 == -1:
				return v1, a1, b1.Add(b2), true
			case v1 == v2:
				return v1, a1.Add(a2), b1.Add(b2), true
			}
			return 0, zero, zero, false
		case lang.OpMul:
			v1, a1, b1, ok1 := affineOf(e.L)
			v2, a2, b2, ok2 := affineOf(e.R)
			if !ok1 || !ok2 {
				return 0, zero, zero, false
			}
			if v1 == -1 { // const * affine
				return v2, b1.Mul(a2), b1.Mul(b2), true
			}
			if v2 == -1 { // affine * const
				return v1, a1.Mul(b2), b1.Mul(b2), true
			}
			return 0, zero, zero, false
		}
	}
	return 0, zero, zero, false
}

// relDiff computes an abstract value of lhs - rhs from the labeled
// union-find relation between the underlying values, when both sides are
// affine over related, aligned values (the relational precision source);
// ok is false otherwise.
func (a *analysis) relDiff(s state, lhs, rhs cfg.Expr) (d domain.IC, ok bool) {
	if !a.cfgConf.UseLUF || a.luf == nil {
		return d, false
	}
	v1, a1, b1, ok1 := affineOf(lhs)
	v2, a2, b2, ok2 := affineOf(rhs)
	if !ok1 || !ok2 || v1 < 0 || v2 < 0 || !a.aligned(v1, v2) {
		return d, false
	}
	rel, ok := a.luf.Relation(v1, v2)
	if !ok {
		return d, false
	}
	// σ(v2) = rel.A·σ(v1) + rel.B:
	// lhs - rhs = (a1 - a2·rel.A)·σ(v1) + b1 - a2·rel.B - b2.
	coef := a1.Sub(a2.Mul(rel.A))
	off := b1.Sub(a2.Mul(rel.B)).Sub(b2)
	if coef.Sign() == 0 {
		return domain.Const(off), true
	}
	return s.get(v1).MulConst(coef).AddConst(off), true
}

// kleene is a three-valued truth.
type kleene int

// Three-valued logic constants.
const (
	kUnknown kleene = iota
	kTrue
	kFalse
)

// not is three-valued negation.
func (k kleene) not() kleene {
	switch k {
	case kTrue:
		return kFalse
	case kFalse:
		return kTrue
	}
	return kUnknown
}

// negated maps each comparison to its negation.
var negated = [...]lang.Op{
	lang.OpEq: lang.OpNeq, lang.OpNeq: lang.OpEq,
	lang.OpLt: lang.OpGe, lang.OpGe: lang.OpLt,
	lang.OpLe: lang.OpGt, lang.OpGt: lang.OpLe,
}

// evalCond evaluates a boolean expression three-valuedly.
func (a *analysis) evalCond(s state, e cfg.Expr) kleene {
	switch e := e.(type) {
	case cfg.EConst:
		if e.V != 0 {
			return kTrue
		}
		return kFalse
	case cfg.EUn:
		if e.Op == lang.OpNot {
			return a.evalCond(s, e.E).not()
		}
	case cfg.EBin:
		switch e.Op {
		case lang.OpAnd:
			l, r := a.evalCond(s, e.L), a.evalCond(s, e.R)
			if l == kFalse || r == kFalse {
				return kFalse
			}
			if l == kTrue && r == kTrue {
				return kTrue
			}
			return kUnknown
		case lang.OpOr:
			l, r := a.evalCond(s, e.L), a.evalCond(s, e.R)
			if l == kTrue || r == kTrue {
				return kTrue
			}
			if l == kFalse && r == kFalse {
				return kFalse
			}
			return kUnknown
		case lang.OpEq, lang.OpNeq, lang.OpLt, lang.OpLe, lang.OpGt, lang.OpGe:
			d, ok := a.relDiff(s, e.L, e.R)
			if !ok {
				d = a.evalExpr(s, e.L).Sub(a.evalExpr(s, e.R))
			}
			return cmpKleene(e.Op, d)
		}
	}
	// Any other integer expression as a condition: nonzero test.
	v := a.evalExpr(s, e)
	if v.IsBottom() {
		return kUnknown
	}
	if c, ok := v.IsConst(); ok {
		if c.Sign() != 0 {
			return kTrue
		}
		return kFalse
	}
	if !v.Contains(rational.Q{}) {
		return kTrue
	}
	return kUnknown
}

// cmpKleene decides op from the abstract value of lhs - rhs. !=, >= and >
// are decided as the negations of ==, < and <=.
func cmpKleene(op lang.Op, d domain.IC) kleene {
	if d.IsBottom() {
		return kUnknown // unreachable state; caller handles
	}
	itv := d.I()
	switch op {
	case lang.OpNeq, lang.OpGe, lang.OpGt:
		return cmpKleene(negated[op], d).not()
	case lang.OpEq:
		if c, ok := d.IsConst(); ok && c.Sign() == 0 {
			return kTrue
		}
		if !d.Contains(rational.Q{}) {
			return kFalse
		}
	case lang.OpLt:
		if !itv.HiInf && itv.Hi.Sign() < 0 {
			return kTrue
		}
		if !itv.LoInf && itv.Lo.Sign() >= 0 {
			return kFalse
		}
	case lang.OpLe:
		if !itv.HiInf && itv.Hi.Sign() <= 0 {
			return kTrue
		}
		if !itv.LoInf && itv.Lo.Sign() > 0 {
			return kFalse
		}
	}
	return kUnknown
}

// refineCond refines s assuming e evaluates to holds; it reports false
// when that is infeasible (state becomes ⊥). Depth-limited up/down
// propagation runs on every refined value.
func (a *analysis) refineCond(s state, e cfg.Expr, holds bool) bool {
	switch c := e.(type) {
	case cfg.EUn:
		if c.Op == lang.OpNot {
			return a.refineCond(s, c.E, !holds)
		}
	case cfg.EBin:
		switch {
		case c.Op == lang.OpAnd || c.Op == lang.OpOr:
			// "a∧b holds" and "a∨b fails" refine both sides. Otherwise
			// one side is refined only when the other surely has the
			// opposite value.
			if (c.Op == lang.OpAnd) == holds {
				return a.refineCond(s, c.L, holds) && a.refineCond(s, c.R, holds)
			}
			opposite := kTrue
			if holds {
				opposite = kFalse
			}
			if a.evalCond(s, c.L) == opposite {
				return a.refineCond(s, c.R, holds)
			}
			if a.evalCond(s, c.R) == opposite {
				return a.refineCond(s, c.L, holds)
			}
			return a.evalCond(s, e) != opposite
		case c.Op.IsComparison():
			return a.refineCmp(s, c.Op, c.L, c.R, holds)
		}
	}
	// Generic truthiness: e != 0.
	return a.refineCmp(s, lang.OpNeq, e, cfg.EConst{V: 0}, holds)
}

// refineCmp refines s assuming the comparison lhs op rhs evaluates to
// holds. Both sides are refined when they are affine in a single value.
func (a *analysis) refineCmp(s state, op lang.Op, lhs, rhs cfg.Expr, holds bool) bool {
	if !holds {
		op = negated[op]
	}
	l := a.evalExpr(s, lhs)
	r := a.evalExpr(s, rhs)
	d, ok := a.relDiff(s, lhs, rhs)
	if !ok {
		d = l.Sub(r)
	}
	if cmpKleene(op, d) == kFalse {
		return false
	}
	// Target intervals for each side given the other.
	lTarget, rTarget := cmpTargets(op, l, r)
	okL := a.refineAffineSide(s, lhs, lTarget)
	okR := a.refineAffineSide(s, rhs, rTarget)
	return okL && okR
}

// cmpTargets returns the constraint each side must satisfy given the
// current value of the other side (integer semantics: strict bounds shift
// by one).
func cmpTargets(op lang.Op, l, r domain.IC) (domain.IC, domain.IC) {
	top := domain.Integers()
	switch op {
	case lang.OpEq:
		return r, l
	case lang.OpNeq:
		// Refine only against singleton endpoints.
		return trimNeq(l, r), trimNeq(r, l)
	case lang.OpLt:
		return atMostIC(r, -1), atLeastIC(l, 1)
	case lang.OpLe:
		return atMostIC(r, 0), atLeastIC(l, 0)
	case lang.OpGt:
		return atLeastIC(r, 1), atMostIC(l, -1)
	case lang.OpGe:
		return atLeastIC(r, 0), atMostIC(l, 0)
	}
	return top, top
}

// atMostIC returns (-∞, hi(v) + off] as a constraint.
func atMostIC(v domain.IC, off int64) domain.IC {
	itv := v.I()
	if itv.IsBottom() || itv.HiInf {
		return domain.Integers()
	}
	return domain.FromInterval(interval.AtMost(itv.Hi.Add(rational.QInt(off))))
}

// atLeastIC returns [lo(v) + off, +∞) as a constraint.
func atLeastIC(v domain.IC, off int64) domain.IC {
	itv := v.I()
	if itv.IsBottom() || itv.LoInf {
		return domain.Integers()
	}
	return domain.FromInterval(interval.AtLeast(itv.Lo.Add(rational.QInt(off))))
}

// trimNeq trims an endpoint of cur equal to the other side's constant.
func trimNeq(cur, other domain.IC) domain.IC {
	c, ok := other.IsConst()
	itv := cur.I()
	if !ok || itv.IsBottom() {
		return domain.Integers()
	}
	one := rational.QInt(1)
	if !itv.LoInf && itv.Lo.Eq(c) {
		if itv.HiInf {
			return domain.FromInterval(interval.AtLeast(c.Add(one))).MeetInt()
		}
		return domain.FromInterval(interval.Range(c.Add(one), itv.Hi)).MeetInt()
	}
	if !itv.HiInf && itv.Hi.Eq(c) {
		if itv.LoInf {
			return domain.FromInterval(interval.AtMost(c.Sub(one))).MeetInt()
		}
		return domain.FromInterval(interval.Range(itv.Lo, c.Sub(one))).MeetInt()
	}
	return domain.Integers()
}

// refineAffineSide refines the single value underlying an affine
// expression so that the expression lies in target.
func (a *analysis) refineAffineSide(s state, e cfg.Expr, target domain.IC) bool {
	v, coef, off, ok := affineOf(e)
	if !ok || v < 0 || coef.Sign() == 0 {
		return true // nothing refinable
	}
	// coef·v + off ∈ target  ⟹  v ∈ (target - off) / coef.
	want := target.IntPreimage(coef, off)
	return a.refineValue(s, v, want, a.cfgConf.PropagationDepth)
}

// refineValue meets value v with want and, on change, runs depth-limited
// up/down propagation (the CODEX propagation of Section 7.2) and
// relational-class propagation when the LUF domain is enabled.
func (a *analysis) refineValue(s state, v int, want domain.IC, depth int) bool {
	if a.guard.Step(1) != nil {
		// Budget exhausted mid-propagation: stop refining. This is
		// sound (refinements only tighten); run() degrades to ⊤ at the
		// next loop-level check.
		return true
	}
	old := s.get(v)
	if old.Leq(want) {
		return !old.IsBottom() // old is reduced, so old ⊓ want = old
	}
	nv := old.Meet(want)
	if nv.Eq(old) {
		return !nv.IsBottom()
	}
	s.set(v, nv)
	if nv.IsBottom() {
		return false
	}
	if depth <= 0 {
		return true
	}
	ok := true
	// Relational-class propagation: transport the refinement to every
	// member of v's class (Section 5.2 applied flow-sensitively; the
	// relation is universally valid, so refining within a state is sound).
	// Propagation adds no relation, so v's label to its root holds for
	// the whole walk.
	if a.cfgConf.UseLUF && a.luf != nil {
		info, tvpe := a.luf.Info, group.TVPE{}
		root, lv := info.Find(v)
		info.ForClass(root, func(m int) {
			if m == v || !a.aligned(v, m) {
				return
			}
			_, lm := info.Find(m)
			rel := tvpe.Compose(lv, tvpe.Inverse(lm)) // v --rel--> m
			if !a.refineValue(s, m, s.get(v).ApplyAffine(rel), depth-1) {
				ok = false
			}
		})
	}
	// Upwards: v := f(operands) — refine operands so f stays in nv.
	if def := a.defs[v]; def != nil {
		if w, coef, off, okA := affineOf(def); okA && w >= 0 && coef.Sign() != 0 && a.aligned(v, w) {
			wantW := s.get(v).IntPreimage(coef, off)
			if !a.refineValue(s, w, wantW, depth-1) {
				ok = false
			}
		}
	}
	// Downwards: users of v recompute their defining expression.
	for _, u := range a.users[v] {
		if !a.aligned(v, u) {
			continue
		}
		if def := a.defs[u]; def != nil {
			if !a.refineValue(s, u, a.evalExpr(s, def), depth-1) {
				ok = false
			}
		}
	}
	return ok
}
