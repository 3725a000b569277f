// Package shostak implements a Shostak theory (Shostak 1984; Barrett et
// al. 2002) for linear rational arithmetic, extended with the canon_rel
// factoring of Section 6.2 of the paper: canonized right-hand sides are
// split into a term part and a constant-difference label, so that terms
// differing by a constant share a single stored definition and their
// relation lives in a labeled union-find. This is the machinery behind the
// LABELED-UF solver variant of Section 7.1.
package shostak

import (
	"sort"
	"strconv"
	"strings"

	"luf/internal/rational"
)

// Var is a variable identifier.
type Var = int

// term is one c·v summand of a LinExp.
type term struct {
	v Var
	c rational.Q
}

// LinExp is a linear expression Σ coeff_i · x_i + Const over the
// rationals, in canonical form: terms sorted by variable, no zero
// coefficients. LinExps are immutable (results may share the terms of
// an operand); all operations return fresh values.
type LinExp struct {
	terms []term
	Const rational.Q
}

// NewLinExp returns the constant expression c.
func NewLinExp(c rational.Q) LinExp { return LinExp{Const: c} }

// VarExp returns the expression 1·v.
func VarExp(v Var) LinExp { return Monomial(rational.QInt(1), v) }

// Monomial returns the expression c·v.
func Monomial(c rational.Q, v Var) LinExp {
	if c.Sign() == 0 {
		return LinExp{}
	}
	return LinExp{terms: []term{{v, c}}}
}

// Len returns the number of variables with non-zero coefficients.
func (e LinExp) Len() int { return len(e.terms) }

// Term returns the i-th variable in ascending order and its coefficient.
func (e LinExp) Term(i int) (Var, rational.Q) { return e.terms[i].v, e.terms[i].c }

// find returns the index of v's term and whether v has one.
func (e LinExp) find(v Var) (int, bool) {
	i := sort.Search(len(e.terms), func(i int) bool { return e.terms[i].v >= v })
	return i, i < len(e.terms) && e.terms[i].v == v
}

// Coeff returns the coefficient of v (zero if absent).
func (e LinExp) Coeff(v Var) rational.Q {
	if i, ok := e.find(v); ok {
		return e.terms[i].c
	}
	return rational.Q{}
}

// Vars returns the variables with non-zero coefficients, ascending.
func (e LinExp) Vars() []Var {
	out := make([]Var, len(e.terms))
	for i, t := range e.terms {
		out[i] = t.v
	}
	return out
}

// IsConst reports whether the expression has no variables.
func (e LinExp) IsConst() bool { return len(e.terms) == 0 }

// Add returns e + f.
func (e LinExp) Add(f LinExp) LinExp { return e.merge(-1, rational.QInt(1), f) }

// Scale returns k · e.
func (e LinExp) Scale(k rational.Q) LinExp { return LinExp{}.merge(-1, k, e) }

// Sub returns e - f.
func (e LinExp) Sub(f LinExp) LinExp { return e.merge(-1, rational.QInt(-1), f) }

// AddConst returns e + c.
func (e LinExp) AddConst(c rational.Q) LinExp {
	return LinExp{terms: e.terms, Const: e.Const.Add(c)}
}

// Subst returns e with v replaced by def.
func (e LinExp) Subst(v Var, def LinExp) LinExp {
	i, ok := e.find(v)
	if !ok {
		return e
	}
	return e.merge(i, e.terms[i].c, def)
}

// merge returns e + k·f without e's term at index skip (-1 keeps all):
// one pass over both sorted term lists.
func (e LinExp) merge(skip int, k rational.Q, f LinExp) LinExp {
	out := LinExp{Const: e.Const.Add(f.Const.Mul(k))}
	if k.Sign() == 0 || len(f.terms) == 0 {
		if skip < 0 {
			out.terms = e.terms
			return out
		}
		f = LinExp{}
	}
	if len(e.terms) == 0 && k.Eq(rational.QInt(1)) {
		out.terms = f.terms
		return out
	}
	ts := make([]term, 0, len(e.terms)+len(f.terms))
	i, j := 0, 0
	for i < len(e.terms) || j < len(f.terms) {
		switch {
		case i == skip:
			i++
		case j == len(f.terms) || (i < len(e.terms) && e.terms[i].v < f.terms[j].v):
			ts = append(ts, e.terms[i])
			i++
		case i == len(e.terms) || f.terms[j].v < e.terms[i].v:
			ts = append(ts, term{f.terms[j].v, f.terms[j].c.Mul(k)})
			j++
		default:
			if c := e.terms[i].c.Add(f.terms[j].c.Mul(k)); c.Sign() != 0 {
				ts = append(ts, term{e.terms[i].v, c})
			}
			i++
			j++
		}
	}
	if len(ts) > 0 {
		out.terms = ts
	}
	return out
}

// Eq reports structural equality of canonical forms.
func (e LinExp) Eq(f LinExp) bool {
	if len(e.terms) != len(f.terms) || !e.Const.Eq(f.Const) {
		return false
	}
	for i, t := range e.terms {
		if t.v != f.terms[i].v || !t.c.Eq(f.terms[i].c) {
			return false
		}
	}
	return true
}

// Key returns a canonical string for the whole expression.
func (e LinExp) Key() string { return e.TermKey() + e.Const.Key() }

// TermKey returns the canonical string of the non-constant part only —
// the canon_rel projection of Section 6.2: two expressions share a TermKey
// exactly when they differ by a constant.
func (e LinExp) TermKey() string {
	var sb strings.Builder
	for _, t := range e.terms {
		sb.WriteString(strconv.Itoa(t.v))
		sb.WriteByte('*')
		sb.WriteString(t.c.Key())
		sb.WriteByte('+')
	}
	return sb.String()
}

// Eval evaluates the expression under a valuation.
func (e LinExp) Eval(sigma map[Var]rational.Q) rational.Q {
	acc := e.Const
	for _, t := range e.terms {
		acc = acc.Add(t.c.Mul(sigma[t.v]))
	}
	return acc
}

// String renders the expression with variables as x<i>.
func (e LinExp) String() string {
	var sb strings.Builder
	one := rational.QInt(1)
	for i, t := range e.terms {
		c := t.c
		switch {
		case i > 0 && c.Sign() > 0:
			sb.WriteString(" + ")
		case i > 0:
			sb.WriteString(" - ")
			c = c.Neg()
		case c.Eq(one.Neg()):
			sb.WriteByte('-')
			c = one
		}
		if !c.Eq(one) {
			sb.WriteString(c.Key() + "*")
		}
		sb.WriteString("x" + strconv.Itoa(t.v))
	}
	switch {
	case len(e.terms) == 0:
		return e.Const.Key()
	case e.Const.Sign() > 0:
		sb.WriteString(" + " + e.Const.Key())
	case e.Const.Sign() < 0:
		sb.WriteString(" - " + e.Const.Neg().Key())
	}
	return sb.String()
}
