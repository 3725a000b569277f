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

// LinExp is a linear expression Σ coeff_i · x_i + Const over the
// rationals, in canonical form: no zero coefficients. LinExps are
// immutable; all operations return fresh values.
type LinExp struct {
	coeffs map[Var]rational.Q
	Const  rational.Q
}

// NewLinExp returns the constant expression c.
func NewLinExp(c rational.Q) LinExp {
	return LinExp{coeffs: map[Var]rational.Q{}, Const: c}
}

// VarExp returns the expression 1·v.
func VarExp(v Var) LinExp {
	return LinExp{coeffs: map[Var]rational.Q{v: rational.QInt(1)}}
}

// Monomial returns the expression c·v.
func Monomial(c rational.Q, v Var) LinExp {
	if c.Sign() == 0 {
		return NewLinExp(rational.Q{})
	}
	return LinExp{coeffs: map[Var]rational.Q{v: c}}
}

// Coeff returns the coefficient of v (zero if absent).
func (e LinExp) Coeff(v Var) rational.Q { return e.coeffs[v] }

// Vars returns the variables with non-zero coefficients, ascending.
func (e LinExp) Vars() []Var {
	out := make([]Var, 0, len(e.coeffs))
	for v := range e.coeffs {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// IsConst reports whether the expression has no variables.
func (e LinExp) IsConst() bool { return len(e.coeffs) == 0 }

// clone returns a deep copy of the coefficient map.
func (e LinExp) clone() LinExp {
	m := make(map[Var]rational.Q, len(e.coeffs))
	for v, c := range e.coeffs {
		m[v] = c
	}
	return LinExp{coeffs: m, Const: e.Const}
}

// Add returns e + f.
func (e LinExp) Add(f LinExp) LinExp {
	out := e.clone()
	for v, c := range f.coeffs {
		nc := out.Coeff(v).Add(c)
		if nc.Sign() == 0 {
			delete(out.coeffs, v)
		} else {
			out.coeffs[v] = nc
		}
	}
	out.Const = out.Const.Add(f.Const)
	return out
}

// Scale returns k · e.
func (e LinExp) Scale(k rational.Q) LinExp {
	if k.Sign() == 0 {
		return NewLinExp(rational.Q{})
	}
	out := LinExp{coeffs: make(map[Var]rational.Q, len(e.coeffs)), Const: e.Const.Mul(k)}
	for v, c := range e.coeffs {
		out.coeffs[v] = c.Mul(k)
	}
	return out
}

// Sub returns e - f.
func (e LinExp) Sub(f LinExp) LinExp { return e.Add(f.Scale(rational.QInt(-1))) }

// AddConst returns e + c.
func (e LinExp) AddConst(c rational.Q) LinExp {
	out := e.clone()
	out.Const = out.Const.Add(c)
	return out
}

// Subst returns e with v replaced by def.
func (e LinExp) Subst(v Var, def LinExp) LinExp {
	c, ok := e.coeffs[v]
	if !ok {
		return e
	}
	out := e.clone()
	delete(out.coeffs, v)
	return LinExp{coeffs: out.coeffs, Const: out.Const}.Add(def.Scale(c))
}

// Eq reports structural equality of canonical forms.
func (e LinExp) Eq(f LinExp) bool {
	if len(e.coeffs) != len(f.coeffs) || !e.Const.Eq(f.Const) {
		return false
	}
	for v, c := range e.coeffs {
		fc, ok := f.coeffs[v]
		if !ok || !c.Eq(fc) {
			return false
		}
	}
	return true
}

// Key returns a canonical string for the whole expression.
func (e LinExp) Key() string {
	var sb strings.Builder
	for _, v := range e.Vars() {
		sb.WriteString(strconv.Itoa(v))
		sb.WriteByte('*')
		sb.WriteString(e.coeffs[v].Key())
		sb.WriteByte('+')
	}
	sb.WriteString(e.Const.Key())
	return sb.String()
}

// TermKey returns the canonical string of the non-constant part only —
// the canon_rel projection of Section 6.2: two expressions share a TermKey
// exactly when they differ by a constant.
func (e LinExp) TermKey() string {
	var sb strings.Builder
	for _, v := range e.Vars() {
		sb.WriteString(strconv.Itoa(v))
		sb.WriteByte('*')
		sb.WriteString(e.coeffs[v].Key())
		sb.WriteByte('+')
	}
	return sb.String()
}

// Eval evaluates the expression under a valuation.
func (e LinExp) Eval(sigma map[Var]rational.Q) rational.Q {
	acc := e.Const
	for v, c := range e.coeffs {
		acc = acc.Add(c.Mul(sigma[v]))
	}
	return acc
}

// String renders the expression with variables as x<i>.
func (e LinExp) String() string {
	var sb strings.Builder
	one := rational.QInt(1)
	for i, v := range e.Vars() {
		c := e.coeffs[v]
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
		sb.WriteString("x" + strconv.Itoa(v))
	}
	switch {
	case len(e.coeffs) == 0:
		return e.Const.Key()
	case e.Const.Sign() > 0:
		sb.WriteString(" + " + e.Const.Key())
	case e.Const.Sign() < 0:
		sb.WriteString(" - " + e.Const.Neg().Key())
	}
	return sb.String()
}
