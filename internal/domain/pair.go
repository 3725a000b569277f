package domain

import (
	"luf/internal/congruence"
	"luf/internal/interval"
	"luf/internal/rational"
)

// pair is the general form of an IC: an interval over the rationals and a
// rational congruence. Every IC operation has its meaning defined here; the
// inline form (inline.go) computes the same pairs on int64 and falls back to
// these methods when an operand is general or an int64 step overflows.
type pair struct {
	I interval.Itv
	C congruence.Cong
}

func (a *pair) isBottom() bool { return a.I.IsBottom() || a.C.IsBottom() }

func (a *pair) isTop() bool { return a.I.IsTop() && a.C.IsTop() }

func (a *pair) isConst() (rational.Q, bool) {
	if v, ok := a.I.IsConst(); ok {
		return v, true
	}
	if v, ok := a.C.IsConst(); ok && a.I.Contains(v) {
		return v, true
	}
	return rational.Q{}, false
}

func (a *pair) contains(v rational.Q) bool { return a.I.Contains(v) && a.C.Contains(v) }

func (a *pair) eq(b *pair) bool {
	if a.isBottom() || b.isBottom() {
		return a.isBottom() == b.isBottom()
	}
	return a.I.Eq(b.I) && a.C.Eq(b.C)
}

func (a *pair) leq(b *pair) bool {
	if a.isBottom() {
		return true
	}
	if b.isBottom() {
		return false
	}
	return a.I.Leq(b.I) && a.C.Leq(b.C)
}

func (a *pair) reduce() pair {
	if a.isBottom() {
		return pair{}
	}
	// Under 0 + 1ℤ, integer bounds already lie on the lattice.
	if a.C.IsIntegers() && intBounds(a.I) {
		return collapse(a.I, a.C)
	}
	itv, ok := tighten(a.I, a.C)
	if !ok {
		return pair{}
	}
	return collapse(itv, a.C)
}

// collapse pairs a tightened interval with c, collapsing c to the
// singleton when itv is one.
func collapse(itv interval.Itv, c congruence.Cong) pair {
	if v, ok := itv.IsConst(); ok {
		if !c.Contains(v) {
			return pair{}
		}
		c = congruence.Const(v)
	}
	return pair{I: itv, C: c}
}

// intBounds reports whether every finite bound of a non-empty itv is an
// integer.
func intBounds(itv interval.Itv) bool {
	return (itv.LoInf || itv.Lo.IsInt()) && (itv.HiInf || itv.Hi.IsInt())
}

// tighten moves itv's finite bounds inwards onto the nearest members of
// c; ok is false when no member of c lies in itv.
func tighten(itv interval.Itv, c congruence.Cong) (interval.Itv, bool) {
	m, r, ok := c.Mod()
	if !ok {
		return itv, true
	}
	if m.Sign() == 0 {
		// Congruence is the singleton {r}.
		return interval.Const(r), itv.Contains(r)
	}
	if !itv.LoInf {
		// Smallest element of r + mℤ that is >= lo.
		k := itv.Lo.Sub(r).Div(m).Ceil()
		lo := r.Add(k.Mul(m))
		if itv.HiInf {
			itv = interval.AtLeast(lo)
		} else {
			itv = interval.Range(lo, itv.Hi)
		}
		if itv.IsBottom() {
			return itv, false
		}
	}
	if !itv.HiInf {
		k := itv.Hi.Sub(r).Div(m).Floor()
		hi := r.Add(k.Mul(m))
		if itv.LoInf {
			itv = interval.AtMost(hi)
		} else {
			itv = interval.Range(itv.Lo, hi)
		}
		if itv.IsBottom() {
			return itv, false
		}
	}
	return itv, true
}

func (a *pair) meet(b *pair) pair {
	p := pair{I: a.I.Meet(b.I), C: a.C.Meet(b.C)}
	return p.reduce()
}

func (a *pair) join(b *pair) pair {
	if a.isBottom() {
		return *b
	}
	if b.isBottom() {
		return *a
	}
	p := pair{I: a.I.Join(b.I), C: a.C.Join(b.C)}
	return p.reduce()
}

func (a *pair) widen(b *pair) pair {
	if a.isBottom() {
		return *b
	}
	if b.isBottom() {
		return *a
	}
	return pair{I: a.I.Widen(b.I), C: a.C.Widen(b.C)}
}

func (a *pair) addConst(c rational.Q) pair {
	return pair{I: a.I.AddConst(c), C: a.C.AddConst(c)}
}

func (a *pair) mulConst(c rational.Q) pair {
	return pair{I: a.I.MulConst(c), C: a.C.MulConst(c)}
}

func (a *pair) neg() pair { return pair{I: a.I.Neg(), C: a.C.Neg()} }

func (a *pair) add(b *pair) pair {
	if a.isBottom() || b.isBottom() {
		return pair{}
	}
	p := pair{I: a.I.Add(b.I), C: a.C.Add(b.C)}
	return p.reduce()
}

func (a *pair) sub(b *pair) pair {
	if a.isBottom() || b.isBottom() {
		return pair{}
	}
	p := pair{I: a.I.Sub(b.I), C: a.C.Sub(b.C)}
	return p.reduce()
}

func (a *pair) mul(b *pair) pair {
	if a.isBottom() || b.isBottom() {
		return pair{}
	}
	p := pair{I: a.I.Mul(b.I), C: a.C.Mul(b.C)}
	return p.reduce()
}

func (a *pair) square() pair {
	if a.isBottom() {
		return pair{}
	}
	p := pair{I: a.I.Square(), C: a.C.Mul(a.C)}
	return p.reduce()
}

func (a *pair) meetInt() pair {
	out := pair{I: a.I, C: a.C.Meet(congruence.Integers())}
	out.I = out.I.Tighten()
	return out.reduce()
}

func (a *pair) limitWords(maxWords int) pair {
	return pair{I: a.I.LimitWords(maxWords), C: a.C}
}

func (a *pair) String() string {
	if a.isBottom() {
		return "⊥"
	}
	if a.C.IsTop() {
		return a.I.String()
	}
	return a.I.String() + "∧(" + a.C.String() + ")"
}
