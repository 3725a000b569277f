package shostak

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"luf/internal/rational"
)

// refExp is the map-backed LinExp the sorted-term one replaced, kept
// as FuzzLinExp's reference: one coefficient map, cloned on every
// operation, no zero coefficients.
type refExp struct {
	coeffs map[Var]rational.Q
	Const  rational.Q
}

func refConst(c rational.Q) refExp { return refExp{coeffs: map[Var]rational.Q{}, Const: c} }

func refMonomial(c rational.Q, v Var) refExp {
	if c.Sign() == 0 {
		return refConst(rational.Q{})
	}
	return refExp{coeffs: map[Var]rational.Q{v: c}}
}

func (e refExp) Coeff(v Var) rational.Q { return e.coeffs[v] }

func (e refExp) Vars() []Var {
	out := make([]Var, 0, len(e.coeffs))
	for v := range e.coeffs {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func (e refExp) clone() refExp {
	m := make(map[Var]rational.Q, len(e.coeffs))
	for v, c := range e.coeffs {
		m[v] = c
	}
	return refExp{coeffs: m, Const: e.Const}
}

func (e refExp) Add(f refExp) refExp {
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

func (e refExp) Scale(k rational.Q) refExp {
	if k.Sign() == 0 {
		return refConst(rational.Q{})
	}
	out := refExp{coeffs: make(map[Var]rational.Q, len(e.coeffs)), Const: e.Const.Mul(k)}
	for v, c := range e.coeffs {
		out.coeffs[v] = c.Mul(k)
	}
	return out
}

func (e refExp) Sub(f refExp) refExp { return e.Add(f.Scale(rational.QInt(-1))) }

func (e refExp) AddConst(c rational.Q) refExp {
	out := e.clone()
	out.Const = out.Const.Add(c)
	return out
}

func (e refExp) Subst(v Var, def refExp) refExp {
	c, ok := e.coeffs[v]
	if !ok {
		return e
	}
	out := e.clone()
	delete(out.coeffs, v)
	return refExp{coeffs: out.coeffs, Const: out.Const}.Add(def.Scale(c))
}

func (e refExp) Eq(f refExp) bool {
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

func (e refExp) Key() string {
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

func (e refExp) TermKey() string {
	var sb strings.Builder
	for _, v := range e.Vars() {
		sb.WriteString(strconv.Itoa(v))
		sb.WriteByte('*')
		sb.WriteString(e.coeffs[v].Key())
		sb.WriteByte('+')
	}
	return sb.String()
}

func (e refExp) Eval(sigma map[Var]rational.Q) rational.Q {
	acc := e.Const
	for v, c := range e.coeffs {
		acc = acc.Add(c.Mul(sigma[v]))
	}
	return acc
}

func (e refExp) String() string {
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

// byteReader hands out fuzz input bytes, then zeros.
type byteReader []byte

func (r *byteReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// rat decodes a small rational, zero included; a set high bit scales it
// past 2⁶², so products and sums overflow into the big form.
func (r *byteReader) rat() rational.Q {
	b := r.next()
	q := rational.QFrac(int64(b&7)-3, int64(b>>3&3)+1)
	if b&0x80 != 0 {
		q = q.Mul(rational.QInt(1 << 62))
	}
	return q
}

// variable decodes a variable in [-2, 8).
func (r *byteReader) variable() Var { return Var(r.next()%10) - 2 }

// FuzzLinExp runs random Add/Sub/Scale/AddConst/Subst chains on the
// sorted-term LinExp and the map-backed reference side by side, and
// checks every observer agrees after every step.
func FuzzLinExp(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 9, 2, 4, 5, 6, 7, 8})
	f.Add([]byte{0, 0x81, 3, 0, 0x92, 4, 2, 6, 1, 3, 7, 5, 0xff, 2})
	f.Add([]byte{6, 0, 1, 0, 2, 3, 1, 5, 0, 9, 9, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := byteReader(data)
		exps := []LinExp{NewLinExp(rational.Q{})}
		refs := []refExp{refConst(rational.Q{})}
		pick := func() int { return int(r.next()) % len(exps) }
		sigma := map[Var]rational.Q{}
		for v := Var(-2); v < 8; v++ {
			sigma[v] = rational.QFrac(int64(v)*3+1, 2)
		}
		for step := 0; len(r) > 0 && step < 64; step++ {
			var e LinExp
			var ref refExp
			switch op := r.next() % 8; op {
			case 0:
				c, v := r.rat(), r.variable()
				e, ref = Monomial(c, v), refMonomial(c, v)
			case 1:
				c := r.rat()
				e, ref = NewLinExp(c), refConst(c)
			case 2, 3:
				i, j := pick(), pick()
				if op == 2 {
					e, ref = exps[i].Add(exps[j]), refs[i].Add(refs[j])
				} else {
					e, ref = exps[i].Sub(exps[j]), refs[i].Sub(refs[j])
				}
			case 4:
				i, k := pick(), r.rat()
				e, ref = exps[i].Scale(k), refs[i].Scale(k)
			case 5:
				i, c := pick(), r.rat()
				e, ref = exps[i].AddConst(c), refs[i].AddConst(c)
			case 6:
				i, j, v := pick(), pick(), r.variable()
				e, ref = exps[i].Subst(v, exps[j]), refs[i].Subst(v, refs[j])
			case 7:
				v := r.variable()
				e, ref = VarExp(v), refMonomial(rational.QInt(1), v)
			}
			exps, refs = append(exps, e), append(refs, ref)
			// Operands must be left untouched: re-check all of them.
			for i := range exps {
				agree(t, exps[i], refs[i], sigma)
				if exps[i].Eq(e) != refs[i].Eq(ref) {
					t.Fatalf("Eq(%s, %s) disagrees", refs[i], ref)
				}
			}
		}
	})
}

// agree fails unless e and ref read the same through every observer.
func agree(t *testing.T, e LinExp, ref refExp, sigma map[Var]rational.Q) {
	t.Helper()
	want := ref.String()
	if got := e.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if !slices.Equal(e.Vars(), ref.Vars()) || e.Len() != len(ref.coeffs) || e.IsConst() != (len(ref.coeffs) == 0) {
		t.Fatalf("%s: Vars = %v, want %v", want, e.Vars(), ref.Vars())
	}
	for i := range e.Len() {
		if v, c := e.Term(i); !c.Eq(ref.Coeff(v)) {
			t.Fatalf("%s: Term(%d) = %s·x%d", want, i, c, v)
		}
	}
	for v := Var(-3); v < 9; v++ {
		if !e.Coeff(v).Eq(ref.Coeff(v)) {
			t.Fatalf("%s: Coeff(x%d) = %s", want, v, e.Coeff(v))
		}
	}
	if e.Key() != ref.Key() || e.TermKey() != ref.TermKey() {
		t.Fatalf("%s: Key %q / TermKey %q, want %q / %q", want, e.Key(), e.TermKey(), ref.Key(), ref.TermKey())
	}
	if !e.Const.Eq(ref.Const) || !e.Eval(sigma).Eq(ref.Eval(sigma)) {
		t.Fatalf("%s: Const %s, Eval %s, want %s", want, e.Const, e.Eval(sigma), ref.Eval(sigma))
	}
}
