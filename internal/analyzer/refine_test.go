package analyzer

import (
	"math/rand"
	"testing"

	"luf/internal/cfg"
	"luf/internal/domain"
	"luf/internal/fault"
	"luf/internal/interval"
	"luf/internal/lang"
	"luf/internal/rational"
)

// condBytes draws the fuzzer's choices from its input, reading 0 once
// the input is used up.
type condBytes []byte

func (b *condBytes) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// operand builds an expression over values 1..nv: a constant, a value,
// or an affine or two-value combination.
func (b *condBytes) operand(nv int) cfg.Expr {
	v := cfg.EVar{ID: 1 + b.next(nv)}
	c := cfg.EConst{V: int64(b.next(11) - 5)}
	switch b.next(6) {
	case 0:
		return c
	case 1:
		return v
	case 2:
		return cfg.EBin{Op: lang.OpAdd, L: v, R: c}
	case 3:
		return cfg.EBin{Op: lang.OpMul, L: c, R: v}
	case 4:
		return cfg.EUn{Op: lang.OpNeg, E: v}
	}
	return cfg.EBin{Op: lang.OpSub, L: v, R: cfg.EVar{ID: 1 + b.next(nv)}}
}

// cond builds a condition tree of comparisons, bare operands (truthiness
// tests), &&, || and !.
func (b *condBytes) cond(nv, depth int) cfg.Expr {
	cmps := []lang.Op{lang.OpEq, lang.OpNeq, lang.OpLt, lang.OpLe, lang.OpGt, lang.OpGe}
	k := b.next(10)
	if depth == 0 {
		k %= 7
	}
	switch {
	case k < 6:
		return cfg.EBin{Op: cmps[k], L: b.operand(nv), R: b.operand(nv)}
	case k == 6:
		return b.operand(nv)
	case k == 7:
		return cfg.EUn{Op: lang.OpNot, E: b.cond(nv, depth-1)}
	case k == 8:
		return cfg.EBin{Op: lang.OpAnd, L: b.cond(nv, depth-1), R: b.cond(nv, depth-1)}
	}
	return cfg.EBin{Op: lang.OpOr, L: b.cond(nv, depth-1), R: b.cond(nv, depth-1)}
}

// concrete evaluates e at the point p (indexed by value id) with mini-C
// semantics: comparisons and logical operators yield 0 or 1.
func concrete(e cfg.Expr, p []int64) int64 {
	switch e := e.(type) {
	case cfg.EConst:
		return e.V
	case cfg.EVar:
		return p[e.ID]
	case cfg.EUn:
		x := concrete(e.E, p)
		if e.Op == lang.OpNeg {
			return -x
		}
		return b2i(x == 0)
	case cfg.EBin:
		l, r := concrete(e.L, p), concrete(e.R, p)
		switch e.Op {
		case lang.OpAdd:
			return l + r
		case lang.OpSub:
			return l - r
		case lang.OpMul:
			return l * r
		case lang.OpEq:
			return b2i(l == r)
		case lang.OpNeq:
			return b2i(l != r)
		case lang.OpLt:
			return b2i(l < r)
		case lang.OpLe:
			return b2i(l <= r)
		case lang.OpGt:
			return b2i(l > r)
		case lang.OpGe:
			return b2i(l >= r)
		case lang.OpAnd:
			return b2i(l != 0 && r != 0)
		case lang.OpOr:
			return b2i(l != 0 || r != 0)
		}
	}
	panic("concrete: unsupported expression")
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// FuzzRefineCond checks the condition refiner's soundness on its own:
// 2–3 values bound to random intervals, a random condition tree over
// them, and a random truth value to assume. Every concrete point of the
// state on which the condition evaluates to that truth value must stay
// in the refined state, and then the refiner must not report the
// assumption infeasible.
func FuzzRefineCond(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		seed := make([]byte, 40)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := condBytes(data)
		nv := 2 + b.next(2)
		holds := b.next(2) == 1
		s := make(state, nv+1)
		lo, hi := make([]int64, nv+1), make([]int64, nv+1)
		for v := 1; v <= nv; v++ {
			lo[v] = int64(b.next(11) - 5)
			hi[v] = lo[v] + int64(b.next(5))
			s.set(v, domain.FromInterval(interval.RangeInt(lo[v], hi[v])).MeetInt())
		}
		e := b.cond(nv, 3)
		a := &analysis{
			cfgConf: Config{PropagationDepth: 1000},
			guard:   fault.NewGuard(fault.Limits{}),
			defs:    make([]cfg.Expr, nv+1),
			users:   make([][]int, nv+1),
			defBlk:  make([]int, nv+1),
		}
		feasible := a.refineCond(s, e, holds)
		// Walk every point of the box lo..hi.
		p := append([]int64(nil), lo...)
		for {
			if (concrete(e, p) != 0) == holds {
				if !feasible {
					t.Fatalf("assume %v = %v reported infeasible, but holds at %v", e, holds, p[1:])
				}
				for v := 1; v <= nv; v++ {
					if !s.get(v).Contains(rational.QInt(p[v])) {
						t.Fatalf("assume %v = %v: v%d refined to %s drops the point %v",
							e, holds, v, s.get(v), p[1:])
					}
				}
			}
			v := 1
			for ; v <= nv && p[v] == hi[v]; v++ {
				p[v] = lo[v]
			}
			if v > nv {
				break
			}
			p[v]++
		}
	})
}
