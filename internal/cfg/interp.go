package cfg

import (
	"fmt"

	"luf/internal/lang"
)

// RunSSA executes an SSA-form graph with the given nondet input stream and
// fuel, producing a result comparable with lang.Run on the original
// program: same trace of source-assignment values, same assertion/assume
// outcomes. It is the differential-testing oracle for SSA construction.
func RunSSA(g *Graph, inputs []int64, fuel int) lang.RunResult {
	res, _, _ := RunSSATrack(g, inputs, fuel)
	return res
}

// RunSSATrack is RunSSA but additionally returns the final value of every
// SSA value and a mask of which values were defined during the run — the
// observations the analyzer soundness fuzzing checks containment against.
func RunSSATrack(g *Graph, inputs []int64, fuel int) (res lang.RunResult, vals []int64, defined []bool) {
	if !g.InSSA {
		panic("cfg: RunSSATrack requires SSA form")
	}
	res = lang.RunResult{FailedAssert: -1}
	vals = make([]int64, g.NumVars)
	defined = make([]bool, g.NumVars)
	inIdx := 0
	var evalErr error

	var eval func(e Expr) int64
	eval = func(e Expr) int64 {
		if evalErr != nil {
			return 0
		}
		switch e := e.(type) {
		case EConst:
			return e.V
		case EVar:
			return vals[e.ID]
		case EUndef:
			return 0
		case ENondet:
			if inIdx < len(inputs) {
				v := inputs[inIdx]
				inIdx++
				return v
			}
			return 0
		case EUn:
			v := eval(e.E)
			if e.Op == lang.OpNeg {
				return -v
			}
			if v == 0 {
				return 1
			}
			return 0
		case EBin:
			if e.Op == lang.OpAnd || e.Op == lang.OpOr {
				l := eval(e.L)
				if e.Op == lang.OpAnd && l == 0 {
					return 0
				}
				if e.Op == lang.OpOr && l != 0 {
					return 1
				}
				if r := eval(e.R); r != 0 {
					return 1
				}
				return 0
			}
			l, r := eval(e.L), eval(e.R)
			if evalErr != nil {
				return 0
			}
			switch e.Op {
			case lang.OpAdd:
				return l + r
			case lang.OpSub:
				return l - r
			case lang.OpMul:
				return l * r
			case lang.OpDiv:
				if r == 0 {
					evalErr = errBlocked
					return 0
				}
				return l / r
			case lang.OpMod:
				if r == 0 {
					evalErr = errBlocked
					return 0
				}
				return l % r
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
			}
		}
		panic(fmt.Sprintf("cfg: unknown expression %T", e))
	}

	cur, prev := 0, -1
	for fuel > 0 {
		fuel--
		blk := g.Blocks[cur]
		// φs evaluate simultaneously from the incoming edge.
		var phiVals []int64
		var phiDsts []int
		for _, in := range blk.Instrs {
			phi, ok := in.(IPhi)
			if !ok {
				break
			}
			arg, found := int(0), false
			for _, a := range phi.Args {
				if a.Pred == prev {
					arg, found = a.Var, true
					break
				}
			}
			if !found {
				// Entry block φ or undef path.
				phiVals = append(phiVals, 0)
			} else {
				phiVals = append(phiVals, vals[arg])
			}
			phiDsts = append(phiDsts, phi.Var)
		}
		for i, d := range phiDsts {
			vals[d] = phiVals[i]
			defined[d] = true
		}
		for _, in := range blk.Instrs {
			switch in := in.(type) {
			case IPhi:
				// handled above
			case IDef:
				v := eval(in.E)
				if evalErr != nil {
					res.Blocked = true
					return
				}
				vals[in.Var] = v
				defined[in.Var] = true
				if in.FromSource {
					res.Trace = append(res.Trace, v)
				}
			case IAssume:
				if in.FromBranch {
					continue // implied by the taken branch
				}
				c := eval(in.E)
				if evalErr != nil || c == 0 {
					res.Blocked = true
					return
				}
			case IAssert:
				c := eval(in.E)
				if evalErr != nil {
					res.Blocked = true
					return
				}
				if c == 0 {
					res.FailedAssert = in.ID
					return
				}
			}
		}
		switch blk.Term.Kind {
		case TermHalt:
			return
		case TermJump:
			prev, cur = cur, blk.Term.To
		case TermBranch:
			c := eval(blk.Term.Cond)
			if evalErr != nil {
				res.Blocked = true
				return
			}
			if c != 0 {
				prev, cur = cur, blk.Term.To
			} else {
				prev, cur = cur, blk.Term.Else
			}
		}
	}
	res.OutOfFuel = true
	return
}

var errBlocked = fmt.Errorf("blocked")

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Validate checks SSA invariants: every block is in dom.RPO (reachable),
// every value defined at most once, every EVar use refers to a defined
// value, φs appear first in their block with one argument per
// predecessor.
func Validate(g *Graph, dom *DomInfo) error {
	if !g.InSSA {
		return fmt.Errorf("cfg: not in SSA form")
	}
	for b := range g.Blocks {
		if dom.RPO[dom.RPONum[b]] != b {
			return fmt.Errorf("block %d: not in RPO (unreachable)", b)
		}
	}
	defBlock := make([]int, g.NumVars)
	for i := range defBlock {
		defBlock[i] = -1
	}
	for _, b := range g.Blocks {
		seenNonPhi := false
		for _, in := range b.Instrs {
			switch in := in.(type) {
			case IPhi:
				if seenNonPhi {
					return fmt.Errorf("block %d: φ after non-φ", b.ID)
				}
				if defBlock[in.Var] != -1 {
					return fmt.Errorf("value v%d defined twice", in.Var)
				}
				defBlock[in.Var] = b.ID
				if len(in.Args) != len(b.Preds) {
					return fmt.Errorf("block %d: φ v%d has %d args, want %d", b.ID, in.Var, len(in.Args), len(b.Preds))
				}
			case IDef:
				seenNonPhi = true
				if defBlock[in.Var] != -1 {
					return fmt.Errorf("value v%d defined twice", in.Var)
				}
				defBlock[in.Var] = b.ID
			default:
				seenNonPhi = true
			}
		}
	}
	// Every used value must be defined (0/undef excluded by construction).
	var checkExpr func(blk int, e Expr) error
	checkExpr = func(blk int, e Expr) error {
		switch e := e.(type) {
		case EVar:
			if e.ID <= 0 || e.ID >= g.NumVars {
				return fmt.Errorf("block %d: use of invalid value v%d", blk, e.ID)
			}
			if defBlock[e.ID] == -1 {
				return fmt.Errorf("block %d: use of undefined value v%d", blk, e.ID)
			}
		case EBin:
			if err := checkExpr(blk, e.L); err != nil {
				return err
			}
			return checkExpr(blk, e.R)
		case EUn:
			return checkExpr(blk, e.E)
		}
		return nil
	}
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			switch in := in.(type) {
			case IDef:
				if err := checkExpr(b.ID, in.E); err != nil {
					return err
				}
			case IAssume:
				if err := checkExpr(b.ID, in.E); err != nil {
					return err
				}
			case IAssert:
				if err := checkExpr(b.ID, in.E); err != nil {
					return err
				}
			case IPhi:
				for _, a := range in.Args {
					if a.Var < 0 || a.Var >= g.NumVars {
						return fmt.Errorf("block %d: φ arg v%d invalid", b.ID, a.Var)
					}
				}
			}
		}
		if b.Term.Kind == TermBranch {
			if err := checkExpr(b.ID, b.Term.Cond); err != nil {
				return err
			}
		}
	}
	return nil
}
