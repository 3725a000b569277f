// Package solver implements a propagation-based arithmetic constraint
// solver in the style of COLIBRI2, the solver extended in Section 7.1 of
// the paper. It supports linear equalities and inequalities and nonlinear
// multiplication over rational and integer variables, with an interval ×
// congruence value domain, HC4-style propagators, and the slow-convergence
// guards the paper describes (per-term update budgets, bound-size limits).
//
// Three variants reproduce the Section 7.1 comparison:
//
//   - Base: the original propagation engine. Its Shostak theory detects
//     only exact equalities of canonized terms.
//   - LabeledUF: the Section 6.2 extension — canon_rel factors constants
//     out of canonized terms, a labeled union-find groups terms at constant
//     difference, and interval information is propagated pairwise across
//     each relational class.
//   - GroupAction: additionally factorizes the value map (Section 5.2),
//     storing one interval × congruence value per relational class,
//     transported by the constant-difference group action.
package solver

import (
	"fmt"
	"luf/internal/rational"
	"luf/internal/shostak"
)

// Status is the known ground truth of a generated problem.
type Status int

// Ground-truth statuses for corpus problems.
const (
	// StatusUnknown means the generator does not know the answer.
	StatusUnknown Status = iota
	// StatusSat means the problem has a solution.
	StatusSat
	// StatusUnsat means the problem has no solution.
	StatusUnsat
)

// String returns "sat", "unsat" or "unknown".
func (s Status) String() string {
	switch s {
	case StatusSat:
		return "sat"
	case StatusUnsat:
		return "unsat"
	}
	return "unknown"
}

// Verdict is a solver outcome.
type Verdict int

// Solver outcomes.
const (
	// VerdictUnknown means the solver stopped without a proof either way.
	VerdictUnknown Verdict = iota
	// VerdictSat means the solver found a solution.
	VerdictSat
	// VerdictUnsat means the solver proved there is no solution.
	VerdictUnsat
)

// String returns "sat", "unsat" or "unknown".
func (v Verdict) String() string {
	switch v {
	case VerdictSat:
		return "sat"
	case VerdictUnsat:
		return "unsat"
	}
	return "unknown"
}

// ConKind discriminates constraints.
type ConKind int

// Constraint kinds.
const (
	// ConEq is the linear equality Lin = 0.
	ConEq ConKind = iota
	// ConLe is the linear inequality Lin <= 0.
	ConLe
	// ConMul is the product Z = X * Y.
	ConMul
)

// Constraint is one problem constraint. For ConEq/ConLe only Lin is used;
// for ConMul, Z = X·Y (X may equal Y, encoding a square).
type Constraint struct {
	Kind    ConKind
	Lin     shostak.LinExp
	Z, X, Y int
}

// Eq returns the constraint e = 0.
func Eq(e shostak.LinExp) Constraint { return Constraint{Kind: ConEq, Lin: e} }

// Le returns the constraint e <= 0.
func Le(e shostak.LinExp) Constraint { return Constraint{Kind: ConLe, Lin: e} }

// MulCon returns the constraint z = x·y.
func MulCon(z, x, y int) Constraint { return Constraint{Kind: ConMul, Z: z, X: x, Y: y} }

// Problem is a conjunction of constraints over variables 0..NumVars-1.
type Problem struct {
	Name    string
	NumVars int
	IntVar  []bool // per-variable integer typing
	Cons    []Constraint
	// Truth is the ground truth when known (corpus problems record it so
	// solver soundness is checkable); Witness, when non-nil, is a model.
	Truth   Status
	Witness map[int]rational.Q
}

// NewProblem returns an empty problem over n rational variables.
func NewProblem(name string, n int) *Problem {
	return &Problem{Name: name, NumVars: n, IntVar: make([]bool, n)}
}

// AddVar appends a fresh variable and returns its index.
func (p *Problem) AddVar(isInt bool) int {
	p.IntVar = append(p.IntVar, isInt)
	p.NumVars++
	return p.NumVars - 1
}

// Add appends constraints.
func (p *Problem) Add(cs ...Constraint) { p.Cons = append(p.Cons, cs...) }

// CheckWitness verifies that sigma satisfies every constraint exactly.
func (p *Problem) CheckWitness(sigma map[int]rational.Q) bool {
	for v := 0; v < p.NumVars; v++ {
		val, ok := sigma[v]
		if !ok {
			return false
		}
		if p.IntVar[v] && !val.IsInt() {
			return false
		}
	}
	for _, c := range p.Cons {
		switch c.Kind {
		case ConEq:
			if c.Lin.Eval(sigma).Sign() != 0 {
				return false
			}
		case ConLe:
			if c.Lin.Eval(sigma).Sign() > 0 {
				return false
			}
		case ConMul:
			if !sigma[c.Z].Eq(sigma[c.X].Mul(sigma[c.Y])) {
				return false
			}
		}
	}
	return true
}

// Validate checks internal consistency (variable indices, witness claims).
func (p *Problem) Validate() error {
	check := func(v int) error {
		if v < 0 || v >= p.NumVars {
			return fmt.Errorf("problem %s: variable %d out of range", p.Name, v)
		}
		return nil
	}
	for _, c := range p.Cons {
		switch c.Kind {
		case ConEq, ConLe:
			for _, v := range c.Lin.Vars() {
				if err := check(v); err != nil {
					return err
				}
			}
		case ConMul:
			for _, v := range []int{c.Z, c.X, c.Y} {
				if err := check(v); err != nil {
					return err
				}
			}
		}
	}
	if p.Truth == StatusSat && p.Witness != nil && !p.CheckWitness(p.Witness) {
		return fmt.Errorf("problem %s: claimed witness does not satisfy constraints", p.Name)
	}
	return nil
}
