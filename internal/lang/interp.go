package lang

import "luf/internal/fault"

// RunResult is the outcome of a concrete execution.
type RunResult struct {
	// Env is the final value of each variable in scope at program end:
	// the top-level declarations (0 for one the run did not reach).
	Env map[string]int64
	// FailedAssert is the ID of the first violated assertion, or -1.
	FailedAssert int
	// Blocked reports whether an assume() stopped the execution.
	Blocked bool
	// OutOfFuel reports whether the step budget ran out (e.g. an infinite
	// loop); the other fields are then partial.
	OutOfFuel bool
	// Trace records the value of every variable after each assignment —
	// the observation stream used to cross-check SSA translation.
	Trace []int64
}

// Run interprets the program with the given nondet input stream (values
// are consumed per evaluation of a nondet() site; when the stream is
// exhausted, zero is used). fuel bounds the number of statements executed.
// Division/modulo follow Go's truncated semantics; division by zero stops
// the run as blocked (the analyzer treats it as an error state).
func Run(p *Program, inputs []int64, fuel int) RunResult {
	r := &runner{inputs: inputs, fuel: fuel, vals: make([]int64, len(p.Vars))}
	res := RunResult{FailedAssert: -1}
	if err := r.stmts(p.Stmts); err != nil {
		switch e := err.(type) {
		case assertErr:
			res.FailedAssert = int(e)
		case blockedErr:
			res.Blocked = true
		case fuelErr:
			res.OutOfFuel = true
		}
	}
	res.Env = map[string]int64{}
	for _, s := range p.Stmts {
		if d, ok := s.(*DeclStmt); ok {
			res.Env[d.Name] = r.vals[d.Var]
		}
	}
	res.Trace = r.trace
	return res
}

type runner struct {
	inputs []int64
	inIdx  int
	fuel   int
	vals   []int64 // by declaration index, so shadowing needs no scopes
	trace  []int64
}

type assertErr int

func (assertErr) Error() string { return "assertion failed" }

type blockedErr struct{}

func (blockedErr) Error() string { return "assume blocked" }

type fuelErr struct{}

func (fuelErr) Error() string { return "out of fuel" }

func (r *runner) burn() error {
	r.fuel--
	if r.fuel <= 0 {
		return fuelErr{}
	}
	return nil
}

func (r *runner) stmts(ss []Stmt) error {
	for _, s := range ss {
		if err := r.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) stmt(s Stmt) error {
	if err := r.burn(); err != nil {
		return err
	}
	switch s := s.(type) {
	case *DeclStmt:
		v, err := r.eval(s.Init)
		if err != nil {
			return err
		}
		r.vals[s.Var] = v
		r.trace = append(r.trace, v)
	case *AssignStmt:
		v, err := r.eval(s.E)
		if err != nil {
			return err
		}
		r.vals[s.Var] = v
		r.trace = append(r.trace, v)
	case *IfStmt:
		c, err := r.eval(s.Cond)
		if err != nil {
			return err
		}
		if c != 0 {
			return r.stmts(s.Then)
		}
		return r.stmts(s.Else)
	case *WhileStmt:
		for {
			c, err := r.eval(s.Cond)
			if err != nil {
				return err
			}
			if c == 0 {
				return nil
			}
			if err := r.stmts(s.Body); err != nil {
				return err
			}
			if err := r.burn(); err != nil {
				return err
			}
		}
	case *AssertStmt:
		c, err := r.eval(s.Cond)
		if err != nil {
			return err
		}
		if c == 0 {
			return assertErr(s.ID)
		}
	case *AssumeStmt:
		c, err := r.eval(s.Cond)
		if err != nil {
			return err
		}
		if c == 0 {
			return blockedErr{}
		}
	default:
		panic(fault.Invariantf("lang: unknown statement %T", s))
	}
	return nil
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (r *runner) eval(e Expr) (int64, error) {
	switch e := e.(type) {
	case *NumExpr:
		return e.Value, nil
	case *VarExpr:
		return r.vals[e.Var], nil
	case *NondetExpr:
		if r.inIdx < len(r.inputs) {
			v := r.inputs[r.inIdx]
			r.inIdx++
			return v, nil
		}
		return 0, nil
	case *UnExpr:
		v, err := r.eval(e.E)
		if err != nil {
			return 0, err
		}
		if e.Op == OpNeg {
			return -v, nil
		}
		return boolToInt(v == 0), nil
	case *BinExpr:
		// Short-circuit booleans first.
		if e.Op == OpAnd || e.Op == OpOr {
			l, err := r.eval(e.L)
			if err != nil {
				return 0, err
			}
			if e.Op == OpAnd && l == 0 {
				return 0, nil
			}
			if e.Op == OpOr && l != 0 {
				return 1, nil
			}
			rv, err := r.eval(e.R)
			if err != nil {
				return 0, err
			}
			return boolToInt(rv != 0), nil
		}
		l, err := r.eval(e.L)
		if err != nil {
			return 0, err
		}
		rv, err := r.eval(e.R)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case OpAdd:
			return l + rv, nil
		case OpSub:
			return l - rv, nil
		case OpMul:
			return l * rv, nil
		case OpDiv:
			if rv == 0 {
				return 0, blockedErr{}
			}
			return l / rv, nil
		case OpMod:
			if rv == 0 {
				return 0, blockedErr{}
			}
			return l % rv, nil
		case OpEq:
			return boolToInt(l == rv), nil
		case OpNeq:
			return boolToInt(l != rv), nil
		case OpLt:
			return boolToInt(l < rv), nil
		case OpLe:
			return boolToInt(l <= rv), nil
		case OpGt:
			return boolToInt(l > rv), nil
		case OpGe:
			return boolToInt(l >= rv), nil
		}
	}
	panic(fault.Invariantf("lang: unknown expression %T", e))
}
