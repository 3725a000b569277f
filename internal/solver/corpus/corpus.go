// Package corpus generates the deterministic synthetic benchmark suite
// standing in for the SMT-LIB 2024 arithmetic benchmarks of Section 7.1
// (which cannot be redistributed here). Every generated problem records
// its ground truth — SAT problems are built around a hidden witness,
// UNSAT problems by contradicting an entailed bound — so solver soundness
// is machine-checkable over the whole corpus.
//
// Families (mirroring the behaviours the paper discusses):
//
//   - linear:   plain linear systems; solved by every variant.
//   - offsets:  constant-offset chains hidden behind shared subterms; the
//     bound only transfers through the constant-difference classes that
//     canon_rel discovers (Figure 7's 10i+j pattern).
//   - fterm:    Example 7.1's f(4)/f(9) pattern with a nonlinear square;
//     only the labeled-union-find variants solve these.
//   - slowconv: contracting inequality cascades with many redundant
//     constant-difference definitions; every variant converges, but the
//     extra class propagations of the LUF variants burn more of the step
//     budget (the "price of success" regressions of Table 1).
//   - mulfree:  nonlinear problems with no exploitable relations; unknown
//     for every variant (budget sinks, like the bulk of SMT-LIB).
package corpus

import (
	"fmt"
	"math/rand"

	"luf/internal/rational"
	"luf/internal/shostak"
	"luf/internal/solver"
)

// Config sizes the corpus. Counts are per family.
type Config struct {
	Seed     int64
	Linear   int
	Offsets  int
	FTerm    int
	SlowConv int
	MulFree  int
}

// Default returns the corpus configuration used by the Table 1
// reproduction: a mix dominated by problems where the variants agree,
// with discriminating families in the minority (as in SMT-LIB, where most
// problems do not exercise the new propagations).
func Default() Config {
	return Config{
		Seed:     2024,
		Linear:   600,
		Offsets:  80,
		FTerm:    60,
		SlowConv: 100,
		MulFree:  160,
	}
}

// Generate produces the corpus for a configuration.
func Generate(cfg Config) []*solver.Problem {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []*solver.Problem
	for i := 0; i < cfg.Linear; i++ {
		out = append(out, GenLinear(rng, i))
	}
	for i := 0; i < cfg.Offsets; i++ {
		out = append(out, GenOffsets(rng, i))
	}
	for i := 0; i < cfg.FTerm; i++ {
		out = append(out, GenFTerm(rng, i))
	}
	for i := 0; i < cfg.SlowConv; i++ {
		out = append(out, GenSlowConv(rng, i))
	}
	for i := 0; i < cfg.MulFree; i++ {
		out = append(out, GenMulFree(rng, i))
	}
	return out
}

func lin(c int64, pairs ...any) shostak.LinExp {
	e := shostak.NewLinExp(rational.QInt(c))
	for i := 0; i < len(pairs); i += 2 {
		coef := pairs[i].(int64)
		v := pairs[i+1].(int)
		e = e.Add(shostak.Monomial(rational.QInt(coef), v))
	}
	return e
}

// GenLinear returns a random linear system (SAT around a hidden witness,
// or UNSAT by contradicting an entailed equation).
func GenLinear(rng *rand.Rand, idx int) *solver.Problem {
	n := 4 + rng.Intn(5)
	p := solver.NewProblem(fmt.Sprintf("linear-%04d", idx), n)
	witness := make(map[int]int64, n)
	for v := 0; v < n; v++ {
		p.IntVar[v] = true
		witness[v] = int64(rng.Intn(41) - 20)
	}
	unsat := rng.Intn(3) == 0
	// Chain equations consistent with the witness: x_{i} related to x_{i-1}.
	for v := 1; v < n; v++ {
		w := rng.Intn(v)
		diff := witness[v] - witness[w]
		p.Add(solver.Eq(lin(diff, int64(1), w, int64(-1), v)))
	}
	// Bounds around the witness.
	anchor := rng.Intn(n)
	p.Add(
		solver.Le(lin(-witness[anchor]-int64(rng.Intn(4)), int64(1), anchor)),
		solver.Le(lin(witness[anchor]-int64(rng.Intn(4)), int64(-1), anchor)),
	)
	if unsat {
		// Contradict an entailed value: force some var above its implied value.
		v := rng.Intn(n)
		slack := int64(rng.Intn(3))
		// The chain + anchor bounds entail v <= witness[v] + 3ish; demand much more.
		p.Add(solver.Le(lin(witness[v]+100+slack, int64(-1), v))) // v >= w+100
		p.Truth = solver.StatusUnsat
	} else {
		p.Truth = solver.StatusSat
		wmap := map[int]rational.Q{}
		for v, val := range witness {
			wmap[v] = rational.QInt(val)
		}
		p.Witness = wmap
	}
	return p
}

// GenOffsets builds the Figure 7 pattern: base terms t_k = Σ c_i·x_i + d_k
// over unbounded x_i, with a bound on t_0 and an assertion about t_m that
// only follows through the constant-difference relations t_k = t_0 + (d_k
// - d_0).
func GenOffsets(rng *rand.Rand, idx int) *solver.Problem {
	nx := 2 + rng.Intn(3) // unbounded structural variables
	m := 2 + rng.Intn(3)  // number of derived terms
	p := solver.NewProblem(fmt.Sprintf("offsets-%04d", idx), nx)
	coefs := make([]int64, nx)
	for i := range coefs {
		coefs[i] = int64(rng.Intn(9) + 1)
	}
	terms := make([]int, m)
	offs := make([]int64, m)
	for k := 0; k < m; k++ {
		terms[k] = p.AddVar(false)
		offs[k] = int64(rng.Intn(20) - 10)
		// t_k = Σ coefs[i]·x_i + offs[k].
		e := lin(offs[k], int64(-1), terms[k])
		for i := 0; i < nx; i++ {
			e = e.Add(shostak.Monomial(rational.QInt(coefs[i]), i))
		}
		p.Add(solver.Eq(e))
	}
	// Bound t_0 ∈ [lo; hi].
	lo := int64(rng.Intn(20) - 10)
	hi := lo + int64(rng.Intn(50)+10)
	p.Add(
		solver.Le(lin(-hi, int64(1), terms[0])),
		solver.Le(lin(lo, int64(-1), terms[0])),
	)
	// Assert t_last outside its entailed range [lo+Δ; hi+Δ] — unsat, but
	// only discoverable through the t_last = t_0 + Δ relation.
	last := m - 1
	delta := offs[last] - offs[0]
	if rng.Intn(2) == 0 {
		p.Add(solver.Le(lin(hi+delta+1+int64(rng.Intn(5)), int64(-1), terms[last]))) // t_last >= hi+Δ+1
	} else {
		p.Add(solver.Le(lin(-(lo + delta - 1 - int64(rng.Intn(5))), int64(1), terms[last]))) // t_last <= lo+Δ-1
	}
	p.Truth = solver.StatusUnsat
	return p
}

// GenFTerm builds Example 7.1 instances: two affine terms sharing their
// variable part, a lower bound on the first, and a square upper bound on
// the second that the offset makes impossible.
func GenFTerm(rng *rand.Rand, idx int) *solver.Problem {
	na := 2 + rng.Intn(2)
	p := solver.NewProblem(fmt.Sprintf("fterm-%04d", idx), na)
	coefs := make([]int64, na)
	for i := range coefs {
		coefs[i] = int64(rng.Intn(5) + 1)
	}
	k1 := int64(rng.Intn(10))
	k2 := k1 + int64(rng.Intn(10)+3) // offset Δ = k2-k1 >= 3
	f1 := p.AddVar(false)
	f2 := p.AddVar(false)
	sq := p.AddVar(false)
	mk := func(f int, k int64) shostak.LinExp {
		e := lin(k, int64(-1), f)
		for i := 0; i < na; i++ {
			e = e.Add(shostak.Monomial(rational.QInt(coefs[i]), i))
		}
		return e
	}
	p.Add(solver.Eq(mk(f1, k1)), solver.Eq(mk(f2, k2)))
	// f1 >= B, sq = f2², sq <= (B + Δ - 1)²: unsat since f2 = f1 + Δ >= B+Δ.
	B := int64(rng.Intn(15) + 1)
	delta := k2 - k1
	bound := (B + delta - 1) * (B + delta - 1)
	p.Add(
		solver.Le(lin(B, int64(-1), f1)), // f1 >= B
		solver.MulCon(sq, f2, f2),
		solver.Le(lin(-bound, int64(1), sq)), // sq <= bound
	)
	p.Truth = solver.StatusUnsat
	return p
}

// GenSlowConv builds satisfiable contracting cascades (x <= y/3 + c,
// y <= x/3 + c) decorated with redundant constant-offset copies of x.
// All variants reach the fixpoint; the labeled variants additionally
// transport every x update across the copies, multiplying their step
// count (the regression mechanism of Table 1).
func GenSlowConv(rng *rand.Rand, idx int) *solver.Problem {
	copies := 12 + rng.Intn(20)
	p := solver.NewProblem(fmt.Sprintf("slowconv-%04d", idx), 2)
	x, y := 0, 1
	c := int64(rng.Intn(20) + 5)
	start := int64(1000 + rng.Intn(2000))
	// x,y >= 0; x <= start; x <= y/3 + c; y <= x/3 + c.
	p.Add(
		solver.Le(lin(0, int64(-1), x)),
		solver.Le(lin(0, int64(-1), y)),
		solver.Le(lin(-start, int64(1), x)),
		solver.Le(lin(-start, int64(1), y)),
	)
	third := rational.QFrac(1, 3)
	ex := shostak.Monomial(rational.QInt(1), x).Sub(shostak.Monomial(third, y)).AddConst(rational.QInt(-c))
	ey := shostak.Monomial(rational.QInt(1), y).Sub(shostak.Monomial(third, x)).AddConst(rational.QInt(-c))
	p.Add(solver.Le(ex), solver.Le(ey))
	// Redundant offset copies of x: z_i = x + i.
	for i := 1; i <= copies; i++ {
		z := p.AddVar(false)
		p.Add(solver.Eq(lin(int64(i), int64(1), x, int64(-1), z)))
	}
	p.Truth = solver.StatusSat
	w := map[int]rational.Q{x: rational.Q{}, y: rational.Q{}}
	for i := 1; i <= copies; i++ {
		w[1+i] = rational.QInt(int64(i))
	}
	p.Witness = w
	return p
}

// GenMulFree builds nonlinear problems with unbounded factors and no
// exploitable relations: every variant times out to unknown (the corpus'
// budget sinks).
func GenMulFree(rng *rand.Rand, idx int) *solver.Problem {
	p := solver.NewProblem(fmt.Sprintf("mulfree-%04d", idx), 3)
	x, y, z := 0, 1, 2
	p.Add(
		solver.MulCon(z, x, y),
		// z >= x + y + c: satisfiable but not provable by propagation
		// alone with unbounded x, y.
		solver.Le(lin(int64(rng.Intn(10)+1), int64(1), x, int64(1), y, int64(-1), z)),
	)
	p.Truth = solver.StatusSat
	// Witness: x = y = t for large t: z = t² >= 2t + c for t >= c+2.
	t := int64(rng.Intn(10) + 12)
	p.Witness = map[int]rational.Q{x: rational.QInt(t), y: rational.QInt(t), z: rational.QInt(t * t)}
	return p
}
