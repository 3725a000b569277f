// Solver demo: Example 7.1 of the paper on the three solver variants.
//
// Given f(x) = 2a + x + 3b with 10 < f(4), the assertion f(9)² ≤ 225 is
// unsatisfiable: the Shostak layer canonizes both applications, canon_rel
// factors out the constants, and the labeled union-find records
// f(9) = f(4) + 5 — which lets interval propagation bound f(9) and refute
// the square. The BASE variant, lacking the relational classes, cannot
// relate the two terms (a and b are unbounded) and answers unknown.
//
// Run with: go run ./examples/solverdemo
package main

import (
	"fmt"

	"luf/internal/rational"
	"luf/internal/shostak"
	"luf/internal/solver"
)

func main() {
	p := solver.NewProblem("example-7.1", 0)
	a := p.AddVar(false)
	b := p.AddVar(false)
	f4 := p.AddVar(false)
	f9 := p.AddVar(false)
	sq := p.AddVar(false)

	lin := func(c int64, pairs ...[2]int64) shostak.LinExp {
		e := shostak.NewLinExp(rational.QInt(c))
		for _, pr := range pairs {
			e = e.Add(shostak.Monomial(rational.QInt(pr[0]), int(pr[1])))
		}
		return e
	}
	p.Add(
		// f4 = 2a + 4 + 3b, f9 = 2a + 9 + 3b.
		solver.Eq(lin(4, [2]int64{2, int64(a)}, [2]int64{3, int64(b)}, [2]int64{-1, int64(f4)})),
		solver.Eq(lin(9, [2]int64{2, int64(a)}, [2]int64{3, int64(b)}, [2]int64{-1, int64(f9)})),
		// 10 < f4 (encoded non-strictly as f4 >= 10.1).
		solver.Le(lin(0, [2]int64{-1, int64(f4)}).AddConst(rational.QFrac(101, 10))),
		// sq = f9², sq <= 225.
		solver.MulCon(sq, f9, f9),
		solver.Le(lin(-225, [2]int64{1, int64(sq)})),
	)
	p.Truth = solver.StatusUnsat

	fmt.Println("Example 7.1:  f(x) = 2a + x + 3b,  10 < f(4),  f(9)² ≤ 225")
	fmt.Println("expected: unsat (f(9) = f(4) + 5 > 15 ⟹ f(9)² > 225)")
	fmt.Println()
	for _, v := range []solver.Variant{solver.Base, solver.LabeledUF, solver.GroupAction} {
		r := solver.Solve(p, v, solver.Options{})
		fmt.Printf("  %-13s verdict=%-8s steps=%-6d relations=%d\n",
			v, r.Verdict, r.Steps, r.NumRelations)
	}
}
