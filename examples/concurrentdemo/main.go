// Concurrentdemo: the thread-safe labeled union-find as a serving layer.
//
// One concurrent UF is shared by writer and reader goroutines; a batch
// of assertions is partitioned across workers with deterministic
// results; a certificate journal records each accepted link so
// answers from the racy build still check out; and the solver portfolio
// races the three Section 7.1 variants, first answer wins.
//
// Run with: go run ./examples/concurrentdemo
// The same scenarios run as checked Example tests: go test ./examples/concurrentdemo
package main

import (
	"context"
	"fmt"
	"sync"

	"luf"
	"luf/internal/rational"
	"luf/internal/shostak"
	"luf/internal/solver"
)

func main() {
	fmt.Println("== goroutines sharing one union-find ==")
	sharedGoroutines()
	fmt.Println("\n== deterministic batches ==")
	batches()
	fmt.Println("\n== certified answers from a racy build ==")
	certified()
	fmt.Println("\n== solver portfolio ==")
	portfolio()
}

// sharedGoroutines hammers one structure from several writers, then
// reads the composed relation: x0 --1--> x1 --1--> ... --1--> x63.
func sharedGoroutines() {
	uf := luf.NewConcurrent[int](luf.Delta{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker asserts a strided slice of the same chain;
			// all assertions are consistent, so every one is accepted.
			for i := w + 1; i < 64; i += 4 {
				uf.AddRelation(i-1, i, 1)
			}
		}(w)
	}
	wg.Wait()
	l, ok := uf.GetRelation(0, 63)
	fmt.Printf("x0 ~ x63: related=%v label=%d (63 unit steps)\n", ok, l)
	fmt.Printf("stats: %d unions, %d conflicts\n", uf.Stats().Unions, uf.Stats().Conflicts)
}

// batches shows AssertBatch's determinism: the conflicting op loses for
// every worker count, because connected operations serialize in batch
// order inside one worker.
func batches() {
	ops := []luf.Assert[string, int64]{
		{N: "a", M: "b", Label: 2},
		{N: "b", M: "c", Label: 3},
		{N: "a", M: "c", Label: 7}, // contradicts 2+3 = 5: always rejected
		{N: "p", M: "q", Label: 1}, // independent: may run on another worker
	}
	for _, workers := range []int{1, 4} {
		uf := luf.NewConcurrent[string](luf.Delta{})
		res := uf.AssertBatch(ops, luf.BatchOptions{Workers: workers})
		verdicts := make([]bool, len(res))
		for i, r := range res {
			verdicts[i] = r.OK
		}
		fmt.Printf("workers=%d: accepted=%v\n", workers, verdicts)
	}
	uf := luf.NewConcurrent[string](luf.Delta{})
	uf.AssertBatch(ops, luf.BatchOptions{Workers: 4})
	qs := uf.QueryBatch([]luf.BatchQuery[string]{
		{N: "a", M: "c"}, {N: "a", M: "p"},
	}, luf.BatchOptions{Workers: 2})
	fmt.Printf("a ~ c: label=%d ok=%v;  a ~ p: ok=%v\n", qs[0].Label, qs[0].OK, qs[1].OK)
}

// certified attaches a journal to a concurrently built structure and
// re-checks an answer with the independent verifier.
func certified() {
	j := luf.NewCertJournal[string, int64](luf.Delta{})
	uf := luf.NewConcurrent[string](luf.Delta{}, luf.WithConcurrentJournal[string, int64](j))
	var wg sync.WaitGroup
	edges := []luf.Assert[string, int64]{
		{N: "x", M: "y", Label: 2, Reason: "eq#0"},
		{N: "y", M: "z", Label: 3, Reason: "eq#1"},
		{N: "u", M: "v", Label: 4, Reason: "eq#2"},
	}
	for _, e := range edges {
		wg.Add(1)
		go func(e luf.Assert[string, int64]) {
			defer wg.Done()
			uf.AddRelationReason(e.N, e.M, e.Label, e.Reason)
		}(e)
	}
	wg.Wait()
	c, err := luf.ExplainConcurrent(uf, j, "x", "z")
	if err != nil {
		fmt.Println("explain:", err)
		return
	}
	fmt.Printf("certificate claims x --%d--> z; checker says err=%v\n",
		c.Label, luf.CheckCertificate(c, luf.Delta{}))
}

// portfolio races the three solver variants on the paper's Figure 7
// program; the unsat verdict is deterministic, the winner is whichever
// variant got there first.
func portfolio() {
	p := figure7()
	pf := luf.NewPortfolio()
	out := pf.Solve(context.Background(), p)
	fmt.Printf("figure7: decided=%v verdict=%s (%d variants raced)\n",
		out.Decided, out.Result.Verdict, len(out.All))
}

// figure7 is the paper's Figure 7 loop-exit query: t1 = 10i + j,
// t2 = 10i + j + 1, 89 ≥ t1 ≥ 0, t2 ≥ 100 — unsatisfiable because the
// labeled union-find relates t2 = t1 + 1 ≤ 90.
func figure7() *solver.Problem {
	p := solver.NewProblem("figure7", 0)
	i := p.AddVar(true)
	j := p.AddVar(true)
	t1 := p.AddVar(true)
	t2 := p.AddVar(true)
	lin := func(c int64, pairs ...[2]int) shostak.LinExp {
		e := shostak.NewLinExp(rational.QInt(c))
		for _, pr := range pairs {
			e = e.Add(shostak.Monomial(rational.QInt(int64(pr[0])), pr[1]))
		}
		return e
	}
	p.Add(
		solver.Eq(lin(0, [2]int{10, i}, [2]int{1, j}, [2]int{-1, t1})),
		solver.Eq(lin(1, [2]int{10, i}, [2]int{1, j}, [2]int{-1, t2})),
		solver.Le(lin(-89, [2]int{1, t1})),
		solver.Le(lin(0, [2]int{-1, t1})),
		solver.Le(lin(100, [2]int{-1, t2})),
	)
	p.Truth = solver.StatusUnsat
	return p
}
