// Command minisolve runs the propagation-based constraint solver on a
// problem file, comparing the BASE, LABELED-UF and GROUP-ACTION variants
// of Section 7.1 of the paper.
//
// Problem format (one constraint per line, '#' comments):
//
//	var x int            declare an integer variable
//	var y rat            declare a rational variable
//	eq  2*x + 3*y - 1*z + 5 = 0
//	le  1*x - 10 <= 0
//	mul z = x * y
//
// With -demo figure7 or -demo example71 the built-in paper examples run
// instead.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"luf/internal/cert"
	"luf/internal/concurrent"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/rational"
	"luf/internal/shostak"
	"luf/internal/solver"
)

func main() {
	demo := flag.String("demo", "", "run a built-in demo: figure7 or example71")
	steps := flag.Int("steps", 200000, "step budget")
	deadline := flag.Duration("deadline", 0, "wall-clock limit per variant (0 = none)")
	check := flag.Bool("check", false, "audit union-find invariants after solving")
	certify := flag.Bool("certify", false, "emit proof certificates and re-check each with the independent verifier")
	parallel := flag.Int("parallel", 0, "race the first N solver variants as a first-answer-wins portfolio instead of running them in sequence (0 = sequential sweep)")
	flag.Parse()

	var p *solver.Problem
	switch {
	case *demo == "figure7":
		p = figure7()
	case *demo == "example71":
		p = example71()
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		var perr error
		p, perr = solver.ParseProblem(flag.Arg(0), string(data))
		if perr != nil {
			fmt.Fprintln(os.Stderr, perr)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: minisolve [-demo figure7|example71] [file]")
		os.Exit(2)
	}

	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("problem %s: %d variables, %d constraints\n\n", p.Name, p.NumVars, len(p.Cons))
	if *parallel > 0 {
		runPortfolio(p, *parallel, solver.Options{
			MaxSteps: *steps, Deadline: *deadline, CheckInvariants: *check, Certify: *certify,
		}, *certify)
		return
	}
	for _, v := range []solver.Variant{solver.Base, solver.LabeledUF, solver.GroupAction} {
		opts := solver.Options{MaxSteps: *steps, Deadline: *deadline, CheckInvariants: *check, Certify: *certify}
		r := solver.Solve(p, v, opts)
		fmt.Printf("  %-13s verdict=%-8s steps=%-7d relations=%d", v, r.Verdict, r.Steps, r.NumRelations)
		if r.Stop != nil {
			fmt.Printf(" stop=%s", fault.StopLabel(r.Stop))
			if pt := r.Partial; pt != nil {
				fmt.Printf(" (partial: %d determined, %d bounded, %d pending)",
					pt.Determined, pt.Bounded, pt.Pending)
			}
		}
		fmt.Println()
		if *certify {
			printCertificates(r)
		}
	}
}

// runPortfolio races the first n solver variants concurrently and
// reports the winner's answer plus every variant's final state.
func runPortfolio(p *solver.Problem, n int, opts solver.Options, certify bool) {
	variants := []solver.Variant{solver.LabeledUF, solver.GroupAction, solver.Base}
	if n < len(variants) {
		variants = variants[:n]
	}
	pf := concurrent.NewPortfolio(variants...)
	pf.Opts = opts
	out := pf.Solve(context.Background(), p)
	fmt.Printf("  portfolio (%d variants, first answer wins)\n", len(variants))
	if out.Decided {
		fmt.Printf("  winner: %s verdict=%s steps=%d relations=%d\n",
			out.Winner, out.Result.Verdict, out.Result.Steps, out.Result.NumRelations)
	} else {
		fmt.Printf("  undecided (no variant reached a verdict)\n")
	}
	for _, v := range variants {
		r := out.All[v]
		fmt.Printf("    %-13s verdict=%-8s steps=%-7d", v, r.Verdict, r.Steps)
		if r.Stop != nil {
			fmt.Printf(" stop=%s", fault.StopLabel(r.Stop))
		}
		fmt.Println()
	}
	if certify && out.Decided {
		printCertificates(out.Result)
	}
}

// printCertificates re-checks every emitted certificate with the
// independent verifier and prints the verdicts (plus the UNSAT core
// chain when one exists).
func printCertificates(r solver.Result) {
	g := group.QDiff{}
	accepted := 0
	for _, c := range r.Certs {
		if err := cert.Check(c, g); err != nil {
			fmt.Printf("    CERT REJECTED: %v\n", err)
			continue
		}
		accepted++
	}
	fmt.Printf("    certificates: %d emitted, %d verified\n", len(r.Certs), accepted)
	if cc := r.ConflictCert; cc != nil {
		if err := cert.Check(*cc, g); err != nil {
			fmt.Printf("    CONFLICT CERT REJECTED: %v\n", err)
		} else {
			fmt.Printf("    UNSAT core (verified):\n")
			for _, line := range strings.Split(cert.Format(*cc, g), "\n") {
				fmt.Printf("      %s\n", line)
			}
			fmt.Printf("      core constraints: %s\n", strings.Join(cc.Reasons(), ", "))
		}
	}
}

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
		solver.Le(lin(100, [2]int{-1, t2})), // t2 >= 100: contradicts t2 = t1+1 <= 90
	)
	p.Truth = solver.StatusUnsat
	return p
}

func example71() *solver.Problem {
	p := solver.NewProblem("example7.1", 0)
	a := p.AddVar(false)
	b := p.AddVar(false)
	f4 := p.AddVar(false)
	f9 := p.AddVar(false)
	sq := p.AddVar(false)
	lin := func(c int64, pairs ...[2]int) shostak.LinExp {
		e := shostak.NewLinExp(rational.QInt(c))
		for _, pr := range pairs {
			e = e.Add(shostak.Monomial(rational.QInt(int64(pr[0])), pr[1]))
		}
		return e
	}
	p.Add(
		solver.Eq(lin(4, [2]int{2, a}, [2]int{3, b}, [2]int{-1, f4})),
		solver.Eq(lin(9, [2]int{2, a}, [2]int{3, b}, [2]int{-1, f9})),
		solver.Le(lin(0, [2]int{-1, f4}).AddConst(rational.QFrac(101, 10))),
		solver.MulCon(sq, f9, f9),
		solver.Le(lin(-225, [2]int{1, sq})),
	)
	p.Truth = solver.StatusUnsat
	return p
}
