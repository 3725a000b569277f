package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"luf/internal/analyzer"
	acorpus "luf/internal/analyzer/corpus"
	"luf/internal/bench"
	"luf/internal/cfg"
	"luf/internal/fault"
	"luf/internal/lang"
	"luf/internal/solver"
	"luf/internal/solver/corpus"
)

// The paper's own results at full corpus size, as EXPERIMENTS.md
// records them: the §7.2 analyzer at depth 1000 newly proves
// assertions in 9 programs and loses precision in none, and
// GROUP-ACTION solves 740 of the 1,000 Table 1 problems.
const (
	wantProvedNew = 9
	wantSolvedGA  = 740
)

// paperJob is one unit of the paper workload: analyse one §7.2 program
// with the LUF TVPE domain, or solve one Table 1 problem under
// GROUP-ACTION.
type paperJob struct {
	kind string // "analyze" or "solve"
	src  string
	prob *solver.Problem
}

// paperSys holds the two corpora and what each job answered the first
// time it ran.
type paperSys struct {
	tr     *tracer
	full   bool // the corpora are the paper's full size
	jobs   []paperJob
	cur    int // the job next generated
	ran    int // jobs generated so far
	sec72  bench.Sec72Config
	table1 bench.Table1Config
	proved map[int][]analyzer.AssertOutcome
	solved map[int]bool
}

func setupPaper(e *env) (system, error) {
	s := &paperSys{
		tr: e.tr, full: !e.tiny,
		sec72: bench.DefaultSec72(), table1: bench.DefaultTable1(),
		proved: map[int][]analyzer.AssertOutcome{}, solved: map[int]bool{},
	}
	programs := acorpus.Scaled(s.sec72.NumPrograms)
	problems := corpus.Generate(s.table1.Corpus)
	for _, p := range programs {
		s.jobs = append(s.jobs, paperJob{kind: "analyze", src: p.Src})
	}
	for _, p := range problems {
		s.jobs = append(s.jobs, paperJob{kind: "solve", prob: p})
	}
	// The seed fixes the order jobs arrive in; the corpora themselves are
	// the paper reproduction's, so the precision counts stay checkable.
	rng := rand.New(rand.NewSource(e.seed))
	rng.Shuffle(len(s.jobs), func(i, j int) { s.jobs[i], s.jobs[j] = s.jobs[j], s.jobs[i] })
	if e.tiny {
		s.jobs = s.jobs[:48]
	}
	return s, nil
}

// next cycles through the shuffled corpora.
func (s *paperSys) next(time.Duration) string {
	s.cur = s.ran % len(s.jobs)
	s.ran++
	return s.jobs[s.cur].kind
}

// analyze runs the §7.2 pipeline on one program: parse, CFG and SSA,
// then the abstract interpreter.
func analyze(ctx context.Context, tr *tracer, op int64, src string, useLUF bool, depth int) (*analyzer.Result, error) {
	var prog *lang.Program
	var err error
	tr.measure("lang.Parse", op, func() { prog, err = lang.Parse(src) })
	if err != nil {
		return nil, fmt.Errorf("parse corpus program: %w", err)
	}
	var g *cfg.Graph
	var dom *cfg.DomInfo
	tr.measure("cfg.SSA", op, func() {
		g = cfg.Build(prog)
		dom = cfg.ToSSA(g)
	})
	var res *analyzer.Result
	tr.measure("handler analyzer.Analyze", op, func() {
		res = analyzer.Analyze(g, dom, analyzer.Config{UseLUF: useLUF, PropagationDepth: depth, Ctx: ctx})
	})
	if res.Stop != nil {
		return nil, fmt.Errorf("analysis stopped early: %w", res.Stop)
	}
	return res, nil
}

// compareProofs compares one program's assertion outcomes without and
// with the LUF domain: whether the LUF run proves an assertion the
// baseline does not, and how many the baseline proves that it loses.
func compareProofs(base, luf []analyzer.AssertOutcome) (newProof bool, losses int) {
	for id, b := range base {
		bOK, lOK := b == analyzer.AssertProved, luf[id] == analyzer.AssertProved
		if bOK && !lOK {
			losses++
		}
		newProof = newProof || (lOK && !bOK)
	}
	return newProof, losses
}

func (s *paperSys) solveOpts(ctx context.Context) solver.Options {
	opts := s.table1.Opts
	opts.MaxSteps = s.table1.Budget
	opts.Ctx = ctx
	return opts
}

func (s *paperSys) do(ctx context.Context) error {
	ji := s.cur
	j := s.jobs[ji]
	op := opOf(ctx)
	if j.kind == "analyze" {
		res, err := analyze(ctx, s.tr, op, j.src, true, s.sec72.Depth)
		if err != nil {
			return err
		}
		if _, seen := s.proved[ji]; !seen {
			s.proved[ji] = res.Asserts
		}
		return nil
	}
	var r solver.Result
	s.tr.measure("handler solver.Solve", op, func() { r = solver.Solve(j.prob, solver.GroupAction, s.solveOpts(ctx)) })
	if r.Stop != nil && !errors.Is(r.Stop, fault.ErrBudgetExhausted) {
		return fmt.Errorf("solve %s: %w", j.prob.Name, r.Stop)
	}
	if j.prob.Truth == solver.StatusSat && r.Verdict == solver.VerdictUnsat ||
		j.prob.Truth == solver.StatusUnsat && r.Verdict == solver.VerdictSat {
		return wrongf("GROUP-ACTION on %s: verdict %s contradicts ground truth %s", j.prob.Name, r.Verdict, j.prob.Truth)
	}
	if _, seen := s.solved[ji]; !seen {
		s.solved[ji] = r.Verdict != solver.VerdictUnknown
	}
	return nil
}

// finish first runs, untimed, every job the window did not reach, so
// the oracle always covers both corpora. It then re-analyses every
// program with the non-relational baseline: the LUF domain must prove
// everything the baseline proves (no precision loss). At full corpus
// size the counts must match the paper reproduction's.
func (s *paperSys) finish(ctx context.Context) error {
	for ji, j := range s.jobs {
		_, analyzed := s.proved[ji]
		_, solved := s.solved[ji]
		if analyzed || solved {
			continue
		}
		s.cur = ji
		if err := s.do(ctx); err != nil {
			return fmt.Errorf("%s job after the window: %w", j.kind, err)
		}
	}
	provedNew, losses := 0, 0
	for ji, luf := range s.proved {
		base, err := analyze(ctx, nil, 0, s.jobs[ji].src, false, s.sec72.Depth)
		if err != nil {
			return err
		}
		newProof, lost := compareProofs(base.Asserts, luf)
		losses += lost
		if newProof {
			provedNew++
		}
	}
	if losses > 0 {
		return wrongf("the LUF domain lost precision on %d assertions", losses)
	}
	solvedGA := 0
	for _, ok := range s.solved {
		if ok {
			solvedGA++
		}
	}
	if !s.full {
		return nil
	}
	if provedNew != wantProvedNew {
		return wrongf("%d programs newly proved by the LUF domain, the reproduction records %d", provedNew, wantProvedNew)
	}
	if solvedGA != wantSolvedGA {
		return wrongf("GROUP-ACTION solved %d problems, the reproduction records %d", solvedGA, wantSolvedGA)
	}
	return nil
}

func (s *paperSys) close() {}
