package analyzer

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"luf/internal/analyzer/corpus"
	"luf/internal/cfg"
	"luf/internal/domain"
	"luf/internal/group"
	"luf/internal/lang"
	"luf/internal/rational"
)

// TestUnionMakesIdleBlocksRun: a union made after a block's last
// interpretation must make the block run again, because a union is how
// processBlock's relations and classes change. The corpus goldens cannot
// catch a fixpoint that forgets this input (on the corpus it happens to
// reach the same results), so the skip decision is checked directly: on
// the Figure 8 fixpoint, every block that is idle at the end stops being
// idle once two unrelated values are united.
func TestUnionMakesIdleBlocksRun(t *testing.T) {
	g := cfg.Build(lang.MustParse(figure8Src))
	dom := cfg.ToSSA(g)
	a := newAnalysis(g, dom, DefaultConfig(true))
	a.analyze()
	var idle []int
	for _, b := range dom.RPO {
		if a.visits.idle(b, g.Blocks[b].Preds, false, a.unions()) {
			idle = append(idle, b)
		}
	}
	if len(idle) == 0 {
		t.Fatal("no block is idle after the fixpoint; the check below would prove nothing")
	}
	n, m := -1, -1
	for v := 1; v < g.NumVars && m < 0; v++ {
		if n < 0 {
			n = v
		} else if _, related := a.luf.Relation(n, v); !related {
			m = v
		}
	}
	if m < 0 {
		t.Fatal("every value is in one class; no union left to make")
	}
	unions := a.unions()
	a.luf.Relate(n, m, group.Affine{A: rational.QInt(1), B: rational.QInt(1)})
	if a.unions() != unions+1 {
		t.Fatalf("relating v%d and v%d made %d unions, want 1", n, m, a.unions()-unions)
	}
	for _, b := range idle {
		if a.visits.idle(b, g.Blocks[b].Preds, false, a.unions()) {
			t.Errorf("block %d is still idle after a union", b)
		}
	}
}

// TestPlainVisitsHalved: on the corpus' relation-light Plain programs the
// change-driven fixpoint interprets the median program's blocks at most
// 22 times in all. The round-robin fixpoint, which re-ran every reachable
// block every round, interpreted them 47 times.
func TestPlainVisitsHalved(t *testing.T) {
	var visits []int
	for _, cp := range corpus.Scaled(584) {
		if !strings.HasPrefix(cp.Name, "plain-") {
			continue
		}
		g := cfg.Build(lang.MustParse(cp.Src))
		a := newAnalysis(g, cfg.ToSSA(g), DefaultConfig(true))
		a.analyze()
		visits = append(visits, a.interpreted)
	}
	slices.Sort(visits)
	if med := visits[len(visits)/2]; med > 22 {
		t.Errorf("median Plain program interprets %d blocks, want ≤ 22", med)
	}
}

// forEachAnalysis runs every program of the 584-program corpus and 300
// seeded corpus.Random programs at propagation depths 1000 and 2, without
// and with the LUF domain, and hands each finished analysis to fn.
func forEachAnalysis(t *testing.T, fn func(name string, a *analysis)) {
	t.Helper()
	var srcs, names []string
	for _, cp := range corpus.Scaled(584) {
		srcs, names = append(srcs, cp.Src), append(names, cp.Name)
	}
	rng := rand.New(rand.NewSource(25))
	for i := range 300 {
		srcs, names = append(srcs, corpus.Random(rng)), append(names, fmt.Sprintf("random %d", i))
	}
	for i, src := range srcs {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		for _, depth := range []int{1000, 2} {
			for _, useLUF := range []bool{false, true} {
				g := cfg.Build(prog)
				a := newAnalysis(g, cfg.ToSSA(g), Config{UseLUF: useLUF, PropagationDepth: depth})
				a.analyze()
				fn(fmt.Sprintf("%s depth=%d luf=%v", names[i], depth, useLUF), a)
			}
		}
	}
}

// TestFinalStageReadsSettledBlocks: the final stage interprets again only
// the blocks that are not settled (not idle, or whose last interpretation
// was cut short), and reads every other one. A read block's assertion
// outcomes must have been recorded by that block's last interpretation;
// an older record would be stale.
func TestFinalStageReadsSettledBlocks(t *testing.T) {
	var reran, read int
	forEachAnalysis(t, func(name string, a *analysis) {
		g := a.g
		unions := a.unions()
		for _, b := range a.finalRuns {
			if a.visits.settled(b, g.Blocks[b].Preds, unions) {
				t.Fatalf("%s: the final stage interpreted settled block %d", name, b)
			}
		}
		reran += len(a.finalRuns)
		for _, b := range a.dom.RPO {
			if !a.visits.settled(b, g.Blocks[b].Preds, unions) {
				continue
			}
			read++
			for _, in := range g.Blocks[b].Instrs {
				if as, ok := in.(cfg.IAssert); ok && a.seen[as.ID].at != a.visits.last[b] {
					t.Fatalf("%s: assertion %d of block %d was recorded by interpretation %d, its last is %d",
						name, as.ID, b, a.seen[as.ID].at, a.visits.last[b])
				}
			}
		}
	})
	t.Logf("final stage: %d blocks interpreted again, %d read", reran, read)
	// At the fold's introduction: 8 interpreted again, 28,924 read.
	if reran*100 > read {
		t.Errorf("the final stage read %d blocks and interpreted %d; want under 1%% interpreted", read, reran)
	}
}

// TestStateWritesReduced: every value the analyzer writes into a state is
// reduced. state.join, statesEq and refineValue take shortcuts that are
// exact only on reduced values.
func TestStateWritesReduced(t *testing.T) {
	var writes, unreduced int
	var example domain.IC
	auditWrite = func(x domain.IC) {
		writes++
		if !x.Reduce().Eq(x) {
			if unreduced == 0 {
				example = x
			}
			unreduced++
		}
	}
	defer func() { auditWrite = nil }()
	forEachAnalysis(t, func(string, *analysis) {})
	t.Logf("%d state writes checked", writes)
	if writes == 0 {
		t.Fatal("no state write was seen")
	}
	if unreduced > 0 {
		t.Errorf("%d of %d state writes were unreduced, the first %s ∧ %s", unreduced, writes, example.I(), example.C())
	}
}

// TestAnalyzerStatesInline: every value the analyzer writes into a state,
// over the corpus and the seeded random programs at both depths, is in
// domain.IC's inline int64 form, and a state slot stays small. A value
// that leaves the int64 form, or a wider layout, fails here rather than
// only slowing the analyzer down.
func TestAnalyzerStatesInline(t *testing.T) {
	if size := unsafe.Sizeof(domain.IC{}); size > 48 {
		t.Errorf("domain.IC is %d bytes, want at most 48", size)
	}
	if size := unsafe.Sizeof(slot{}); size > 56 {
		t.Errorf("a state slot is %d bytes, want at most 56", size)
	}
	var writes, general int
	var example domain.IC
	auditWrite = func(x domain.IC) {
		writes++
		if !x.Inline() {
			if general == 0 {
				example = x
			}
			general++
		}
	}
	defer func() { auditWrite = nil }()
	forEachAnalysis(t, func(string, *analysis) {})
	t.Logf("%d state writes checked", writes)
	if writes == 0 {
		t.Fatal("no state write was seen")
	}
	if general > 0 {
		t.Errorf("%d of %d state writes were in the general form, the first %s", general, writes, example)
	}
}
