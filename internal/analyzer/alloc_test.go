package analyzer

import (
	"runtime"
	"testing"

	"luf/internal/cfg"
	"luf/internal/lang"
)

// analyzeCost returns the heap bytes one analysis of the Figure 8 program
// allocates under DefaultConfig(true) with the given widening delay,
// averaged over runs analyses, and the number of block interpretations
// each makes.
func analyzeCost(t *testing.T, delay, runs int) (bytes float64, interpreted int) {
	t.Helper()
	g := cfg.Build(lang.MustParse(figure8Src))
	dom := cfg.ToSSA(g)
	build := func() *analysis {
		a := newAnalysis(g, dom, DefaultConfig(true))
		a.widenDelay = delay
		return a
	}
	a := build() // warm up
	a.analyze()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build().analyze()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs), a.interpreted
}

// TestAnalyzeAllocDoesNotScaleWithVisits: the fixpoint state is allocated
// once per run, so the block interpretations that raising the widening
// delay from 2 to 20 adds to one Figure 8 analysis must each allocate
// little. The bound is on the extra bytes per extra interpretation, so a
// fixed per-run allocation neither helps nor hurts it. At its
// introduction it measured 345 B; a state copied on every block
// interpretation raises it to 1,241 B.
func TestAnalyzeAllocDoesNotScaleWithVisits(t *testing.T) {
	base, baseRuns := analyzeCost(t, widenDelay, 200)
	delayed, delayedRuns := analyzeCost(t, 20, 200)
	if delayedRuns <= baseRuns {
		t.Fatalf("widening delay 20 interprets %d blocks, delay 2 %d; want more", delayedRuns, baseRuns)
	}
	perVisit := (delayed - base) / float64(delayedRuns-baseRuns)
	t.Logf("widening delay 2: %.0f B over %d interpretations; delay 20: %.0f B over %d; %.0f B per extra interpretation",
		base, baseRuns, delayed, delayedRuns, perVisit)
	if perVisit > 700 {
		t.Errorf("each extra block interpretation allocates %.0f B; want ≤ 700", perVisit)
	}
}
