package analyzer

import (
	"runtime"
	"testing"

	"luf/internal/cfg"
	"luf/internal/lang"
)

// analyzeCost returns the heap bytes one analysis of the Figure 8 program
// allocates under conf, averaged over runs analyses, and the number of
// block interpretations each makes.
func analyzeCost(t *testing.T, conf Config, runs int) (bytes float64, interpreted int) {
	t.Helper()
	g := cfg.Build(lang.MustParse(figure8Src))
	dom := cfg.ToSSA(g)
	a := newAnalysis(g, dom, conf) // warm up
	a.analyze()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		newAnalysis(g, dom, conf).analyze()
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
	short := DefaultConfig(true)
	long := DefaultConfig(true)
	long.WidenDelay = 20
	base, baseRuns := analyzeCost(t, short, 200)
	delayed, delayedRuns := analyzeCost(t, long, 200)
	if delayedRuns <= baseRuns {
		t.Fatalf("WidenDelay 20 interprets %d blocks, WidenDelay 2 %d; want more", delayedRuns, baseRuns)
	}
	perVisit := (delayed - base) / float64(delayedRuns-baseRuns)
	t.Logf("WidenDelay 2: %.0f B over %d interpretations; WidenDelay 20: %.0f B over %d; %.0f B per extra interpretation",
		base, baseRuns, delayed, delayedRuns, perVisit)
	if perVisit > 700 {
		t.Errorf("each extra block interpretation allocates %.0f B; want ≤ 700", perVisit)
	}
}
