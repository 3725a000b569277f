package analyzer

import (
	"runtime"
	"testing"

	"luf/internal/cfg"
	"luf/internal/lang"
)

// analyzeBytes returns the heap bytes one Analyze call of the Figure 8
// program allocates under conf, averaged over runs calls.
func analyzeBytes(t *testing.T, conf Config, runs int) float64 {
	t.Helper()
	g := cfg.Build(lang.MustParse(figure8Src))
	dom := cfg.ToSSA(g)
	Analyze(g, dom, conf) // warm up
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		Analyze(g, dom, conf)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestAnalyzeAllocDoesNotScaleWithVisits: the fixpoint state is allocated
// once per run, so raising the widening delay from 2 to 20 — which
// multiplies the loop head's block visits — must barely move the bytes
// one Figure 8 analysis allocates. A state copied on every block visit
// grows them by about two thirds.
func TestAnalyzeAllocDoesNotScaleWithVisits(t *testing.T) {
	short := DefaultConfig(true)
	long := DefaultConfig(true)
	long.WidenDelay = 20
	base := analyzeBytes(t, short, 200)
	delayed := analyzeBytes(t, long, 200)
	growth := delayed/base - 1
	t.Logf("bytes per run: WidenDelay 2: %.0f, WidenDelay 20: %.0f (%+.0f%%)", base, delayed, 100*growth)
	if growth > 0.30 {
		t.Errorf("allocation grows %.0f%% with WidenDelay 2 → 20; want ≤ 30%%", 100*growth)
	}
}
