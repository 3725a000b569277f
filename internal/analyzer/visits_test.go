package analyzer

import (
	"slices"
	"strings"
	"testing"

	"luf/internal/analyzer/corpus"
	"luf/internal/cfg"
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
