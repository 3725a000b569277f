package bench

import (
	"testing"

	"luf/internal/solver"
)

// TestPaperCountsPinned pins the exact counts behind the §7.2 and Table 1
// shapes at the scale of TestSec72Shape and TestTable1Shape. The shape
// tests only check signs and orderings, so an arithmetic change that
// shifts precision (a lost proof, a gained alarm, one problem more or
// less solved) would still pass them; this test would not.
func TestPaperCountsPinned(t *testing.T) {
	type sec72Counts struct {
		improved, newProof, losses, alarmsBase, alarmsLUF int
	}
	for _, tc := range []struct {
		depth int
		want  sec72Counts
	}{
		{1000, sec72Counts{improved: 4, newProof: 9, losses: 0, alarmsBase: 37, alarmsLUF: 26}},
		{2, sec72Counts{improved: 22, newProof: 27, losses: 0, alarmsBase: 55, alarmsLUF: 26}},
	} {
		r := RunSec72(Sec72Config{NumPrograms: 120, Depth: tc.depth})
		got := sec72Counts{r.ImprovedPrograms, r.NewProofPrograms, r.PrecisionLosses, r.AlarmsBase, r.AlarmsLUF}
		if got != tc.want {
			t.Errorf("§7.2 depth %d: got %+v, want %+v", tc.depth, got, tc.want)
		}
	}
	// Table 1: problems solved within the budget, and total solver steps,
	// per variant.
	res := RunTable1(quickTable1())
	want := map[solver.Variant][2]int{
		solver.Base:        {68, 59995},
		solver.LabeledUF:   {84, 65146},
		solver.GroupAction: {82, 66833},
	}
	for _, v := range Variants {
		steps := 0
		for _, n := range res.Steps[v] {
			steps += n
		}
		if got := [2]int{res.SolvedCount[v], steps}; got != want[v] {
			t.Errorf("Table 1 %s: (solved, steps) = %v, want %v", v, got, want[v])
		}
	}
}
