package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"luf/internal/cert"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/solver"
	"luf/internal/solver/corpus"
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

// goldenSolverSHA256 is the hash of the canonical solver result lines
// (see TestSolverResultsGolden).
const goldenSolverSHA256 = "e43753cc76050cfa7280a08a8e9e6ce9007ddaa36480d359e0726c2d31a03eca"

// TestSolverResultsGolden pins the solver's complete output, not just the
// counts TestPaperCountsPinned checks. For every problem of the default
// Table 1 corpus under each variant (DefaultTable1's options and budget),
// one line holds the verdict, steps, relation count, stop reason and the
// problem's witness; then every certificate of a Certify pass over the
// quick corpus, under both relational variants, is rendered with
// cert.Format. A change to the rational arithmetic that moves one witness
// value, step count or certificate label changes the hash.
func TestSolverResultsGolden(t *testing.T) {
	h := sha256.New()
	g := group.QDiff{}
	line := func(name string, v solver.Variant, p *solver.Problem, r solver.Result) {
		fmt.Fprintf(h, "%s %s verdict=%s steps=%d rels=%d stop=%s witness=[", name, v, r.Verdict, r.Steps, r.NumRelations, fault.StopLabel(r.Stop))
		for x := 0; x < p.NumVars; x++ {
			if w, ok := p.Witness[x]; ok {
				fmt.Fprintf(h, " %d=%s", x, g.Key(w))
			}
		}
		fmt.Fprintln(h, " ]")
	}
	full := DefaultTable1()
	opts := full.Opts
	opts.MaxSteps = full.Budget
	for _, p := range corpus.Generate(full.Corpus) {
		for _, v := range Variants {
			line(p.Name, v, p, solver.Solve(p, v, opts))
		}
	}
	quick := quickTable1()
	opts = quick.Opts
	opts.MaxSteps = quick.Budget
	opts.Certify = true
	for _, p := range corpus.Generate(quick.Corpus) {
		for _, v := range []solver.Variant{solver.LabeledUF, solver.GroupAction} {
			r := solver.Solve(p, v, opts)
			line(p.Name, v, p, r)
			for _, c := range r.Certs {
				fmt.Fprintln(h, cert.Format(c, g))
			}
			if r.ConflictCert != nil {
				fmt.Fprintln(h, cert.Format(*r.ConflictCert, g))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSolverSHA256 {
		t.Errorf("solver results hash = %s, want %s", got, goldenSolverSHA256)
	}
}
