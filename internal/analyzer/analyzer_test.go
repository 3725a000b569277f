package analyzer

import (
	"math/rand"
	"testing"

	"luf/internal/analyzer/corpus"
	"luf/internal/cfg"
	"luf/internal/domain"
	"luf/internal/lang"
	"luf/internal/rational"
)

func analyzeSrc(t *testing.T, src string, conf Config) (*Result, *cfg.Graph) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g := cfg.Build(prog)
	dom := cfg.ToSSA(g)
	if err := cfg.Validate(g, dom); err != nil {
		t.Fatal(err)
	}
	return Analyze(g, dom, conf), g
}

// phiValueOf returns the final value of the (unique) φ defined from the
// named source variable.
func phiValueOf(t *testing.T, g *cfg.Graph, res *Result, name string) domain.IC {
	t.Helper()
	for _, b := range g.Blocks {
		for _, in := range b.Instrs {
			if phi, ok := in.(cfg.IPhi); ok && g.VarName[phi.Var] == name {
				return res.Values[phi.Var]
			}
		}
	}
	t.Fatalf("no φ for %q", name)
	return domain.Bottom()
}

const figure8Src = `
int i = 0;
int j = 4;
while (i < 10) {
  i = i + 1;
  j = j + 3;
}
assert(j == 34);
assert(i == 10);
`

// TestFigure8 reproduces the paper's Figure 8: without LUF the analysis
// ends with i = 10 but j ∈ [4;+∞] ∧ 1 mod 3; with the TVPE union-find the
// relation j = 3i + 4 survives the loop and widening, giving j = 34.
func TestFigure8(t *testing.T) {
	base, g := analyzeSrc(t, figure8Src, DefaultConfig(false))
	if base.Asserts[1] != AssertProved {
		t.Errorf("baseline should prove i == 10 (narrowing), got %v", base.Asserts[1])
	}
	if base.Asserts[0] == AssertProved {
		t.Errorf("baseline should NOT prove j == 34")
	}
	jBase := phiValueOf(t, g, base, "j")
	if !jBase.I().HiInf {
		t.Errorf("baseline j = %s; expected unbounded above", jBase)
	}
	if m, r, ok := jBase.C().Mod(); !ok || !m.Eq(rational.QInt(3)) || !r.Eq(rational.QInt(1)) {
		t.Errorf("baseline j congruence = %s; want 1 mod 3", jBase.C())
	}

	withLUF, g2 := analyzeSrc(t, figure8Src, DefaultConfig(true))
	if withLUF.Asserts[0] != AssertProved {
		t.Errorf("LUF should prove j == 34, got %v", withLUF.Asserts[0])
	}
	if withLUF.Asserts[1] != AssertProved {
		t.Errorf("LUF should prove i == 10, got %v", withLUF.Asserts[1])
	}
	if withLUF.Stats.Unions == 0 {
		t.Error("LUF run performed no unions")
	}
	// The relation j = 3i + 4 bounds the φ value of j: [4; 34].
	jLUF := phiValueOf(t, g2, withLUF, "j")
	if jLUF.I().HiInf || !jLUF.I().Hi.Eq(rational.QInt(34)) {
		t.Errorf("LUF j = %s; want upper bound 34", jLUF)
	}
}

// TestCorpusProofSoundness: the analyzer must never prove an assertion
// whose ground truth is false, in any configuration.
func TestCorpusProofSoundness(t *testing.T) {
	configs := []Config{
		DefaultConfig(false),
		DefaultConfig(true),
		{UseLUF: false, PropagationDepth: 2},
		{UseLUF: true, PropagationDepth: 2},
	}
	for _, cp := range corpus.Handcrafted() {
		prog := lang.MustParse(cp.Src)
		for _, conf := range configs {
			g := cfg.Build(prog)
			dom := cfg.ToSSA(g)
			res := Analyze(g, dom, conf)
			for id, hold := range cp.WantHold {
				if !hold && res.Asserts[id] == AssertProved {
					t.Errorf("%s (luf=%v depth=%d): proved FALSE assertion %d",
						cp.Name, conf.UseLUF, conf.PropagationDepth, id)
				}
			}
		}
	}
}

// TestLUFNeverLosesProofs: enabling the domain must not lose any proof
// (the paper reports no precision losses).
func TestLUFNeverLosesProofs(t *testing.T) {
	for _, cp := range corpus.Handcrafted() {
		prog := lang.MustParse(cp.Src)
		gB := cfg.Build(prog)
		domB := cfg.ToSSA(gB)
		base := Analyze(gB, domB, DefaultConfig(false))
		gL := cfg.Build(prog)
		domL := cfg.ToSSA(gL)
		withLUF := Analyze(gL, domL, DefaultConfig(true))
		for id := range base.Asserts {
			if base.Asserts[id] == AssertProved && withLUF.Asserts[id] != AssertProved {
				t.Errorf("%s: assertion %d proved by baseline but lost with LUF", cp.Name, id)
			}
		}
	}
}

// TestLUFGains: the corpus programs designed around relational invariants
// must be provable only with the LUF domain.
func TestLUFGains(t *testing.T) {
	gains := map[string][]int{
		"figure8":           {0},
		"widening-recovery": {0},
		"deep-chain":        {0},
	}
	for _, cp := range corpus.Handcrafted() {
		ids, interesting := gains[cp.Name]
		if !interesting {
			continue
		}
		prog := lang.MustParse(cp.Src)
		gB := cfg.Build(prog)
		base := Analyze(gB, cfg.ToSSA(gB), DefaultConfig(false))
		gL := cfg.Build(prog)
		withLUF := Analyze(gL, cfg.ToSSA(gL), DefaultConfig(true))
		for _, id := range ids {
			if base.Asserts[id] == AssertProved {
				t.Errorf("%s: assertion %d unexpectedly proved by baseline", cp.Name, id)
			}
			if withLUF.Asserts[id] != AssertProved {
				t.Errorf("%s: assertion %d not proved with LUF", cp.Name, id)
			}
		}
	}
}

// TestSoundnessAgainstConcreteRuns is the global soundness oracle: every
// value observed in any concrete (possibly partial) execution must lie in
// the analyzer's final abstract value for that SSA value.
func TestSoundnessAgainstConcreteRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	configs := []Config{DefaultConfig(false), DefaultConfig(true), {UseLUF: true, PropagationDepth: 2}}

	checkProgram := func(name, src string) {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for ci, conf := range configs {
			g := cfg.Build(prog)
			dom := cfg.ToSSA(g)
			res := Analyze(g, dom, conf)
			for run := 0; run < 15; run++ {
				inputs := make([]int64, 12)
				for i := range inputs {
					inputs[i] = int64(rng.Intn(61) - 25)
				}
				rres, vals, defined := cfg.RunSSATrack(g, inputs, 30000)
				if rres.Blocked || rres.OutOfFuel {
					// Values are block-end invariants of complete
					// executions; partial runs are not observations.
					continue
				}
				for v := 1; v < g.NumVars; v++ {
					if !defined[v] {
						continue
					}
					if !res.Values[v].Contains(rational.QInt(vals[v])) {
						t.Fatalf("%s (config %d): v%d (%s) = %d not in %s\ninputs %v",
							name, ci, v, g.VarName[v], vals[v], res.Values[v], inputs)
					}
				}
			}
		}
	}

	for _, cp := range corpus.Handcrafted() {
		checkProgram(cp.Name, cp.Src)
	}
	for trial := 0; trial < 60; trial++ {
		checkProgram("random", corpus.Random(rng))
	}
}

func TestStatsPopulated(t *testing.T) {
	res, _ := analyzeSrc(t, figure8Src, DefaultConfig(true))
	s := res.Stats
	if s.SSAValues == 0 || s.AddRelationCalls == 0 || s.MaxClassSize < 2 || s.ValuesInUnions == 0 {
		t.Errorf("stats look empty: %+v", s)
	}
	base, _ := analyzeSrc(t, figure8Src, DefaultConfig(false))
	if base.Stats.AddRelationCalls != 0 {
		t.Error("baseline must not touch the union-find")
	}
}

// TestDepthLimitExperiment: with the propagation depth lowered to 2, the
// baseline loses precision on the deep chain while the LUF run keeps it —
// the Section 7.2 second experiment's mechanism.
func TestDepthLimitExperiment(t *testing.T) {
	var deep corpus.Program
	for _, cp := range corpus.Handcrafted() {
		if cp.Name == "deep-chain" {
			deep = cp
		}
	}
	prog := lang.MustParse(deep.Src)
	gB := cfg.Build(prog)
	base := Analyze(gB, cfg.ToSSA(gB), Config{UseLUF: false, PropagationDepth: 2})
	gL := cfg.Build(prog)
	withLUF := Analyze(gL, cfg.ToSSA(gL), Config{UseLUF: true, PropagationDepth: 2})
	if base.Asserts[0] == AssertProved {
		t.Error("depth-2 baseline should not prove the deep chain assert")
	}
	if withLUF.Asserts[0] != AssertProved {
		t.Error("depth-2 LUF should prove the deep chain assert via the relational class")
	}
}

// TestRestartRetractsUnsoundPhiRelation: a program where the first loop
// iteration accidentally suggests a line that later iterations refute.
func TestRestartRetractsUnsoundPhiRelation(t *testing.T) {
	src := `
int i = 0;
int j = 4;
while (i < 8) {
  i = i + 1;
  j = j + i;
}
assert(j >= 4);
`
	res, g := analyzeSrc(t, src, DefaultConfig(true))
	// Soundness: concrete final j = 4+1+2+...+8 = 40 must be contained.
	rres, vals, defined := cfg.RunSSATrack(g, nil, 10000)
	if rres.Blocked || rres.OutOfFuel {
		t.Fatal("run should complete")
	}
	for v := 1; v < g.NumVars; v++ {
		if defined[v] && !res.Values[v].Contains(rational.QInt(vals[v])) {
			t.Fatalf("v%d (%s) = %d not in %s (unsound φ relation kept?)",
				v, g.VarName[v], vals[v], res.Values[v])
		}
	}
	if res.Asserts[0] != AssertProved {
		t.Errorf("j >= 4 should still be provable, got %v", res.Asserts[0])
	}
}
