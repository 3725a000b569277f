package wrel

import (
	"math/rand"
	"testing"

	"luf/internal/group"
	"luf/internal/interval"
	"luf/internal/rational"
)

// TestFigure1Saturation reproduces the shape of Figure 1: a graph where two
// paths between x and y exist, and saturation combines them with the meet.
// Variables: x=0, y=1, z=2. Direct edge x→y: [1;2]; path x→z: [-5;8],
// z→y: [-9;3] composes to [-14;11]; saturation keeps [1;2] on x→y and
// *tightens nothing further on it*, but derives constraints on the other
// pairs.
func TestFigure1Saturation(t *testing.T) {
	g := NewGraph[interval.Itv](ItvDiff{}, 3)
	g.Add(0, 1, Diff(1, 2))
	g.Add(0, 2, Diff(-5, 8))
	g.Add(2, 1, Diff(-9, 3))
	if !g.Saturate() {
		t.Fatal("satisfiable graph reported bottom")
	}
	// x→y keeps the tighter [1;2] (meet of [1;2] and [-14;11]).
	r, ok := g.Get(0, 1)
	if !ok || !r.Eq(Diff(1, 2)) {
		t.Errorf("x→y = %s", r)
	}
	// x→z improves: z - x = (z - y) + (y - x) ∈ [-3;9] meet [-5;8] = [-3;8].
	r, ok = g.Get(0, 2)
	if !ok || !r.Eq(Diff(-2, 8)) {
		t.Errorf("x→z = %s, want [-2; 8]", r)
	}
	// z→y improves: y - z = (y - x) + (x - z) ∈ [1;2]+[-8;5] = [-7;7] meet [-9;3] = [-7;3].
	r, ok = g.Get(2, 1)
	if !ok || !r.Eq(Diff(-7, 3)) {
		t.Errorf("z→y = %s, want [-7; 3]", r)
	}
	// The two-path unique-label failure of Section 2.2: [-5;8];[-9;3] ≠ [1;2].
	through := (ItvDiff{}).Compose(Diff(-5, 8), Diff(-9, 3))
	if through.Eq(Diff(1, 2)) {
		t.Error("interval difference should violate the unique-label hypothesis here")
	}
}

func TestSaturationDetectsBottom(t *testing.T) {
	g := NewGraph[interval.Itv](ItvDiff{}, 3)
	g.Add(0, 1, ExactDiff(1))
	g.Add(1, 2, ExactDiff(1))
	g.Add(0, 2, ExactDiff(5)) // contradicts 0→2 = 2
	if g.Saturate() {
		t.Fatal("contradictory cycle not detected")
	}
	if !g.IsBottom() {
		t.Error("bottom flag not set")
	}
}

func TestAddMeetsExisting(t *testing.T) {
	g := NewGraph[interval.Itv](ItvDiff{}, 2)
	g.Add(0, 1, Diff(0, 10))
	g.Add(0, 1, Diff(5, 20))
	r, _ := g.Get(0, 1)
	if !r.Eq(Diff(5, 10)) {
		t.Errorf("meet on Add = %s", r)
	}
	// Reverse orientation stores the inverse.
	g.Add(1, 0, Diff(-7, -6))
	r, _ = g.Get(0, 1)
	if !r.Eq(Diff(6, 7)) {
		t.Errorf("inverted Add = %s", r)
	}
	// Contradiction.
	if g.Add(0, 1, Diff(100, 200)) {
		t.Error("contradictory Add must fail")
	}
	if !g.IsBottom() {
		t.Error("bottom flag")
	}
}

func TestTopEdgesDropped(t *testing.T) {
	g := NewGraph[interval.Itv](ItvDiff{}, 2)
	g.Add(0, 1, interval.Top())
	if g.NumEdges() != 0 {
		t.Error("top edge must not be stored")
	}
}

func TestEliminationToSpanningTree(t *testing.T) {
	// Figure 2: with constant differences (unique labels), a saturated
	// complete graph eliminates down to a spanning tree: n-1 edges.
	g := NewGraph[interval.Itv](ItvDiff{}, 5)
	vals := []int64{0, 3, 7, 1, -2}
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			g.Add(i, j, ExactDiff(vals[j]-vals[i]))
		}
	}
	if g.NumEdges() != 10 {
		t.Fatalf("complete graph should have 10 edges, got %d", g.NumEdges())
	}
	g.Eliminate()
	if g.NumEdges() != 4 {
		t.Errorf("eliminated graph has %d edges, want 4 (spanning tree)", g.NumEdges())
	}
	// All information must be recoverable by saturation.
	g2 := g.Clone()
	g2.Saturate()
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			r, ok := g2.Get(i, j)
			if !ok || !r.Eq(ExactDiff(vals[j]-vals[i])) {
				t.Errorf("lost constraint (%d,%d) after eliminate+saturate: %s", i, j, r)
			}
		}
	}
}

func TestSaturationSoundAndReductive(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		const n = 7
		// Build a satisfiable graph around a hidden valuation.
		sigma := make([]int64, n)
		for i := range sigma {
			sigma[i] = int64(rng.Intn(41) - 20)
		}
		g := NewGraph[interval.Itv](ItvDiff{}, n)
		for e := 0; e < 12; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			d := sigma[j] - sigma[i]
			slackLo, slackHi := int64(rng.Intn(5)), int64(rng.Intn(5))
			g.Add(i, j, Diff(d-slackLo, d+slackHi))
		}
		before := g.Clone()
		if !g.Saturate() {
			t.Fatalf("trial %d: satisfiable graph closed to bottom", trial)
		}
		// σ still satisfies the saturated graph (soundness of propagation).
		if !Sat(g, sigma) {
			t.Fatalf("trial %d: saturation dropped the witness valuation", trial)
		}
		// Saturation is a reduction: every original constraint is implied
		// (W* ⊑ W edge-wise).
		before.Edges(func(i, j int, r interval.Itv) {
			s, ok := g.Get(i, j)
			if !ok || !s.Leq(r) {
				t.Fatalf("trial %d: saturated weaker than original on (%d,%d)", trial, i, j)
			}
		})
		// Saturation is idempotent.
		again := g.Clone()
		again.Saturate()
		g.Edges(func(i, j int, r interval.Itv) {
			s, ok := again.Get(i, j)
			if !ok || !s.Eq(r) {
				t.Fatalf("trial %d: saturation not idempotent at (%d,%d)", trial, i, j)
			}
		})
	}
}

func TestGroupRelFlatMeet(t *testing.T) {
	g := NewGraph[group.DeltaLabel](GroupRel[group.DeltaLabel]{G: group.Delta{}}, 4)
	g.Add(0, 1, 5)
	if g.Add(0, 1, 5) != true {
		t.Error("same label must be fine")
	}
	if g.Add(0, 1, 6) {
		t.Error("distinct labels must meet to bottom (flat lattice)")
	}
	if !g.IsBottom() {
		t.Error("bottom flag")
	}
}

func TestGroupRelSaturation(t *testing.T) {
	// With constant differences the saturated graph is the transitive
	// closure with exact composed labels.
	g := NewGraph[group.DeltaLabel](GroupRel[group.DeltaLabel]{G: group.Delta{}}, 4)
	g.Add(0, 1, 1)
	g.Add(1, 2, 2)
	g.Add(2, 3, 3)
	if !g.Saturate() {
		t.Fatal("bottom")
	}
	r, ok := g.Get(0, 3)
	if !ok || r != 6 {
		t.Errorf("0→3 = %d,%v", r, ok)
	}
	// Consistent cycle is fine.
	if !g.Add(3, 0, -6) || !g.Saturate() {
		t.Error("consistent cycle rejected")
	}
	// Inconsistent cycle detected during saturation.
	g2 := NewGraph[group.DeltaLabel](GroupRel[group.DeltaLabel]{G: group.Delta{}}, 3)
	g2.Add(0, 1, 1)
	g2.Add(1, 2, 1)
	g2.Add(0, 2, 5)
	if g2.Saturate() {
		t.Error("inconsistent triangle not detected")
	}
}

func TestDBMBasics(t *testing.T) {
	d := NewDBM(3)
	// x1 - x0 ∈ [1;2], x2 - x1 ∈ [3;4].
	d.AddDiff(0, 1, rational.QInt(1), rational.QInt(2))
	d.AddDiff(1, 2, rational.QInt(3), rational.QInt(4))
	if !d.Close() {
		t.Fatal("bottom")
	}
	hi, ok := d.Get(0, 2)
	if !ok || !hi.Eq(rational.QInt(6)) {
		t.Errorf("upper x2-x0 = %v", hi)
	}
	lo, ok := d.Get(2, 0)
	if !ok || !lo.Eq(rational.QInt(-4)) {
		t.Errorf("upper x0-x2 = %v (i.e. lower bound 4)", lo)
	}
}

func TestDBMNegativeCycle(t *testing.T) {
	d := NewDBM(2)
	d.AddUpper(0, 1, rational.QInt(-1)) // x1 - x0 <= -1
	d.AddUpper(1, 0, rational.QInt(0))  // x0 - x1 <= 0
	if d.Close() {
		t.Error("negative cycle not detected")
	}
	if !d.IsBottom() {
		t.Error("bottom flag")
	}
}

func TestDBMAgainstGraphClosure(t *testing.T) {
	// DBM closure and the generic interval-difference graph saturation
	// must produce the same bounds.
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 25; trial++ {
		const n = 6
		sigma := make([]int64, n)
		for i := range sigma {
			sigma[i] = int64(rng.Intn(21) - 10)
		}
		g := NewGraph[interval.Itv](ItvDiff{}, n)
		d := NewDBM(n)
		for e := 0; e < 10; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			diff := sigma[j] - sigma[i]
			lo, hi := diff-int64(rng.Intn(4)), diff+int64(rng.Intn(4))
			g.Add(i, j, Diff(lo, hi))
			d.AddDiff(i, j, rational.QInt(lo), rational.QInt(hi))
		}
		okG := g.Saturate()
		okD := d.Close()
		if okG != okD {
			t.Fatalf("trial %d: divergent bottom", trial)
		}
		if !okG {
			continue
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				r, okR := g.Get(i, j)
				hi, okB := d.Get(i, j)
				if okR && !r.HiInf {
					if !okB || !hi.Eq(r.Hi) {
						t.Fatalf("trial %d (%d,%d): dbm=%v graph=%s", trial, i, j, hi, r)
					}
				} else if okB {
					t.Fatalf("trial %d (%d,%d): dbm bounded, graph not", trial, i, j)
				}
			}
		}
		if !d.SatDBM(sigma) {
			t.Fatalf("trial %d: witness dropped by DBM", trial)
		}
	}
}

func TestDBMClone(t *testing.T) {
	d := NewDBM(2)
	d.AddUpper(0, 1, rational.QInt(5))
	c := d.Clone()
	c.AddUpper(0, 1, rational.QInt(1))
	if hi, _ := d.Get(0, 1); !hi.Eq(rational.QInt(5)) {
		t.Error("Clone not deep")
	}
}

func TestGraphString(t *testing.T) {
	g := NewGraph[interval.Itv](ItvDiff{}, 2)
	g.Add(0, 1, Diff(1, 2))
	if g.String() == "" {
		t.Error("String empty")
	}
	g.SetBottom()
	if g.String() != "⊥" {
		t.Error("bottom String")
	}
}

func TestAccessorsAndFormat(t *testing.T) {
	g := NewGraph[interval.Itv](ItvDiff{}, 4)
	if g.N() != 4 {
		t.Errorf("N = %d", g.N())
	}
	if !(ItvDiff{}).Eq(Diff(1, 2), Diff(1, 2)) || (ItvDiff{}).Eq(Diff(1, 2), Diff(1, 3)) {
		t.Error("ItvDiff.Eq")
	}
	gr := GroupRel[group.DeltaLabel]{G: group.Delta{}}
	if !gr.Eq(3, 3) || gr.Eq(3, 4) || !gr.Leq(3, 3) || gr.Leq(3, 4) {
		t.Error("GroupRel Eq/Leq")
	}
	if gr.Format(3) != "+3" {
		t.Errorf("GroupRel.Format = %q", gr.Format(3))
	}
	oct := OctRel{}
	if !oct.Eq(OctDiff(1, 2), OctDiff(1, 2)) || oct.Eq(OctDiff(1, 2), OctSum(1, 2)) {
		t.Error("OctRel.Eq")
	}
	if oct.Format(OctDiff(1, 2)) == "" {
		t.Error("OctRel.Format")
	}
	d := NewDBM(3)
	if d.N() != 3 {
		t.Errorf("DBM.N = %d", d.N())
	}
	d.AddUpper(0, 1, rational.QInt(5))
	if s := d.String(); s != "x1-x0<=5" {
		t.Errorf("DBM.String = %q", s)
	}
	d.AddUpper(0, 1, rational.QInt(-1))
	d.AddUpper(1, 0, rational.QInt(0))
	d.Close()
	if d.String() != "⊥" {
		t.Errorf("bottom DBM.String = %q", d.String())
	}
}

// TestGraphOutputDeterministic: String and Edges follow ascending (i, j),
// so rendering a graph is byte-identical from run to run even though the
// edges live in a map whose iteration order Go randomizes per loop.
func TestGraphOutputDeterministic(t *testing.T) {
	g := NewGraph[interval.Itv](ItvDiff{}, 6)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			g.Add(j, i, Diff(int64(i-j), int64(j)))
		}
	}
	if g.NumEdges() < 9 {
		t.Fatalf("graph has %d edges, want ≥ 9", g.NumEdges())
	}
	want := g.String()
	var edges [][2]int
	g.Edges(func(i, j int, _ interval.Itv) { edges = append(edges, [2]int{i, j}) })
	for k := 1; k < len(edges); k++ {
		if a, b := edges[k-1], edges[k]; a[0] > b[0] || a[0] == b[0] && a[1] >= b[1] {
			t.Fatalf("Edges visits %v before %v", a, b)
		}
	}
	for run := 0; run < 20; run++ {
		if got := g.String(); got != want {
			t.Fatalf("render %d differs:\n%s\nwant:\n%s", run, got, want)
		}
	}
}
