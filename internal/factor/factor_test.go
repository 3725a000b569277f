package factor

import (
	"math/rand"
	"testing"

	"luf/internal/cert"
	"luf/internal/core"
	"luf/internal/domain"
	"luf/internal/group"
	"luf/internal/interval"
	"luf/internal/rational"
	"luf/internal/wrel"
)

func TestTVPEMapBasic(t *testing.T) {
	m := NewTVPEMap[string]()
	// j = 3i + 4 (Figure 8's invariant).
	m.Relate("i", "j", group.AffineInt(3, 4))
	m.Refine("i", domain.FromInterval(interval.RangeInt(0, 10)).MeetInt())
	j := m.Value("j")
	if !j.I().Eq(interval.RangeInt(4, 34)) {
		t.Errorf("j = %s", j)
	}
	// Congruence says j ≡ 1 mod 3.
	if mm, r, ok := j.C().Mod(); !ok || !mm.Eq(rational.QInt(3)) || !r.Eq(rational.QInt(1)) {
		t.Errorf("j congruence = %s", j.C())
	}
	// Refining j refines i through the class.
	m.Refine("j", domain.FromInterval(interval.RangeInt(10, 20)))
	i := m.Value("i")
	if !i.I().Eq(interval.RangeInt(2, 5)) {
		t.Errorf("i after j refinement = %s", i)
	}
}

func TestTVPEMapConflictIntersect(t *testing.T) {
	m := NewTVPEMap[string]()
	m.Relate("x", "y", group.AffineInt(2, 3)) // y = 2x + 3
	m.Relate("x", "y", group.AffineInt(1, 5)) // y = x + 5 ⟹ x = 2, y = 7
	if m.IsBottom() {
		t.Fatal("intersecting lines are satisfiable")
	}
	if v, ok := m.Value("x").IsConst(); !ok || !v.Eq(rational.QInt(2)) {
		t.Errorf("x = %s", m.Value("x"))
	}
	if v, ok := m.Value("y").IsConst(); !ok || !v.Eq(rational.QInt(7)) {
		t.Errorf("y = %s", m.Value("y"))
	}
}

func TestTVPEMapConflictParallel(t *testing.T) {
	m := NewTVPEMap[string]()
	m.Relate("x", "y", group.AffineInt(2, 3))
	m.Relate("x", "y", group.AffineInt(2, 4)) // parallel: unsat
	if !m.IsBottom() {
		t.Fatal("parallel lines must be bottom")
	}
	if !m.Value("x").IsBottom() {
		t.Error("values must be bottom")
	}
}

func TestTVPEMapBottomOnEmptyRefine(t *testing.T) {
	m := NewTVPEMap[string]()
	m.Relate("x", "y", group.AffineInt(1, 10))
	m.Refine("x", domain.FromInterval(interval.RangeInt(0, 5)))
	m.Refine("y", domain.FromInterval(interval.RangeInt(100, 105)))
	if !m.IsBottom() {
		t.Error("incompatible refinements must reach bottom")
	}
}

// TestFactorizationMatchesPropagation cross-checks Theorem 5.6: the
// factorized map gives the same values as explicit pairwise refinement
// over the saturated relation graph.
func TestFactorizationMatchesPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 30; trial++ {
		const n = 8
		m := NewTVPEMap[int](core.WithSeed[int, group.Affine](int64(trial)))
		type relEdge struct {
			x, y int
			l    group.Affine
		}
		var edges []relEdge
		// Random spanning-ish relations (avoiding conflicts by chaining).
		for i := 1; i < n; i++ {
			x := rng.Intn(i)
			a := int64(rng.Intn(3) + 1)
			b := int64(rng.Intn(11) - 5)
			l := group.AffineInt(a, b)
			m.Relate(x, i, l)
			edges = append(edges, relEdge{x, i, l})
		}
		// Random value constraints.
		vals := make([]domain.IC, n)
		for i := range vals {
			vals[i] = domain.Top()
		}
		for k := 0; k < 5; k++ {
			v := rng.Intn(n)
			lo := int64(rng.Intn(41) - 20)
			iv := domain.FromInterval(interval.RangeInt(lo, lo+int64(rng.Intn(30))))
			m.Refine(v, iv)
			vals[v] = vals[v].Meet(iv)
		}
		if m.IsBottom() {
			continue // fine; skip comparison
		}
		// Reference: fixpoint of pairwise refinement over all relations.
		ref := append([]domain.IC(nil), vals...)
		for iter := 0; iter < 40; iter++ {
			changed := false
			for _, e := range edges {
				nx, ny := domain.RefineAffine(e.l, ref[e.x], ref[e.y])
				if !nx.Eq(ref[e.x]) || !ny.Eq(ref[e.y]) {
					ref[e.x], ref[e.y] = nx, ny
					changed = true
				}
			}
			if !changed {
				break
			}
		}
		for v := 0; v < n; v++ {
			got := m.Value(v)
			if !got.Eq(ref[v]) {
				t.Fatalf("trial %d var %d: factorized %s != propagated %s", trial, v, got, ref[v])
			}
		}
	}
}

func TestQuotientFigure3(t *testing.T) {
	// Figure 3: 5 variables z=0, u=1, y=2, x=3, v=4; classes {z,u} and
	// {y,x,v}; constraints between classes stored only between reps.
	uf := core.New[int, group.DeltaLabel](group.Delta{}, core.WithSeed[int, group.DeltaLabel](3))
	// u = z + 1 (paper shows edge u --+1--> z: σ(z) = σ(u)+1? we pick
	// z --(-1)--> u i.e. σ(u) = σ(z) - 1... use u = z - 1).
	uf.AddRelation(0, 1, -1) // σ(u) = σ(z) - 1
	uf.AddRelation(2, 3, 2)  // σ(x) = σ(y) + 2
	uf.AddRelation(2, 4, 5)  // σ(v) = σ(y) + 5
	constraints := []DiffConstraint{
		{X: 0, Y: 2, Rel: wrel.Diff(2, 5)},  // y - z ∈ [2;5]
		{X: 1, Y: 3, Rel: wrel.Diff(0, 10)}, // x - u ∈ [0;10]
	}
	q, idx := Quotient(uf, 5, constraints)
	if q.IsBottom() {
		t.Fatal("satisfiable quotient is bottom")
	}
	if q.N() != 2 {
		t.Fatalf("quotient should have 2 classes, got %d", q.N())
	}
	q.Saturate()
	// Query x - z: x = y + 2, so x - z = (y - z) + 2 ∈ [4;7];
	// also x - z = (x - u) + (u - z) = [0;10] - 1 = [-1;9]. Meet: [4;7].
	r, ok := QuotientQuery(uf, q, idx, 0, 3)
	if !ok || !r.Eq(wrel.Diff(4, 7)) {
		t.Errorf("x - z = %s, want [4; 7]", r)
	}
	// Intra-class query is exact: v - x = 3.
	r, _ = QuotientQuery(uf, q, idx, 3, 4)
	if v, isC := r.IsConst(); !isC || !v.Eq(rational.QInt(3)) {
		t.Errorf("v - x = %s, want 3", r)
	}
}

func TestQuotientMatchesUnfactored(t *testing.T) {
	// The factorized representation must answer pairwise queries at least
	// as precisely as the unfactored saturated graph (same concretization).
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 25; trial++ {
		const n = 9
		sigma := make([]int64, n)
		for i := range sigma {
			sigma[i] = int64(rng.Intn(31) - 15)
		}
		uf := core.New[int, group.DeltaLabel](group.Delta{}, core.WithSeed[int, group.DeltaLabel](int64(trial)))
		full := wrel.NewGraph[interval.Itv](wrel.ItvDiff{}, n)
		var constraints []DiffConstraint
		// Some exact relations (go into the union-find AND the full graph).
		for e := 0; e < 5; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			d := sigma[j] - sigma[i]
			uf.AddRelation(i, j, d)
			full.Add(i, j, wrel.ExactDiff(d))
		}
		// Some loose constraints (only weakly-relational).
		for e := 0; e < 6; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			d := sigma[j] - sigma[i]
			itv := wrel.Diff(d-int64(rng.Intn(4)), d+int64(rng.Intn(4)))
			constraints = append(constraints, DiffConstraint{X: i, Y: j, Rel: itv})
			full.Add(i, j, itv)
		}
		if !full.Saturate() {
			t.Fatalf("trial %d: witness graph bottom", trial)
		}
		q, idx := Quotient(uf, n, constraints)
		if q.IsBottom() {
			t.Fatalf("trial %d: quotient bottom", trial)
		}
		q.Saturate()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				fr, fok := full.Get(i, j)
				qr, qok := QuotientQuery(uf, q, idx, i, j)
				// The quotient must be at least as precise.
				if fok && (!qok || !qr.Leq(fr)) {
					t.Fatalf("trial %d (%d,%d): quotient %s worse than full %s", trial, i, j, qr, fr)
				}
				// And sound: the witness difference is inside.
				if qok && !qr.Contains(rational.QInt(sigma[j]-sigma[i])) {
					t.Fatalf("trial %d (%d,%d): quotient %s excludes witness %d", trial, i, j, qr, sigma[j]-sigma[i])
				}
			}
		}
	}
}

// TestParallelConflictCertified: two parallel affine relations on the
// same pair are unsatisfiable (Section 3.2); the captured conflict must
// convert into a conflict certificate the independent checker accepts,
// while an intersecting conflict is resolved to a point and captures
// nothing.
func TestParallelConflictCertified(t *testing.T) {
	tvpe := group.TVPE{}
	j := cert.NewJournal[string, group.Affine](tvpe)
	m := NewTVPEMap[string](core.WithRecorder[string, group.Affine](j.Record))

	m.RelateReason("x", "y", group.AffineInt(2, 1), "def: y = 2x+1")
	m.RelateReason("y", "z", group.AffineInt(1, 3), "def: z = y+3")
	if m.IsBottom() || m.LastConflict != nil {
		t.Fatal("consistent relations must not conflict")
	}
	// z = 2x+4 transitively; asserting the parallel z = 2x+9 is ⊥.
	m.RelateReason("x", "z", group.AffineInt(2, 9), "phi: z = 2x+9")
	if !m.IsBottom() {
		t.Fatal("parallel relation must make the state bottom")
	}
	lc := m.LastConflict
	if lc == nil {
		t.Fatal("parallel conflict not captured")
	}
	if lc.Reason != "phi: z = 2x+9" {
		t.Fatalf("conflict reason = %q", lc.Reason)
	}

	cc, err := j.ExplainConflict(lc.N, lc.M, lc.New, lc.Reason)
	if err != nil {
		t.Fatalf("ExplainConflict: %v", err)
	}
	if err := cert.Check(cc, tvpe); err != nil {
		t.Fatalf("conflict certificate rejected: %v", err)
	}
	if len(cc.Reasons()) < 2 {
		t.Fatalf("UNSAT core %v should cite the evidence chain", cc.Reasons())
	}
	cert.Sabotage(&cc, tvpe)
	if cert.Check(cc, tvpe) == nil {
		t.Fatal("sabotaged conflict certificate accepted")
	}
}

// TestIntersectingConflictResolvesWithoutCapture: distinct intersecting
// lines pin the pair to the intersection point — satisfiable, so no
// conflict certificate material may be recorded.
func TestIntersectingConflictResolvesWithoutCapture(t *testing.T) {
	m := NewTVPEMap[string]()
	m.RelateReason("x", "y", group.AffineInt(2, 1), "a")
	m.RelateReason("x", "y", group.AffineInt(3, 0), "b") // intersect at x=1, y=3
	if m.IsBottom() {
		t.Fatal("intersecting lines are satisfiable")
	}
	if m.LastConflict != nil {
		t.Fatalf("intersecting conflict wrongly captured: %+v", m.LastConflict)
	}
	if v := m.Value("x"); !v.Contains(rational.QInt(1)) {
		t.Fatalf("x should be pinned near 1, got %s", v)
	}
	if v := m.Value("y"); !v.Contains(rational.QInt(3)) {
		t.Fatalf("y should be pinned near 3, got %s", v)
	}
}
