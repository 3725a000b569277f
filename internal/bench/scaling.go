package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"luf/internal/core"
	"luf/internal/group"
	"luf/internal/rational"
	"luf/internal/wrel"
)

// ScalingRow measures the cost of maintaining and querying the transitive
// closure of n constant-difference constraints in three representations:
// labeled union-find (near-linear), DBM closure (O(n³)), and the generic
// weakly-relational saturation (O(n³) with meets).
type ScalingRow struct {
	N        int
	LUF      time.Duration
	DBM      time.Duration
	Saturate time.Duration
	// SaturateSkipped is set when the generic saturation was skipped
	// because n is too large for the O(n³)+allocations baseline.
	SaturateSkipped bool
}

// RunScaling measures each representation over chains + random extra edges
// with q random relation queries, for each n in sizes.
func RunScaling(sizes []int, queries int) []ScalingRow {
	var rows []ScalingRow
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		// A hidden valuation makes all constraints consistent.
		sigma := make([]int64, n)
		for i := range sigma {
			sigma[i] = int64(rng.Intn(2*n) - n)
		}
		type edge struct {
			i, j int
			d    int64
		}
		edges := make([]edge, 0, n+n/2)
		for i := 1; i < n; i++ {
			j := rng.Intn(i)
			edges = append(edges, edge{j, i, sigma[i] - sigma[j]})
		}
		for k := 0; k < n/2; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			edges = append(edges, edge{i, j, sigma[j] - sigma[i]})
		}
		row := ScalingRow{N: n}

		// Labeled union-find: add all edges, run queries.
		t0 := time.Now()
		uf := core.New[int, group.DeltaLabel](group.Delta{})
		for _, e := range edges {
			uf.AddRelation(e.i, e.j, e.d)
		}
		for q := 0; q < queries; q++ {
			uf.GetRelation(rng.Intn(n), rng.Intn(n))
		}
		row.LUF = time.Since(t0)

		// DBM: add bounds, close, read queries from the matrix.
		t1 := time.Now()
		d := wrel.NewDBM(n)
		for _, e := range edges {
			d.AddDiff(e.i, e.j, rational.QInt(e.d), rational.QInt(e.d))
		}
		d.Close()
		for q := 0; q < queries; q++ {
			d.Get(rng.Intn(n), rng.Intn(n))
		}
		row.DBM = time.Since(t1)

		// Generic weakly-relational saturation (skipped for large n).
		if n <= 256 {
			t2 := time.Now()
			g := wrel.NewGraph[group.DeltaLabel](wrel.GroupRel[group.DeltaLabel]{G: group.Delta{}}, n)
			for _, e := range edges {
				g.Add(e.i, e.j, e.d)
			}
			g.Saturate()
			for q := 0; q < queries; q++ {
				g.Get(rng.Intn(n), rng.Intn(n))
			}
			row.Saturate = time.Since(t2)
		} else {
			row.SaturateSkipped = true
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatScaling renders the scaling table.
func FormatScaling(rows []ScalingRow) string {
	var sb strings.Builder
	sb.WriteString("Transitive closure of constant-difference constraints\n")
	sb.WriteString("(chain + n/2 extra edges, 1000 queries; §2's motivation for LUF)\n\n")
	sb.WriteString("      n     labeled-UF            DBM (O(n^3))     saturation (O(n^3))\n")
	for _, r := range rows {
		sat := r.Saturate.String()
		if r.SaturateSkipped {
			sat = "(skipped)"
		}
		fmt.Fprintf(&sb, "%7d   %12v   %16v   %16s\n", r.N, r.LUF, r.DBM, sat)
	}
	return sb.String()
}

// InterRow measures Appendix A's persistent intersection: two versions
// diverging from a shared base of n relations by delta edits each.
type InterRow struct {
	N, Delta int
	Inter    time.Duration
}

// RunInter measures Inter across n/delta combinations, averaging reps
// runs.
func RunInter(sizes, deltas []int, reps int) []InterRow {
	var rows []InterRow
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n) * 31))
		sigma := make([]int64, 2*n)
		for i := range sigma {
			sigma[i] = int64(rng.Intn(4 * n))
		}
		base := core.NewPersistent[group.DeltaLabel](group.Delta{})
		for i := 1; i < n; i++ {
			j := rng.Intn(i)
			base, _ = base.AddRelation(j, i, sigma[i]-sigma[j], nil)
		}
		for _, delta := range deltas {
			if delta > n {
				continue
			}
			a, b := base, base
			for k := 0; k < delta; k++ {
				// Edits touch fresh nodes so both sides stay consistent.
				x, y := n+2*k, n+2*k+1
				a, _ = a.AddRelation(rng.Intn(n), x, 1, nil)
				b, _ = b.AddRelation(rng.Intn(n), y, 2, nil)
			}
			t0 := time.Now()
			for rep := 0; rep < reps; rep++ {
				core.Inter(a, b)
			}
			rows = append(rows, InterRow{N: n, Delta: delta, Inter: time.Since(t0) / time.Duration(reps)})
		}
	}
	return rows
}

// FormatInter renders the inter-complexity table.
func FormatInter(rows []InterRow) string {
	var sb strings.Builder
	sb.WriteString("Persistent intersection (abstract join), Theorem A.1: O(Δ² log² n)\n\n")
	sb.WriteString("      n      Δ           time\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%7d %6d   %12v\n", r.N, r.Delta, r.Inter)
	}
	return sb.String()
}
