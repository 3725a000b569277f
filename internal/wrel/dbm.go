package wrel

import (
	"strconv"
	"strings"

	"luf/internal/rational"
)

// DBM is a dense difference-bound matrix over rationals (Miné 2001): entry
// (i, j) is an upper bound on x_j - x_i, or +∞. DBMs are the classic dense
// weakly-relational domain; Close is the O(n³) shortest-path closure whose
// cost motivates the paper's constraint-elimination approach, and the
// scaling benchmarks use it as the baseline against labeled union-find.
type DBM struct {
	n      int
	inf    []bool       // inf[i*n+j]: no bound on x_j - x_i
	bound  []rational.Q // valid when !inf
	bottom bool
}

// NewDBM returns the unconstrained DBM over n variables.
func NewDBM(n int) *DBM {
	d := &DBM{n: n, inf: make([]bool, n*n), bound: make([]rational.Q, n*n)}
	for i := range d.inf {
		d.inf[i] = true
	}
	for i := 0; i < n; i++ {
		d.inf[i*n+i] = false
	}
	return d
}

// N returns the number of variables.
func (d *DBM) N() int { return d.n }

// IsBottom reports unsatisfiability (set by Close on negative cycles).
func (d *DBM) IsBottom() bool { return d.bottom }

// AddUpper constrains x_j - x_i <= c.
func (d *DBM) AddUpper(i, j int, c rational.Q) {
	k := i*d.n + j
	if d.inf[k] || c.Cmp(d.bound[k]) < 0 {
		d.inf[k] = false
		d.bound[k] = c
	}
}

// AddDiff constrains x_j - x_i ∈ [lo;hi].
func (d *DBM) AddDiff(i, j int, lo, hi rational.Q) {
	d.AddUpper(i, j, hi)
	d.AddUpper(j, i, lo.Neg())
}

// Get returns the upper bound on x_j - x_i; ok=false means unbounded.
func (d *DBM) Get(i, j int) (rational.Q, bool) {
	k := i*d.n + j
	if d.inf[k] {
		return rational.Q{}, false
	}
	return d.bound[k], true
}

// Close runs the Floyd–Warshall shortest-path closure in place — O(n³).
// It reports false (and marks ⊥) when a negative cycle exists.
func (d *DBM) Close() bool {
	if d.bottom {
		return false
	}
	n := d.n
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			ik := i*n + k
			if d.inf[ik] {
				continue
			}
			for j := 0; j < n; j++ {
				kj := k*n + j
				if d.inf[kj] {
					continue
				}
				ij := i*n + j
				through := d.bound[ik].Add(d.bound[kj])
				if d.inf[ij] || through.Cmp(d.bound[ij]) < 0 {
					d.inf[ij] = false
					d.bound[ij] = through
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if d.bound[i*n+i].Sign() < 0 {
			d.bottom = true
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (d *DBM) Clone() *DBM {
	out := &DBM{n: d.n, bottom: d.bottom}
	out.inf = append([]bool(nil), d.inf...)
	out.bound = append([]rational.Q(nil), d.bound...)
	return out
}

// SatDBM reports whether σ satisfies all bounds.
func (d *DBM) SatDBM(sigma []int64) bool {
	if d.bottom {
		return false
	}
	for i := 0; i < d.n; i++ {
		for j := 0; j < d.n; j++ {
			k := i*d.n + j
			if d.inf[k] {
				continue
			}
			diff := rational.QInt(sigma[j] - sigma[i])
			if diff.Cmp(d.bound[k]) > 0 {
				return false
			}
		}
	}
	return true
}

// String renders the finite bounds.
func (d *DBM) String() string {
	if d.bottom {
		return "⊥"
	}
	var sb strings.Builder
	for i := 0; i < d.n; i++ {
		for j := 0; j < d.n; j++ {
			k := i*d.n + j
			if i != j && !d.inf[k] {
				sb.WriteString("x")
				sb.WriteString(strconv.Itoa(j))
				sb.WriteString("-x")
				sb.WriteString(strconv.Itoa(i))
				sb.WriteString("<=")
				sb.WriteString(d.bound[k].Key())
				sb.WriteString(" ")
			}
		}
	}
	return strings.TrimSpace(sb.String())
}
