// Package wrel implements the general weakly-relational abstract domains of
// Section 2 of the paper: labeled graphs over variables whose edges carry
// abstract relations, with constraint propagation to saturation
// (Floyd–Warshall transitive closure) and constraint elimination. It also
// provides difference-bound matrices (DBMs) as the dense classic instance.
//
// These are the O(|X|²)-space / O(|X|³)-closure baselines that labeled
// union-find outperforms when the unique-label hypothesis holds; the
// scaling benchmarks compare the two directly.
package wrel

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Rel describes an abstract relation domain ⟨R#, ;, inv, id, ⊓, ⊑⟩
// (Section 2.1.2). Unlike group labels, relations need not be invertible
// functions — only HComposeSound/HInverseSound/HIdentitySound soundness —
// and they carry a meet.
type Rel[R any] interface {
	// Identity is id# (γ contains the diagonal).
	Identity() R
	// Compose over-approximates relation composition along a path.
	Compose(a, b R) R
	// Inverse over-approximates relation inversion.
	Inverse(a R) R
	// Meet combines two constraints on the same pair; ok=false means the
	// conjunction is unsatisfiable (⊥).
	Meet(a, b R) (r R, ok bool)
	// Leq is the precision preorder ⊑.
	Leq(a, b R) bool
	// Eq reports relation equality.
	Eq(a, b R) bool
	// IsTop reports whether a constrains nothing (such edges are dropped).
	IsTop(a R) bool
	// Format renders a relation.
	Format(a R) string
}

// Graph is a weakly-relational abstract element W ∈ (X × X) → R#
// (Section 2.1.3) over variables 0..N-1. Absent edges are ⊤ (no
// constraint). Only one orientation of each pair is stored; lookups invert
// as needed.
type Graph[R any] struct {
	rel    Rel[R]
	n      int
	edges  map[[2]int]R // key [i,j] with i < j, label oriented i --> j
	bottom bool
}

// NewGraph returns the unconstrained element over n variables.
func NewGraph[R any](rel Rel[R], n int) *Graph[R] {
	return &Graph[R]{rel: rel, n: n, edges: make(map[[2]int]R)}
}

// N returns the number of variables.
func (g *Graph[R]) N() int { return g.n }

// IsBottom reports whether the element is unsatisfiable.
func (g *Graph[R]) IsBottom() bool { return g.bottom }

// NumEdges returns the number of stored constraints.
func (g *Graph[R]) NumEdges() int { return len(g.edges) }

// SetBottom marks the element unsatisfiable.
func (g *Graph[R]) SetBottom() { g.bottom = true }

func (g *Graph[R]) orient(i, j int) (a, b int, flip bool) {
	if i <= j {
		return i, j, false
	}
	return j, i, true
}

// Get returns the constraint on (i, j), oriented i --> j; ok is false when
// the pair is unconstrained. Get(i, i) returns the identity.
func (g *Graph[R]) Get(i, j int) (R, bool) {
	if i == j {
		return g.rel.Identity(), true
	}
	a, b, flip := g.orient(i, j)
	r, ok := g.edges[[2]int{a, b}]
	if !ok {
		var zero R
		return zero, false
	}
	if flip {
		return g.rel.Inverse(r), true
	}
	return r, true
}

// Add constrains (i, j) with r (oriented i --> j), meeting with any
// existing constraint; it reports false when the element becomes ⊥.
func (g *Graph[R]) Add(i, j int, r R) bool {
	if g.bottom {
		return false
	}
	if i == j {
		// Reflexive constraints more precise than id are a contradiction
		// detector only when they exclude the diagonal; we keep id-meets.
		m, ok := g.rel.Meet(r, g.rel.Identity())
		_ = m
		if !ok {
			g.bottom = true
			return false
		}
		return true
	}
	a, b, flip := g.orient(i, j)
	if flip {
		r = g.rel.Inverse(r)
	}
	if old, ok := g.edges[[2]int{a, b}]; ok {
		m, ok := g.rel.Meet(old, r)
		if !ok {
			g.bottom = true
			return false
		}
		r = m
	}
	if g.rel.IsTop(r) {
		delete(g.edges, [2]int{a, b})
		return true
	}
	g.edges[[2]int{a, b}] = r
	return true
}

// Clone returns a deep copy.
func (g *Graph[R]) Clone() *Graph[R] {
	out := NewGraph[R](g.rel, g.n)
	out.bottom = g.bottom
	for k, v := range g.edges {
		out.edges[k] = v
	}
	return out
}

// Saturate computes W* by Floyd–Warshall constraint propagation
// (Section 2.1.4): for every k, W[i,j] ⊓= W[i,k] ; W[k,j]. O(n³)
// compositions. It reports false when saturation exposes ⊥ (a cycle whose
// composition excludes the diagonal).
func (g *Graph[R]) Saturate() bool {
	if g.bottom {
		return false
	}
	// Dense matrix of current constraints; nil entry = ⊤.
	mat := make([][]*R, g.n)
	for i := range mat {
		mat[i] = make([]*R, g.n)
	}
	for k, v := range g.edges {
		v := v
		inv := g.rel.Inverse(v)
		mat[k[0]][k[1]] = &v
		mat[k[1]][k[0]] = &inv
	}
	for k := 0; k < g.n; k++ {
		for i := 0; i < g.n; i++ {
			if mat[i][k] == nil {
				continue
			}
			for j := 0; j < g.n; j++ {
				if mat[k][j] == nil {
					continue
				}
				through := g.rel.Compose(*mat[i][k], *mat[k][j])
				if i == j {
					// Cycle: must be compatible with the identity.
					if _, ok := g.rel.Meet(through, g.rel.Identity()); !ok {
						g.bottom = true
						return false
					}
					continue
				}
				if mat[i][j] == nil {
					through := through
					mat[i][j] = &through
				} else {
					m, ok := g.rel.Meet(*mat[i][j], through)
					if !ok {
						g.bottom = true
						return false
					}
					mat[i][j] = &m
				}
			}
		}
	}
	g.edges = make(map[[2]int]R)
	for i := 0; i < g.n; i++ {
		for j := i + 1; j < g.n; j++ {
			if mat[i][j] != nil && !g.rel.IsTop(*mat[i][j]) {
				g.edges[[2]int{i, j}] = *mat[i][j]
			}
		}
	}
	return true
}

// Eliminate removes constraints recoverable from the remaining ones
// (constraint elimination, Section 2.1.5): an edge is dropped when the
// saturation of the graph without it still implies a relation at least as
// precise. Under the unique-label hypothesis this reduces a saturated
// graph to a spanning tree (Figure 2). Cost is O(E·n³) — elimination is a
// storage optimization performed off the hot path; labeled union-find is
// the structure that makes it cheap online.
func (g *Graph[R]) Eliminate() {
	for _, key := range g.keys() {
		r, ok := g.edges[key]
		if !ok {
			continue
		}
		trial := g.Clone()
		delete(trial.edges, key)
		if !trial.Saturate() {
			continue // removing the edge exposed no info; keep conservative
		}
		implied, ok2 := trial.Get(key[0], key[1])
		if ok2 && g.rel.Leq(implied, r) {
			delete(g.edges, key)
		}
	}
}

// keys returns the stored pairs in ascending (i, j), the order every
// traversal of the edges follows so that output never depends on map
// iteration.
func (g *Graph[R]) keys() [][2]int {
	return slices.SortedFunc(maps.Keys(g.edges), func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
}

// Edges calls f on every stored constraint (i < j, label oriented i → j)
// in ascending (i, j).
func (g *Graph[R]) Edges(f func(i, j int, r R)) {
	for _, k := range g.keys() {
		f(k[0], k[1], g.edges[k])
	}
}

// String renders the constraint list in ascending (i, j).
func (g *Graph[R]) String() string {
	if g.bottom {
		return "⊥"
	}
	var sb strings.Builder
	for _, k := range g.keys() {
		fmt.Fprintf(&sb, "x%d --%s--> x%d\n", k[0], g.rel.Format(g.edges[k]), k[1])
	}
	return sb.String()
}

// GroupRel adapts any labeled-union-find group into a weakly-relational
// Rel with the flat meet of Theorem 4.5: two distinct labels on the same
// pair are contradictory. This is how a LUF label group is viewed as a
// (degenerate) weakly-relational domain for comparison purposes.
type GroupRel[L any] struct {
	G interface {
		Identity() L
		Compose(a, b L) L
		Inverse(a L) L
		Equal(a, b L) bool
		Format(a L) string
	}
}

// Identity returns the group identity.
func (r GroupRel[L]) Identity() L { return r.G.Identity() }

// Compose composes labels.
func (r GroupRel[L]) Compose(a, b L) L { return r.G.Compose(a, b) }

// Inverse inverts a label.
func (r GroupRel[L]) Inverse(a L) L { return r.G.Inverse(a) }

// Meet is the flat meet: equal labels meet to themselves, distinct labels
// are contradictory.
func (r GroupRel[L]) Meet(a, b L) (L, bool) {
	if r.G.Equal(a, b) {
		return a, true
	}
	var zero L
	return zero, false
}

// Leq is equality (flat lattice).
func (r GroupRel[L]) Leq(a, b L) bool { return r.G.Equal(a, b) }

// Eq reports label equality.
func (r GroupRel[L]) Eq(a, b L) bool { return r.G.Equal(a, b) }

// IsTop is always false: group labels always constrain.
func (r GroupRel[L]) IsTop(a L) bool { return false }

// Format renders the label.
func (r GroupRel[L]) Format(a L) string { return r.G.Format(a) }
