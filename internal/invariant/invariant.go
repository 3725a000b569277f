// Package invariant is the runtime invariant checker of the labeled
// union-find library: read-only audits of live structures that verify
// the properties the paper's theorems rely on — path labels equal to
// brute-force recomposition of the asserted relations (Theorem 3.1),
// forest acyclicity, per-class info stored only at representatives
// (Figure 5), the collapse invariants of the persistent variant
// (Appendix A), and the Patricia-tree invariants of the pmap
// substrate.
//
// All checks return nil on success or an error wrapping
// fault.ErrInvariantViolated; none of them mutates the structure
// under audit (in particular they never call Find, which would
// path-compress). The relations a union-find accepted are read from
// one record, the entries its recorder hook (core.WithRecorder) put
// in a cert.Journal: the same entries certificates cite. They are
// wired behind the -check flag of the three CLIs and behind opt-in
// options in the solver and analyzer; negative tests corrupt
// structures through the documented Inject hooks and prove detection.
package invariant

import (
	"luf/internal/cert"
	"luf/internal/core"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/pmap"
)

// resolve walks n's parent chain without path compression, returning
// the root and the composed label n --l--> root. A chain longer than
// the number of edges proves a cycle.
func resolve[N comparable, L any](g group.Group[L], parent map[N]core.Edge[N, L], n N) (N, L, error) {
	l := g.Identity()
	cur := n
	for steps := 0; ; steps++ {
		e, ok := parent[cur]
		if !ok {
			return cur, l, nil
		}
		if steps > len(parent) {
			var zero N
			return zero, l, fault.Invariantf("parent chain from %v exceeds %d edges: cycle", n, len(parent))
		}
		l = g.Compose(l, e.Label)
		cur = e.Parent
	}
}

// CheckUF audits a mutable labeled union-find:
//
//   - the parent forest is acyclic;
//   - class rings partition the nodes: the ring through each root
//     visits that root and every node that resolves to it, each once,
//     and the root records the ring's size and last node;
//   - every entry n --ℓ--> m of entries, the accepted calls recorded
//     through the UF's recorder hook, is recomposed from the raw parent
//     edges (without path compression) and compared against ℓ: this
//     is the brute-force check that path labels compose to the
//     asserted relations (Theorem 3.1). With nil entries only the
//     structure is checked.
func CheckUF[N comparable, L any](u *core.UF[N, L], entries []cert.Entry[N, L]) error {
	g := u.Group()

	// Snapshot the forest and the rings read-only.
	parent := make(map[N]core.Edge[N, L])
	u.ForEachEdge(func(n N, e core.Edge[N, L]) { parent[n] = e })
	type place struct {
		next, tail N
		size       int
	}
	ring := make(map[N]place)
	u.ForEachRing(func(n, next, tail N, size int) { ring[n] = place{next, tail, size} })
	// Acyclicity + root of every node.
	root := make(map[N]N, len(ring))
	for n := range ring {
		r, _, err := resolve(g, parent, n)
		if err != nil {
			return err
		}
		root[n] = r
	}
	// Each root's ring returns to it within len(ring) steps through
	// nodes that resolve to it, so the rings are disjoint; together they
	// must cover every node. The root records the ring's length and its
	// last node.
	walked := 0
	for r, p := range ring {
		if root[r] != r {
			continue
		}
		k, last := 0, r
		for m := r; k == 0 || m != r; m, k = ring[m].next, k+1 {
			if k == len(ring) || root[m] != r {
				return fault.Invariantf("class ring of root %v is broken at %v", r, m)
			}
			last = m
		}
		if k != p.size || last != p.tail {
			return fault.Invariantf("class ring of root %v holds %d nodes ending at %v, but records %d ending at %v", r, k, last, p.size, p.tail)
		}
		walked += k
	}
	if walked != len(ring) {
		return fault.Invariantf("class rings cover %d of %d nodes", walked, len(ring))
	}
	// Brute-force recomposition of the recorded assertions.
	for _, a := range entries {
		rn, ln, err := resolve(g, parent, a.N)
		if err != nil {
			return err
		}
		rm, lm, err := resolve(g, parent, a.M)
		if err != nil {
			return err
		}
		if rn != rm {
			return fault.Invariantf("asserted relation %v -- %v lost: nodes in different classes", a.N, a.M)
		}
		got := g.Compose(ln, g.Inverse(lm))
		if !g.Equal(got, a.Label) {
			return fault.Invariantf("path label %v→%v is %s, assertion said %s",
				a.N, a.M, g.Format(got), g.Format(a.Label))
		}
	}
	if err := u.Misuse(); err != nil {
		return fault.Invariantf("recorded API misuse: %v", err)
	}
	return nil
}

// CheckInfoUF audits the information extension of Figure 5 on top of
// CheckUF (with the same entries): class information must be stored
// only at representatives (nodes without parent edges) — info keyed at
// a non-root would be silently ignored by GetInfo and never merged.
func CheckInfoUF[N comparable, L, I any](u *core.InfoUF[N, L, I], entries []cert.Entry[N, L]) error {
	if err := CheckUF(u.UF, entries); err != nil {
		return err
	}
	hasParent := make(map[N]bool)
	u.ForEachEdge(func(n N, _ core.Edge[N, L]) { hasParent[n] = true })
	var err error
	u.ForEachInfo(func(n N, _ I) {
		if err == nil && hasParent[n] {
			err = fault.Invariantf("class info stored at non-representative %v", n)
		}
	})
	return err
}

// CheckPUF audits the persistent variant's Appendix A invariants:
// eager collapse (every node points directly at a root; roots point
// to themselves with the identity label), minimal representatives
// (the root is the smallest node of its class), and a consistent
// reverse map (Classes maps each root to exactly the nodes pointing
// at it, including itself).
func CheckPUF[L any](u core.PUF[L]) error {
	g := u.Group()
	rootOf := make(map[int]int)
	var err error
	u.ForEachEdge(func(n int, e core.PEdge[L]) bool {
		if n == e.Parent {
			if !g.Equal(e.Label, g.Identity()) {
				err = fault.Invariantf("root %d points to itself with non-identity label %s", n, g.Format(e.Label))
				return false
			}
		}
		rootOf[n] = e.Parent
		return true
	})
	if err != nil {
		return err
	}
	// Collapse: parents must be roots; minimality: parent <= node's
	// whole class is checked through the class map below.
	for n, r := range rootOf {
		if rr, ok := rootOf[r]; !ok || rr != r {
			return fault.Invariantf("node %d points at %d, which is not a collapsed root", n, r)
		}
		if r > n {
			return fault.Invariantf("representative %d of node %d is not minimal", r, n)
		}
	}
	// Reverse map.
	counted := 0
	u.ForEachClass(func(r int, members pmap.Set) bool {
		if rootOf[r] != r {
			err = fault.Invariantf("class map keyed at non-root %d", r)
			return false
		}
		if !members.Contains(r) {
			err = fault.Invariantf("class of root %d does not contain the root", r)
			return false
		}
		members.ForEach(func(m int) bool {
			counted++
			if rootOf[m] != r {
				err = fault.Invariantf("class of root %d lists %d, whose parent is %d", r, m, rootOf[m])
				return false
			}
			return true
		})
		return err == nil
	})
	if err != nil {
		return err
	}
	if counted != len(rootOf) {
		return fault.Invariantf("class map covers %d nodes, parent map has %d", counted, len(rootOf))
	}
	return nil
}

// CheckPmap audits the Patricia-tree invariants of a persistent map
// (single branching bits, prefix agreement, cached sizes).
func CheckPmap[V any](m pmap.Map[V]) error {
	return m.Audit()
}
