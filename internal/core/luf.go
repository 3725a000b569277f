// Package core implements the labeled union-find data structure of the
// paper (Section 3, Figure 4): a union-find whose parent edges carry labels
// from a group, so that the relation between any two connected nodes can be
// recovered by composing labels along paths.
//
// Three variants are provided:
//
//   - UF: the mutable structure of Figure 4, with path compression and
//     randomized linking. It is the flow-insensitive workhorse. Nodes
//     are interned to dense int32 ids in order of first use, and each
//     class is a ring through its root that a union splices in O(1):
//     ForClass visits the root, then the members in the order they
//     joined. ForEachEdge walks nodes in id order.
//   - InfoUF: UF extended with per-class information stored at
//     representatives and transported by a group action (Section 3.3,
//     Figure 5), in a slice by id that ForEachInfo walks in order. The
//     information merges on every union of its UF, whichever handle made
//     the union.
//   - PUF: the confluently persistent variant of Appendix A, with eager
//     path compression (collapsing union-find) and the `Inter` abstract
//     join of Figure 9.
//
// Orientation: an edge n --ℓ--> m states (σ(n), σ(m)) ∈ γ(ℓ); see package
// group for the composition convention.
package core

import (
	"math/rand"
	"sync"

	"luf/internal/fault"
	"luf/internal/group"
)

// Edge is a parent link: the owning node n points to Parent with
// n --Label--> Parent.
type Edge[N comparable, L any] struct {
	Parent N
	Label  L
}

// Conflict describes an add-relation call on two already-related nodes
// whose existing relation disagrees with the new one (Section 3.2,
// "Managing Conflicts"). N and M are the nodes passed to AddRelation;
// New is the label being added (N --New--> M) and Old the label already
// implied by the structure (N --Old--> M). Reason is the refused call's
// reason (empty for a plain AddRelation), so a conflict certificate can
// cite it beside the recorded evidence.
type Conflict[N comparable, L any] struct {
	N, M   N
	New    L
	Old    L
	Reason string
}

// ConflictFunc is invoked on conflicting add-relation calls. It must not
// modify the union-find (Theorem 3.1's hypothesis); typically it records
// the learned fact (e.g. an intersection point, or unsatisfiability) in
// another domain.
type ConflictFunc[N comparable, L any] func(Conflict[N, L])

// Stats counts the operations performed on a union-find; the Section 7.2
// evaluation reports these.
type Stats struct {
	Finds     int // calls to Find (including internal ones)
	AddCalls  int // calls to AddRelation
	Unions    int // AddRelation calls that merged two classes
	Redundant int // AddRelation calls that were already implied (no conflict)
	Conflicts int // AddRelation calls that conflicted
}

// UF is the mutable labeled union-find of Figure 4. The zero value is not
// usable; create instances with New.
type UF[N comparable, L any] struct {
	g group.Group[L]
	// Nodes are interned to dense ids when they first join a class or
	// take information; a node never interned is its own root.
	ids        map[N]int32
	names      []N       // by id
	nodes      []node[L] // by id
	rings      []ring    // by id
	path       []int32   // root's scratch stack
	onConflict ConflictFunc[N, L]
	rng        *rand.Rand // nil while the default seed's flips are replayed
	flips      int        // default-seed coin flips taken so far
	compress   bool
	stats      Stats
	inConflict bool // true while onConflict runs (reentrancy detection)
	misuse     error
	onLink     func(a, b int32, l L)            // NewInfo's merge, run by link after every union; nil without one
	recorder   func(n, m N, l L, reason string) // WithRecorder's hook: the only history kept
}

// node is an interned node's parent link: node --label--> parent. A root
// is its own parent, and its label is unused.
type node[L any] struct {
	parent int32
	label  L
}

// ring is an interned node's place on its class ring, which links the
// members of a class in a cycle through the root, in the order they
// joined. tail and size are read at roots: the last member of the ring,
// and the class size.
type ring struct{ next, tail, size int32 }

// Option configures a UF.
type Option[N comparable, L any] func(*UF[N, L])

// WithConflictHandler installs f as the conflict callback. Without a
// handler, conflicts are silently counted in Stats.
func WithConflictHandler[N comparable, L any](f ConflictFunc[N, L]) Option[N, L] {
	return func(u *UF[N, L]) { u.onConflict = f }
}

// WithSeed seeds the randomized-linking PRNG (default seed 1), for
// reproducible tree shapes.
func WithSeed[N comparable, L any](seed int64) Option[N, L] {
	return func(u *UF[N, L]) { u.rng = rand.New(rand.NewSource(seed)) }
}

// replayedFlips is how many of the default seed's linking coin flips are
// replayed from a shared table. Seeding a math/rand source costs about
// 13 µs, a large share of a small analysis or solve, and most
// union-finds make far fewer unions than this, so they never seed one.
const replayedFlips = 4096

// defaultFlips holds the first replayedFlips values of
// rand.New(rand.NewSource(1)).Intn(2), computed once per process.
var defaultFlips = sync.OnceValue(func() []byte {
	r := rand.New(rand.NewSource(1))
	flips := make([]byte, replayedFlips)
	for i := range flips {
		flips[i] = byte(r.Intn(2))
	}
	return flips
})

// coin flips the randomized-linking coin: the default seed's flips come
// from the shared table, and past its end from a source seeded 1 and
// advanced past the replayed flips, so the sequence is the one a source
// seeded 1 would give throughout.
func (u *UF[N, L]) coin() int {
	if u.rng == nil {
		if u.flips < replayedFlips {
			u.flips++
			return int(defaultFlips()[u.flips-1])
		}
		u.rng = rand.New(rand.NewSource(1))
		for range replayedFlips {
			u.rng.Intn(2)
		}
	}
	return u.rng.Intn(2)
}

// WithoutPathCompression disables path compression; used by the ablation
// benchmarks.
func WithoutPathCompression[N comparable, L any]() Option[N, L] {
	return func(u *UF[N, L]) { u.compress = false }
}

// WithRecorder puts the union-find in recording mode: f is called for
// every accepted AddRelation/AddRelationReason call with the assertion
// exactly as made (n --l--> m), untouched by path compression or
// randomized linking, and the caller's reason (empty for AddRelation).
// Pass a cert.Journal's Record method to collect certifiable evidence;
// the recorded calls are the only history the structure keeps, and the
// invariant checker recomposes them.
func WithRecorder[N comparable, L any](f func(n, m N, l L, reason string)) Option[N, L] {
	return func(u *UF[N, L]) { u.recorder = f }
}

// New returns an empty labeled union-find over the label group g.
func New[N comparable, L any](g group.Group[L], opts ...Option[N, L]) *UF[N, L] {
	u := &UF[N, L]{
		g:        g,
		ids:      make(map[N]int32),
		compress: true,
	}
	for _, o := range opts {
		o(u)
	}
	return u
}

// Group returns the label group of the union-find.
func (u *UF[N, L]) Group() group.Group[L] { return u.g }

// Stats returns operation counters.
func (u *UF[N, L]) Stats() Stats { return u.stats }

// Find returns the representative r of n's relational class and the label
// ℓ with n --ℓ--> r. Unknown nodes are their own representative with the
// identity label. Find performs path compression (composing labels along
// the compressed path) unless disabled.
func (u *UF[N, L]) Find(n N) (N, L) {
	r, l, _ := u.root(n)
	return r, l
}

// root is Find that also returns the root's id: -1 for a node never
// interned, which is its own root. Two nodes are related exactly when
// their roots' names are equal.
func (u *UF[N, L]) root(n N) (N, L, int32) {
	u.stats.Finds++
	i, ok := u.ids[n]
	if !ok {
		return n, u.g.Identity(), -1
	}
	// Walk up to the root, then compose the labels back down the path,
	// right-nested as Figure 4's recursive find does, compressing each
	// node onto the root.
	path := u.path[:0]
	for x := u.nodes[i].parent; x != i; x = u.nodes[i].parent {
		path, i = append(path, i), x
	}
	l := u.g.Identity()
	for k := len(path) - 1; k >= 0; k-- {
		x := &u.nodes[path[k]]
		l = u.g.Compose(x.label, l)
		if u.compress && x.parent != i {
			x.parent, x.label = i, l
		}
	}
	if cap(path) > cap(u.path) {
		u.path = path // keep the grown stack
	}
	return u.names[i], l, i
}

// intern returns n's id, interning n as a singleton class if it has none.
func (u *UF[N, L]) intern(n N) int32 {
	if i, ok := u.ids[n]; ok {
		return i
	}
	i := int32(len(u.names))
	u.ids[n] = i
	u.names = append(u.names, n)
	u.nodes = append(u.nodes, node[L]{parent: i})
	u.rings = append(u.rings, ring{next: i, tail: i, size: 1})
	return i
}

// Related reports whether n and m are in the same relational class.
func (u *UF[N, L]) Related(n, m N) bool {
	rn, _, _ := u.root(n)
	rm, _, _ := u.root(m)
	return rn == rm
}

// GetRelation returns the label ℓ with n --ℓ--> m if the nodes are
// related; ok is false otherwise (the ⊤ result of Figure 4).
func (u *UF[N, L]) GetRelation(n, m N) (L, bool) {
	rn, ln, _ := u.root(n)
	rm, lm, _ := u.root(m)
	if rn != rm {
		var zero L
		return zero, false
	}
	return u.g.Compose(ln, u.g.Inverse(lm)), true
}

// AddRelation implements Figure 4's add_relation: it adds the
// constraint n --ℓ--> m. If the nodes were already related, the existing
// relation is checked against ℓ: when they disagree the conflict handler
// runs and AddRelation reports false. Otherwise it reports true.
func (u *UF[N, L]) AddRelation(n, m N, l L) bool {
	return u.AddRelationReason(n, m, l, "")
}

// AddRelationReason is AddRelation carrying a reason string (a solver
// constraint id, an analyzer program point, …). Recording mode attaches
// it to the journal entry, and certificates later cite it as evidence;
// a refused call hands it to the conflict handler in Conflict.Reason.
func (u *UF[N, L]) AddRelationReason(n, m N, l L, reason string) bool {
	if u.inConflict {
		// Reentrant mutation from inside the conflict callback would
		// corrupt the structure mid-update (Theorem 3.1's hypothesis
		// forbids it). Refuse the call, record the misuse, and leave
		// the structure untouched.
		if u.misuse == nil {
			u.misuse = fault.Conflictf("reentrant AddRelation from inside ConflictFunc (callback must not mutate the union-find)")
		}
		return false
	}
	u.stats.AddCalls++
	rn, ln, a := u.root(n)
	rm, lm, b := u.root(m)
	if rn == rm {
		existing := u.g.Compose(ln, u.g.Inverse(lm))
		if !u.g.Equal(l, existing) {
			u.stats.Conflicts++
			if u.onConflict != nil {
				u.inConflict = true
				func() {
					defer func() { u.inConflict = false }()
					u.onConflict(Conflict[N, L]{N: n, M: m, New: l, Old: existing, Reason: reason})
				}()
			}
			return false
		}
		u.stats.Redundant++
		u.record(n, m, l, reason)
		return true
	}
	u.stats.Unions++
	u.record(n, m, l, reason)
	if a < 0 {
		a = u.intern(n)
	}
	if b < 0 {
		b = u.intern(m)
	}
	// Randomized linking (Goel et al.): flip a coin for the new root.
	if u.coin() == 0 {
		// rn --inv(ln);l;lm--> rm
		u.link(a, b, group.ComposeAll[L](u.g, u.g.Inverse(ln), l, lm))
	} else {
		// rm --inv(lm);inv(l);ln--> rn
		u.link(b, a, group.ComposeAll[L](u.g, u.g.Inverse(lm), u.g.Inverse(l), ln))
	}
	return true
}

func (u *UF[N, L]) record(n, m N, l L, reason string) {
	if u.recorder != nil {
		u.recorder(n, m, l, reason)
	}
}

// Recording reports whether a recorder hook is installed.
func (u *UF[N, L]) Recording() bool { return u.recorder != nil }

// Misuse returns the first recorded API-misuse error (reentrant
// AddRelation from a ConflictFunc, or a second NewInfo on the same
// UF), wrapped in fault.ErrConflict, or nil.
func (u *UF[N, L]) Misuse() error { return u.misuse }

// ForEachEdge calls f on every parent edge n --Label--> Parent of the
// current forest, without mutating the structure (no path
// compression), in the order the nodes were interned.
func (u *UF[N, L]) ForEachEdge(f func(n N, e Edge[N, L])) {
	for i, x := range u.nodes {
		if x.parent != int32(i) {
			f(u.names[i], Edge[N, L]{Parent: u.names[x.parent], Label: x.label})
		}
	}
}

// ForEachRing calls f on every interned node, the member after it on
// its class ring, and the ring's last member and size as n records them
// (kept current at roots only), in the order the nodes were interned,
// without mutating the structure; for the invariant checker.
func (u *UF[N, L]) ForEachRing(f func(n, next, tail N, size int)) {
	for i, x := range u.rings {
		f(u.names[i], u.names[x.next], u.names[x.tail], int(x.size))
	}
}

// InjectEdge overwrites n's parent edge bypassing all validation. It
// exists ONLY so negative tests can corrupt a structure and prove the
// invariant checker catches it; never call it from production code.
func (u *UF[N, L]) InjectEdge(n N, e Edge[N, L]) {
	i, p := u.intern(n), u.intern(e.Parent)
	u.nodes[i].parent, u.nodes[i].label = p, e.Label
}

// link points root a at root b with a --l--> b, splices a's ring after
// b's, and merges the class information of an attached InfoUF.
func (u *UF[N, L]) link(a, b int32, l L) {
	u.nodes[a] = node[L]{parent: b, label: l}
	x, y := &u.rings[a], &u.rings[b]
	u.rings[y.tail].next, u.rings[x.tail].next = a, b
	y.tail = x.tail
	y.size += x.size
	if u.onLink != nil {
		u.onLink(a, b, l)
	}
}

// ForClass calls f on every member of n's relational class: the
// representative first, then the members in the order their classes
// joined. It allocates nothing; f must not add relations.
func (u *UF[N, L]) ForClass(n N, f func(m N)) {
	_, _, r := u.root(n)
	if r < 0 {
		f(n)
		return
	}
	for i := r; ; {
		f(u.names[i])
		if i = u.rings[i].next; i == r {
			return
		}
	}
}

// Class returns all members of n's relational class, including n, in
// ForClass's order. The result is freshly allocated.
func (u *UF[N, L]) Class(n N) []N {
	var out []N
	u.ForClass(n, func(m N) { out = append(out, m) })
	return out
}

// ClassSize returns the size of n's relational class (1 for unknown nodes).
func (u *UF[N, L]) ClassSize(n N) int {
	if _, _, r := u.root(n); r >= 0 {
		return int(u.rings[r].size)
	}
	return 1
}

// MaxClassSize returns the size of the largest relational class (1 if no
// unions were performed).
func (u *UF[N, L]) MaxClassSize() int {
	most := 1
	for i, x := range u.nodes {
		if x.parent == int32(i) {
			most = max(most, int(u.rings[i].size))
		}
	}
	return most
}
