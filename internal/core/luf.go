// Package core implements the labeled union-find data structure of the
// paper (Section 3, Figure 4): a union-find whose parent edges carry labels
// from a group, so that the relation between any two connected nodes can be
// recovered by composing labels along paths.
//
// Three variants are provided:
//
//   - UF: the mutable structure of Figure 4, with path compression and
//     randomized linking. It is the flow-insensitive workhorse.
//   - InfoUF: UF extended with per-class information stored at
//     representatives and transported by a group action (Section 3.3,
//     Figure 5). The information merges on every union of its UF,
//     whichever handle made the union.
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
	g          group.Group[L]
	parent     map[N]Edge[N, L] // absent nodes are their own representative
	members    map[N][]N        // root -> class members other than the root
	onConflict ConflictFunc[N, L]
	rng        *rand.Rand // nil while the default seed's flips are replayed
	flips      int        // default-seed coin flips taken so far
	compress   bool
	stats      Stats
	inConflict bool // true while onConflict runs (reentrancy detection)
	misuse     error
	onLink     func(a, b N, l L) // NewInfo's merge, run by link after every union; nil without one

	// Recording mode (certification): every accepted AddRelation call is
	// forwarded — exactly as asserted, untouched by path compression or
	// randomized linking — to the recorder hook, together with the
	// caller-supplied reason of AddRelationReason (empty for plain
	// AddRelation). cert.Journal.Record matches this signature. It is
	// the only history the structure keeps: the invariant checker
	// recomposes the recorded entries.
	recorder func(n, m N, l L, reason string)
}

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
// exactly as made (n --l--> m) and the caller's reason. Pass a
// cert.Journal's Record method to collect certifiable evidence.
func WithRecorder[N comparable, L any](f func(n, m N, l L, reason string)) Option[N, L] {
	return func(u *UF[N, L]) { u.recorder = f }
}

// New returns an empty labeled union-find over the label group g.
func New[N comparable, L any](g group.Group[L], opts ...Option[N, L]) *UF[N, L] {
	u := &UF[N, L]{
		g:        g,
		parent:   make(map[N]Edge[N, L]),
		members:  make(map[N][]N),
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
	u.stats.Finds++
	return u.find(n)
}

func (u *UF[N, L]) find(n N) (N, L) {
	e, ok := u.parent[n]
	if !ok {
		return n, u.g.Identity()
	}
	r, lr := u.find(e.Parent)
	l := u.g.Compose(e.Label, lr)
	if u.compress && r != e.Parent {
		u.parent[n] = Edge[N, L]{Parent: r, Label: l}
	}
	return r, l
}

// Related reports whether n and m are in the same relational class.
func (u *UF[N, L]) Related(n, m N) bool {
	rn, _ := u.Find(n)
	rm, _ := u.Find(m)
	return rn == rm
}

// GetRelation returns the label ℓ with n --ℓ--> m if the nodes are
// related; ok is false otherwise (the ⊤ result of Figure 4).
func (u *UF[N, L]) GetRelation(n, m N) (L, bool) {
	rn, ln := u.Find(n)
	rm, lm := u.Find(m)
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
	rn, ln := u.Find(n)
	rm, lm := u.Find(m)
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
	// Randomized linking (Goel et al.): flip a coin for the new root.
	if u.coin() == 0 {
		// rn --inv(ln);l;lm--> rm
		u.link(rn, rm, group.ComposeAll[L](u.g, u.g.Inverse(ln), l, lm))
	} else {
		// rm --inv(lm);inv(l);ln--> rn
		u.link(rm, rn, group.ComposeAll[L](u.g, u.g.Inverse(lm), u.g.Inverse(l), ln))
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
// compression). Iteration order is unspecified.
func (u *UF[N, L]) ForEachEdge(f func(n N, e Edge[N, L])) {
	for n, e := range u.parent {
		f(n, e)
	}
}

// ForEachMemberList calls f on every root's member list (members
// exclude the root itself). The slices are shared — do not modify.
func (u *UF[N, L]) ForEachMemberList(f func(root N, members []N)) {
	for r, mem := range u.members {
		f(r, mem)
	}
}

// InjectEdge overwrites n's parent edge bypassing all validation. It
// exists ONLY so negative tests can corrupt a structure and prove the
// invariant checker catches it; never call it from production code.
func (u *UF[N, L]) InjectEdge(n N, e Edge[N, L]) {
	u.parent[n] = e
}

// link points root a at root b with a --l--> b, merges member lists,
// and merges the class information of an attached InfoUF.
func (u *UF[N, L]) link(a, b N, l L) {
	u.parent[a] = Edge[N, L]{Parent: b, Label: l}
	mb := u.members[b]
	mb = append(mb, a)
	mb = append(mb, u.members[a]...)
	u.members[b] = mb
	delete(u.members, a)
	if u.onLink != nil {
		u.onLink(a, b, l)
	}
}

// Class returns all members of n's relational class, including n. The
// result is freshly allocated; order is unspecified beyond the
// representative coming first.
func (u *UF[N, L]) Class(n N) []N {
	r, _ := u.Find(n)
	mem := u.members[r]
	out := make([]N, 0, len(mem)+1)
	out = append(out, r)
	out = append(out, mem...)
	return out
}

// ClassSize returns the size of n's relational class (1 for unknown nodes).
func (u *UF[N, L]) ClassSize(n N) int {
	r, _ := u.Find(n)
	return len(u.members[r]) + 1
}

// MaxClassSize returns the size of the largest relational class (1 if no
// unions were performed).
func (u *UF[N, L]) MaxClassSize() int {
	max := 1
	for _, mem := range u.members {
		if len(mem)+1 > max {
			max = len(mem) + 1
		}
	}
	return max
}

// NumNodes returns the number of nodes that appear in some non-singleton
// class or have a parent edge.
func (u *UF[N, L]) NumNodes() int {
	n := len(u.parent)
	for range u.members {
		n++ // each root with members
	}
	return n
}

// Roots returns the representatives of all non-singleton classes.
func (u *UF[N, L]) Roots() []N {
	out := make([]N, 0, len(u.members))
	for r := range u.members {
		out = append(out, r)
	}
	return out
}
