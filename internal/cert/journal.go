package cert

import (
	"luf/internal/fault"
	"luf/internal/group"
)

// Entry is one accepted assertion in a journal: N --Label--> M held
// for Reason. Entries are exactly what the caller asserted — path
// compression, re-rooting and randomized linking never touch them.
type Entry[N comparable, L any] struct {
	N, M   N
	Label  L
	Reason string
}

// Journal is the recording side of certification: an append-only log
// of accepted assertions with a proof forest kept beside it (the
// simplified Nieuwenhuis–Oliveras proof forest). A union-find running
// in recording mode (core.WithRecorder) feeds every accepted
// AddRelation call into a Journal; Explain then recovers a chain of
// assertions justifying any answer the structure gives.
//
// Every assertion that joins two classes becomes one forest edge,
// labelled with its entry; assertions inside a class stay in the log
// but add no edge. A forest path is therefore a chain of genuine
// assertions, and Explain costs the length of the path it walks, not
// the size of the class.
//
// Duplicate assertions (same endpoints and label) are recorded once,
// keeping the first reason — fixpoint engines re-assert the same
// relations every iteration, and duplicates would bloat the log
// without adding derivable facts.
//
// Record is not safe for concurrent use. Explain, ExplainConflict and
// the accessors mutate nothing, so they may run concurrently with each
// other (SyncJournal relies on this for its read lock).
type Journal[N comparable, L any] struct {
	g       group.Group[L]
	entries []Entry[N, L]

	// Nodes are interned to dense indices; the slices below are
	// indexed by them.
	ids map[N]int32
	// parent and size form a journal-private union-find (by size, path
	// compressed). Only Record touches it; it decides whether an
	// assertion joins two classes without walking the forest.
	parent, size []int32
	// up and via are the proof forest: up[i] is i's forest parent
	// (-1 at a root) and via[i] the entry labelling the edge i–up[i].
	up, via []int32

	// pairs maps an unordered endpoint pair to its first entry; next
	// links each entry to the following one for the same pair (-1 at
	// the end). Record dedups against the chain, and Explain answers a
	// directly asserted pair from its head.
	pairs map[[2]int32]int32
	next  []int32
}

// NewJournal returns an empty journal over the label group g.
func NewJournal[N comparable, L any](g group.Group[L]) *Journal[N, L] {
	return &Journal[N, L]{
		g:     g,
		ids:   map[N]int32{},
		pairs: map[[2]int32]int32{},
	}
}

// Group returns the journal's label group.
func (j *Journal[N, L]) Group() group.Group[L] { return j.g }

// Record appends the accepted assertion n --l--> m with the given
// reason. Its signature matches core.WithRecorder's hook, so a journal
// plugs directly into a union-find:
//
//	j := cert.NewJournal[string, int64](group.Delta{})
//	u := core.New[string, int64](group.Delta{}, core.WithRecorder(j.Record))
func (j *Journal[N, L]) Record(n, m N, l L, reason string) {
	a, b := j.intern(n), j.intern(m)
	key := pairKey(a, b)
	last := int32(-1)
	if head, ok := j.pairs[key]; ok {
		for i := head; i >= 0; i = j.next[i] {
			if e := j.entries[i]; e.N == n && e.M == m && j.g.Equal(e.Label, l) {
				return
			}
			last = i
		}
	}
	idx := int32(len(j.entries))
	j.entries = append(j.entries, Entry[N, L]{N: n, M: m, Label: l, Reason: reason})
	j.next = append(j.next, -1)
	if last >= 0 {
		j.next[last] = idx
	} else {
		j.pairs[key] = idx
	}

	ra, rb := j.find(a), j.find(b)
	if ra == rb {
		return // redundant: already derivable, no forest edge
	}
	// Re-root the smaller class's proof tree at its endpoint and hang
	// it under the other endpoint.
	if j.size[ra] < j.size[rb] {
		ra, rb, a, b = rb, ra, b, a
	}
	j.parent[rb] = ra
	j.size[ra] += j.size[rb]
	j.reroot(b)
	j.up[b], j.via[b] = a, idx
}

// intern returns n's dense index, allocating a fresh singleton class
// and proof-tree root for a node not seen before.
func (j *Journal[N, L]) intern(n N) int32 {
	if i, ok := j.ids[n]; ok {
		return i
	}
	i := int32(len(j.up))
	j.ids[n] = i
	j.parent = append(j.parent, i)
	j.size = append(j.size, 1)
	j.up = append(j.up, -1)
	j.via = append(j.via, -1)
	return i
}

// find returns the private union-find root of i, compressing the path.
func (j *Journal[N, L]) find(i int32) int32 {
	r := i
	for j.parent[r] != r {
		r = j.parent[r]
	}
	for j.parent[i] != r {
		j.parent[i], i = r, j.parent[i]
	}
	return r
}

// reroot makes i the root of its proof tree by reversing the edges on
// its path to the old root; each edge keeps its entry.
func (j *Journal[N, L]) reroot(i int32) {
	prev, prevVia := int32(-1), int32(-1)
	for i >= 0 {
		nextUp, nextVia := j.up[i], j.via[i]
		j.up[i], j.via[i] = prev, prevVia
		prev, prevVia, i = i, nextVia, nextUp
	}
}

// pairKey is the unordered pair {a, b}.
func pairKey(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

// Len returns the number of recorded assertions.
func (j *Journal[N, L]) Len() int { return len(j.entries) }

// Entries returns the recorded assertions. The slice is shared — do
// not modify it.
func (j *Journal[N, L]) Entries() []Entry[N, L] { return j.entries }

// Explain returns a Relation certificate for x and y: a chain of
// recorded assertions from x to y — the first assertion recorded
// between x and y if there is one, else the proof-forest path — with
// Label set to the chain's composition: the relation the assertions
// *derive*, independently of any union-find answer. Callers certifying
// a structure's answer overwrite Label with the answer before handing
// the certificate to Check, so a corrupted structure yields a
// certificate Check rejects.
//
// It reports an ErrInvariantViolated-classified error when the journal
// cannot connect x to y.
func (j *Journal[N, L]) Explain(x, y N) (Certificate[N, L], error) {
	steps, err := j.chain(x, y)
	if err != nil {
		return Certificate[N, L]{}, err
	}
	acc := j.g.Identity()
	for _, s := range steps {
		acc = j.g.Compose(acc, s.oriented(j.g))
	}
	return Certificate[N, L]{Kind: Relation, X: x, Y: y, Label: acc, Steps: steps}, nil
}

// ExplainConflict returns a Conflict certificate: the journal chain
// deriving the existing relation between x and y, plus the rejected
// assertion x --newLabel--> y (with its reason) that contradicts it.
// The step reasons plus the conflicting reason form the UNSAT core.
func (j *Journal[N, L]) ExplainConflict(x, y N, newLabel L, reason string) (Certificate[N, L], error) {
	c, err := j.Explain(x, y)
	if err != nil {
		return Certificate[N, L]{}, err
	}
	if j.g.Equal(c.Label, newLabel) {
		return Certificate[N, L]{}, fault.Invariantf(
			"ExplainConflict(%v, %v): asserted label %s agrees with the derived relation — no conflict",
			x, y, j.g.Format(newLabel))
	}
	c.Kind = Conflict
	c.Conflicting = &Step[N, L]{N: x, M: y, Label: newLabel, Reason: reason}
	return c, nil
}

// chain returns an assertion chain x ⇝ y: the first assertion recorded
// between x and y as a one-step chain, else the path from x up to the
// lowest common ancestor of x and y in the proof forest and down to y.
// It mutates nothing.
func (j *Journal[N, L]) chain(x, y N) ([]Step[N, L], error) {
	if x == y {
		return nil, nil
	}
	a, okA := j.ids[x]
	b, okB := j.ids[y]
	if !okA || !okB {
		return nil, j.unrelated(x, y)
	}
	if i, ok := j.pairs[pairKey(a, b)]; ok {
		return []Step[N, L]{j.step(i, x)}, nil
	}
	ra, da := j.root(a)
	rb, db := j.root(b)
	if ra != rb {
		return nil, j.unrelated(x, y)
	}
	// Lift the deeper node, then walk both up to the ancestor they
	// share, counting each side's steps.
	u, v, nu, nv := a, b, 0, 0
	for ; da > db; da, nu = da-1, nu+1 {
		u = j.up[u]
	}
	for ; db > da; db, nv = db-1, nv+1 {
		v = j.up[v]
	}
	for ; u != v; nu, nv = nu+1, nv+1 {
		u, v = j.up[u], j.up[v]
	}
	steps := make([]Step[N, L], nu+nv)
	at := x
	for k, i := 0, a; k < nu; k, i = k+1, j.up[i] {
		steps[k] = j.step(j.via[i], at)
		at = steps[k].To()
	}
	at = y
	for k, i := nu+nv-1, b; k >= nu; k, i = k-1, j.up[i] {
		// The edge i–up[i] is taken downward, towards y.
		s := j.step(j.via[i], at)
		s.Reversed = !s.Reversed
		steps[k] = s
		at = s.From()
	}
	return steps, nil
}

// unrelated is chain's error for nodes the journal cannot connect.
func (j *Journal[N, L]) unrelated(x, y N) error {
	return fault.Invariantf(
		"journal (%d assertions) cannot derive a chain between %v and %v", len(j.entries), x, y)
}

// root returns i's proof-tree root and i's depth below it.
func (j *Journal[N, L]) root(i int32) (int32, int) {
	d := 0
	for j.up[i] >= 0 {
		i = j.up[i]
		d++
	}
	return i, d
}

// step returns entry i as a chain step leaving from, one of its
// endpoints.
func (j *Journal[N, L]) step(i int32, from N) Step[N, L] {
	e := j.entries[i]
	return Step[N, L]{N: e.N, M: e.M, Label: e.Label, Reversed: e.N != from, Reason: e.Reason}
}
