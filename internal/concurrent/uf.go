// Package concurrent provides a thread-safe labeled union-find and the
// serving-layer primitives built on it: a batch API that partitions
// independent operations across a worker pool, and a solver portfolio
// that races variants under first-answer-wins cancellation.
//
// The core structure, UF, keeps the paper's data model (parent edges
// labeled by group elements, Section 3) but stores the forest in a
// flat, cache-friendly array of dense int32 ids instead of pointer- or
// map-shaped nodes:
//
//   - node values are interned to dense ids by a sharded RCU-style
//     index (lock-free frozen map + small dirty map per shard), and the
//     parent edge of id i lives in slot i of a chunked flat array — a
//     root walk is a handful of array loads, no pointer chasing and no
//     locks;
//   - each slot holds an atomic pointer to an immutable (parent, label)
//     record. Slots are monotone: nil until the node is linked, non-nil
//     forever after, and every published record is a persistent fact
//     "i --ℓ--> parent" that no later union or halving can invalidate —
//     which is exactly what makes labeled union-find so friendly to
//     concurrency;
//   - unions always link the smaller root id under the larger, so every
//     parent edge points upward in id order and the forest is acyclic
//     by construction, under any interleaving. The link itself is a
//     single compare-and-swap of the smaller root's slot from nil,
//     which atomically re-validates rootness and publishes the edge —
//     writers never take a lock either, they retry on CAS failure;
//   - path halving re-points a node at its grandparent by publishing a
//     replacement record (another true fact, still upward in id order),
//     so compression is wait-free for readers and racy halvings are
//     harmless;
//   - negative queries are linearizable without locks because slots are
//     monotone: observing both walk endpoints' slots nil — with one
//     re-load of the first root after the second walk — exhibits one
//     instant at which both classes were disjoint.
//
// See CONCURRENCY.md at the repository root for the memory-model
// argument, the acyclicity invariant, and the exact linearizability
// guarantees, and DESIGN.md §7 for the flat layout.
package concurrent

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"luf/internal/cert"
	"luf/internal/core"
	"luf/internal/group"
)

// UF is a labeled union-find safe for concurrent use by many readers
// and writers. The zero value is not usable; create instances with New.
//
// Method semantics mirror core.UF with the concurrency-specific
// differences documented per method; the structural invariant (an
// acyclic labeled forest whose path compositions realize every asserted
// relation, Theorem 3.1) holds at every instant.
type UF[N comparable, L any] struct {
	g    group.Group[L]
	seed maphash.Seed

	// tab is the current flat-store header; growMu serializes chunk
	// growth and id-block handout; idCap is the id space already backed
	// by chunks (guarded by growMu).
	tab    atomic.Pointer[table[N, L]]
	growMu sync.Mutex
	idCap  int32

	shards []shard[N, L]
	mask   uint64

	onConflict core.ConflictFunc[N, L]

	// recorder (certification) runs under recMu, and the link CAS of a
	// recorded union happens inside the same critical section, so
	// journal order is consistent with the linearization order of the
	// unions that produced it.
	recorder func(n, m N, l L, reason string)
	recMu    sync.Mutex

	finds, adds, unions, redundant, conflicts atomic.Int64
	retries, halves                           atomic.Int64
}

// Stats counts the operations performed on a concurrent union-find.
// Counters are updated atomically; a snapshot taken while writers run
// is internally consistent per counter but not across counters.
type Stats struct {
	Finds     int64 // root walks: Find calls plus two per GetRelation
	AddCalls  int64 // calls to AddRelation / AddRelationReason
	Unions    int64 // adds that merged two classes
	Redundant int64 // adds already implied by the structure
	Conflicts int64 // adds rejected as contradictory

	Retries int64 // link-CAS failures and negative-query revalidations
	Halves  int64 // path-halving records published
}

// Option configures a concurrent UF.
type Option[N comparable, L any] func(*UF[N, L])

// internShards is the interner shard count: shards admit concurrent
// first-sight interning, and 64 keeps that off the contention profile
// at a few KB of memory. The relational store itself is lock-free
// regardless.
const internShards = 64

// WithConflictHandler installs f as the conflict callback. f is invoked
// without any lock held (so it may query the union-find) and may run
// concurrently with other operations from other goroutines; like
// core.ConflictFunc it must not mutate the union-find.
func WithConflictHandler[N comparable, L any](f core.ConflictFunc[N, L]) Option[N, L] {
	return func(u *UF[N, L]) { u.onConflict = f }
}

// WithRecorder puts the union-find in recording mode: f is called for
// every accepted AddRelation/AddRelationReason call, exactly as
// asserted, while the recorder mutex is held and — for unions — inside
// the same critical section as the link CAS. f therefore runs
// serialized, in linearization order, and must not call back into the
// union-find's write path.
func WithRecorder[N comparable, L any](f func(n, m N, l L, reason string)) Option[N, L] {
	return func(u *UF[N, L]) { u.recorder = f }
}

// WithJournal attaches a certificate journal: every accepted assertion
// is recorded in linearization order, so journal entries are true facts
// and certificates produced from the journal remain checkable by
// cert.Check regardless of interleaving.
func WithJournal[N comparable, L any](j *cert.Journal[N, L]) Option[N, L] {
	return WithRecorder[N, L](j.Record)
}

// New returns an empty concurrent labeled union-find over the label
// group g. The group implementation must be safe for concurrent calls;
// every group in internal/group is stateless and qualifies.
func New[N comparable, L any](g group.Group[L], opts ...Option[N, L]) *UF[N, L] {
	return newUF(g, internShards, opts...)
}

// newUF is New with k interner shards, rounded up to a power of two;
// tests use it to cover one and sixteen shards.
func newUF[N comparable, L any](g group.Group[L], k int, opts ...Option[N, L]) *UF[N, L] {
	n := 1
	for n < k {
		n <<= 1
	}
	u := &UF[N, L]{
		g:      g,
		seed:   maphash.MakeSeed(),
		shards: make([]shard[N, L], n),
		mask:   uint64(n - 1),
	}
	for _, o := range opts {
		o(u)
	}
	for i := range u.shards {
		u.shards[i].dirty = make(map[N]int32)
	}
	u.tab.Store(&table[N, L]{})
	return u
}

// Group returns the label group of the union-find.
func (u *UF[N, L]) Group() group.Group[L] { return u.g }

// Stats returns a snapshot of the operation counters.
func (u *UF[N, L]) Stats() Stats {
	return Stats{
		Finds:     u.finds.Load(),
		AddCalls:  u.adds.Load(),
		Unions:    u.unions.Load(),
		Redundant: u.redundant.Load(),
		Conflicts: u.conflicts.Load(),
		Retries:   u.retries.Load(),
		Halves:    u.halves.Load(),
	}
}

// findID walks parent slots from id to the current root, lock-free,
// composing labels along the way. Each loaded record is a persistent
// fact, so the result "id --acc--> root, whose slot was nil when read"
// is true even if the root has since been linked under another class.
// Traversed nodes are then halved.
func (u *UF[N, L]) findID(id int32) (int32, L) {
	t := u.tab.Load()
	cur, acc := id, u.g.Identity()
	var pathArr [16]int32
	path := pathArr[:0]
	for {
		if !t.covers(cur) {
			t = u.tab.Load()
		}
		e := t.slot(cur).Load()
		if e == nil {
			break
		}
		path = append(path, cur)
		acc = u.g.Compose(acc, e.label)
		cur = e.parent
	}
	// Halving needs a grandparent, so a path of length < 2 has nothing
	// to compress.
	if len(path) >= 2 {
		for _, x := range path[:len(path)-1] {
			t = u.halve(t, x)
		}
	}
	return cur, acc
}

// halve points x at its current grandparent by publishing a replacement
// record. Both loaded records are true facts, so the composed
// replacement is one too, and the grandparent's id is strictly larger
// than the parent's — halving preserves the upward-edge invariant and
// can never create a cycle, even racing other halvings or unions.
func (u *UF[N, L]) halve(t *table[N, L], x int32) *table[N, L] {
	e := t.slot(x).Load()
	if e == nil {
		return t
	}
	if !t.covers(e.parent) {
		t = u.tab.Load()
	}
	pe := t.slot(e.parent).Load()
	if pe == nil {
		return t // parent is a root: nothing to halve
	}
	t.slot(x).Store(&edgeRec[L]{parent: pe.parent, label: u.g.Compose(e.label, pe.label)})
	u.halves.Add(1)
	return t
}

// Find returns a representative r of n's relational class and the label
// ℓ with n --ℓ--> r. The answer is a true fact: n --ℓ--> r holds
// forever, though r may already have been linked under a further root
// by a concurrent union (see CONCURRENCY.md for the exact guarantee).
// Unknown nodes are their own representative with the identity label
// and are not interned — a read never allocates id space. Path halving
// runs during the traversal.
func (u *UF[N, L]) Find(n N) (N, L) {
	u.finds.Add(1)
	id, ok := u.lookup(n)
	if !ok {
		return n, u.g.Identity()
	}
	r, l := u.findID(id)
	if r == id {
		return n, l
	}
	return u.nameOf(r), l
}

// GetRelation returns the label ℓ with n --ℓ--> m if the nodes are
// related. A positive answer is a persistent fact and needs no
// validation. A negative answer is validated lock-free by re-loading
// the first walk's root slot after the second walk: slots are monotone
// (nil until linked, non-nil forever after), so seeing both slots nil
// exhibits one instant at which the two classes were disjoint, making
// the answer linearizable; on stale observations the query retries.
func (u *UF[N, L]) GetRelation(n, m N) (L, bool) {
	u.finds.Add(2)
	var zero L
	idn, okn := u.lookup(n)
	idm, okm := u.lookup(m)
	if !okn || !okm {
		// An unknown node is a singleton class: related only to itself.
		if n == m {
			return u.g.Identity(), true
		}
		return zero, false
	}
	if idn == idm {
		return u.g.Identity(), true
	}
	for {
		rn, ln := u.findID(idn)
		rm, lm := u.findID(idm)
		if rn == rm {
			return u.g.Compose(ln, u.g.Inverse(lm)), true
		}
		if u.tab.Load().slot(rn).Load() == nil {
			// rn's slot was still nil after rm's was seen nil; by slot
			// monotonicity both were roots at the instant the second
			// walk ended, so the classes were disjoint then.
			return zero, false
		}
		u.retries.Add(1)
	}
}

// Related reports whether n and m are in the same relational class,
// with GetRelation's linearizability guarantees.
func (u *UF[N, L]) Related(n, m N) bool {
	_, ok := u.GetRelation(n, m)
	return ok
}

// AddRelation adds the constraint n --ℓ--> m. If the nodes are already
// related and the existing relation disagrees with ℓ, the conflict
// handler runs (without locks held) and AddRelation reports false;
// otherwise it reports true. The union, when one happens, is atomic: a
// single compare-and-swap links the smaller root id under the larger,
// succeeding only if the smaller root's slot is still nil — which both
// re-validates rootness and publishes the edge in one step.
func (u *UF[N, L]) AddRelation(n, m N, l L) bool {
	return u.AddRelationReason(n, m, l, "")
}

// AddRelationReason is AddRelation carrying a reason string that
// recording mode attaches to the journal entry; certificates later cite
// it as evidence. Without a recorder the reason is ignored.
func (u *UF[N, L]) AddRelationReason(n, m N, l L, reason string) bool {
	u.adds.Add(1)
	in, im := u.intern(n), u.intern(m)
	for {
		rn, ln := u.findID(in)
		rm, lm := u.findID(im)
		if rn == rm {
			// Same class: the derived relation is a persistent fact, so
			// the decision is valid even if rn has since lost rootness —
			// no validation or retry needed.
			existing := u.g.Compose(ln, u.g.Inverse(lm))
			if !u.g.Equal(l, existing) {
				u.conflicts.Add(1)
				if u.onConflict != nil {
					u.onConflict(core.Conflict[N, L]{N: n, M: m, New: l, Old: existing, Reason: reason})
				}
				return false
			}
			u.redundant.Add(1)
			u.record(n, m, l, reason)
			return true
		}
		// Link the smaller root id under the larger, so parent edges
		// always point upward in id order and the forest stays acyclic
		// under any interleaving. The label is chosen so the new edge
		// realizes n --l--> m given the two walk facts.
		lo, hi := rn, rm
		var label L
		if rn < rm {
			// rn --inv(ln);l;lm--> rm
			label = group.ComposeAll[L](u.g, u.g.Inverse(ln), l, lm)
		} else {
			// rm --inv(lm);inv(l);ln--> rn
			lo, hi = rm, rn
			label = group.ComposeAll[L](u.g, u.g.Inverse(lm), u.g.Inverse(l), ln)
		}
		rec := &edgeRec[L]{parent: hi, label: label}
		if u.casLink(lo, rec, n, m, l, reason) {
			u.unions.Add(1)
			return true
		}
		// A concurrent union got here first: the observed smaller root
		// is stale. Re-find and retry.
		u.retries.Add(1)
	}
}

// casLink publishes the union edge by compare-and-swapping lo's slot
// from nil; success is the linearization point of the union. When a
// recorder is installed, the CAS happens inside the recorder critical
// section so the journal receives accepted assertions in linearization
// order and never leads the structure.
func (u *UF[N, L]) casLink(lo int32, rec *edgeRec[L], n, m N, l L, reason string) bool {
	if u.recorder == nil {
		return u.tab.Load().slot(lo).CompareAndSwap(nil, rec)
	}
	u.recMu.Lock()
	defer u.recMu.Unlock()
	if !u.tab.Load().slot(lo).CompareAndSwap(nil, rec) {
		return false
	}
	u.recorder(n, m, l, reason)
	return true
}

// record forwards an accepted (redundant) assertion to the recorder
// hook under recMu; the fact is already implied by the structure, so
// ordering relative to the implying unions is guaranteed by recMu.
func (u *UF[N, L]) record(n, m N, l L, reason string) {
	if u.recorder == nil {
		return
	}
	u.recMu.Lock()
	u.recorder(n, m, l, reason)
	u.recMu.Unlock()
}

// Recording reports whether a recorder hook is installed.
func (u *UF[N, L]) Recording() bool { return u.recorder != nil }

// ForEachEdge calls f on every parent edge n --Label--> Parent, walking
// the flat store in id order (deterministic for a given interleaving
// history). Each visited edge is a true fact; for a globally consistent
// view call it at quiescence (no concurrent writers).
func (u *UF[N, L]) ForEachEdge(f func(n N, e core.Edge[N, L])) {
	t := u.tab.Load()
	for _, c := range t.chunks {
		for i := range c.slots {
			e := c.slots[i].Load()
			if e == nil {
				continue
			}
			f(c.names[i], core.Edge[N, L]{Parent: u.nameOf(e.parent), Label: e.label})
		}
	}
}

// NumEdges returns the number of parent edges (equivalently, the number
// of non-root interned nodes), counted over the flat store.
func (u *UF[N, L]) NumEdges() int {
	total := 0
	t := u.tab.Load()
	for _, c := range t.chunks {
		for i := range c.slots {
			if c.slots[i].Load() != nil {
				total++
			}
		}
	}
	return total
}

// Snapshot re-derives the current relations into a fresh single-owner
// core.UF (re-asserting each parent edge, not copying internals), for
// interop with the sequential toolchain: invariant checking, audits,
// Explain. Call it at quiescence; under concurrent writers the snapshot
// is a sound subset of the relations.
func (u *UF[N, L]) Snapshot(opts ...core.Option[N, L]) *core.UF[N, L] {
	out := core.New[N, L](u.g, opts...)
	u.ForEachEdge(func(n N, e core.Edge[N, L]) {
		out.AddRelation(n, e.Parent, e.Label)
	})
	return out
}
