// Package pmap implements persistent (immutable) big-endian Patricia-tree
// maps from non-negative int keys to arbitrary values, after Okasaki and
// Gill, "Fast Mergeable Integer Maps" (ML Workshop 1998).
//
// These are the "fast mergeable maps" Appendix A of the paper relies on: all
// updates are O(log n) and return a new map sharing structure with the old
// one, and the merge operations (IntersectWith, UnionWith) skip physically
// shared subtrees, which makes intersecting two maps that derive from a
// common ancestor O(Δ log n) where Δ is the number of differing bindings.
//
// Keys must be non-negative; operations panic on negative keys. Iteration
// visits keys in ascending order.
package pmap

import "luf/internal/fault"

// A node is either a *leaf or a *branch. nil represents the empty map.
type node[V any] interface{ isNode() }

type leaf[V any] struct {
	key uint64
	val V
}

type branch[V any] struct {
	prefix uint64  // common prefix above the branching bit
	bit    uint64  // branching bit (single set bit)
	left   node[V] // keys with the bit clear
	right  node[V] // keys with the bit set
	size   int
}

func (*leaf[V]) isNode()   {}
func (*branch[V]) isNode() {}

// Map is a persistent map from non-negative ints to V. The zero value is an
// empty map ready for use. Maps are values; copying them is O(1).
type Map[V any] struct {
	root node[V]
}

func checkKey(k int) uint64 {
	if k < 0 {
		panic(fault.Invalidf("pmap: negative key %d", k))
	}
	return uint64(k)
}

func size[V any](n node[V]) int {
	switch n := n.(type) {
	case nil:
		return 0
	case *leaf[V]:
		return 1
	case *branch[V]:
		return n.size
	}
	panic(fault.Invariantf("pmap: unreachable node kind"))
}

// Len returns the number of bindings in the map.
func (m Map[V]) Len() int { return size[V](m.root) }

// IsEmpty reports whether the map has no bindings.
func (m Map[V]) IsEmpty() bool { return m.root == nil }

// matchPrefix reports whether key k agrees with the branch prefix above bit.
func matchPrefix(k, prefix, bit uint64) bool {
	return (k &^ (bit - 1) &^ bit) == prefix
}

// Get returns the value bound to k, if any.
func (m Map[V]) Get(k int) (V, bool) {
	uk := checkKey(k)
	n := m.root
	for {
		switch t := n.(type) {
		case nil:
			var zero V
			return zero, false
		case *leaf[V]:
			if t.key == uk {
				return t.val, true
			}
			var zero V
			return zero, false
		case *branch[V]:
			if !matchPrefix(uk, t.prefix, t.bit) {
				var zero V
				return zero, false
			}
			if uk&t.bit == 0 {
				n = t.left
			} else {
				n = t.right
			}
		}
	}
}

// Contains reports whether k is bound in the map.
func (m Map[V]) Contains(k int) bool {
	_, ok := m.Get(k)
	return ok
}

// highestBit returns the highest set bit of x (x != 0).
func highestBit(x uint64) uint64 {
	x |= x >> 1
	x |= x >> 2
	x |= x >> 4
	x |= x >> 8
	x |= x >> 16
	x |= x >> 32
	return x &^ (x >> 1)
}

// join combines two non-nil trees with distinct prefixes p0 and p1.
func join[V any](p0 uint64, t0 node[V], p1 uint64, t1 node[V]) *branch[V] {
	bit := highestBit(p0 ^ p1)
	prefix := p0 &^ (bit - 1) &^ bit
	b := &branch[V]{prefix: prefix, bit: bit, size: size[V](t0) + size[V](t1)}
	if p0&bit == 0 {
		b.left, b.right = t0, t1
	} else {
		b.left, b.right = t1, t0
	}
	return b
}

func mkBranch[V any](prefix, bit uint64, l, r node[V]) node[V] {
	if l == nil {
		return r
	}
	if r == nil {
		return l
	}
	return &branch[V]{prefix: prefix, bit: bit, left: l, right: r, size: size[V](l) + size[V](r)}
}

// Set returns a map with k bound to v (replacing any previous binding).
func (m Map[V]) Set(k int, v V) Map[V] {
	uk := checkKey(k)
	return Map[V]{root: insert[V](m.root, uk, v)}
}

func insert[V any](n node[V], k uint64, v V) node[V] {
	switch t := n.(type) {
	case nil:
		return &leaf[V]{key: k, val: v}
	case *leaf[V]:
		if t.key == k {
			return &leaf[V]{key: k, val: v}
		}
		return join[V](k, &leaf[V]{key: k, val: v}, t.key, t)
	case *branch[V]:
		if !matchPrefix(k, t.prefix, t.bit) {
			return join[V](k, &leaf[V]{key: k, val: v}, t.prefix, t)
		}
		if k&t.bit == 0 {
			l := insert[V](t.left, k, v)
			return &branch[V]{prefix: t.prefix, bit: t.bit, left: l, right: t.right, size: size[V](l) + size[V](t.right)}
		}
		r := insert[V](t.right, k, v)
		return &branch[V]{prefix: t.prefix, bit: t.bit, left: t.left, right: r, size: size[V](t.left) + size[V](r)}
	}
	panic(fault.Invariantf("pmap: unreachable node kind"))
}

// Update returns a map where the binding for k is f(old, existed). If f's
// second result is false the binding is removed (or stays absent).
func (m Map[V]) Update(k int, f func(old V, ok bool) (V, bool)) Map[V] {
	old, ok := m.Get(k)
	nv, keep := f(old, ok)
	if !keep {
		if !ok {
			return m
		}
		return m.Remove(k)
	}
	return m.Set(k, nv)
}

// Remove returns a map without a binding for k.
func (m Map[V]) Remove(k int) Map[V] {
	uk := checkKey(k)
	return Map[V]{root: remove[V](m.root, uk)}
}

func remove[V any](n node[V], k uint64) node[V] {
	switch t := n.(type) {
	case nil:
		return nil
	case *leaf[V]:
		if t.key == k {
			return nil
		}
		return t
	case *branch[V]:
		if !matchPrefix(k, t.prefix, t.bit) {
			return t
		}
		if k&t.bit == 0 {
			l := remove[V](t.left, k)
			if l == t.left {
				return t
			}
			return mkBranch[V](t.prefix, t.bit, l, t.right)
		}
		r := remove[V](t.right, k)
		if r == t.right {
			return t
		}
		return mkBranch[V](t.prefix, t.bit, t.left, r)
	}
	panic(fault.Invariantf("pmap: unreachable node kind"))
}

// ForEach calls f on each binding in ascending key order until f returns
// false. It reports whether iteration ran to completion.
func (m Map[V]) ForEach(f func(k int, v V) bool) bool {
	return forEach[V](m.root, f)
}

func forEach[V any](n node[V], f func(k int, v V) bool) bool {
	switch t := n.(type) {
	case nil:
		return true
	case *leaf[V]:
		return f(int(t.key), t.val)
	case *branch[V]:
		return forEach[V](t.left, f) && forEach[V](t.right, f)
	}
	panic(fault.Invariantf("pmap: unreachable node kind"))
}

// Keys returns all keys in ascending order.
func (m Map[V]) Keys() []int {
	out := make([]int, 0, m.Len())
	m.ForEach(func(k int, _ V) bool { out = append(out, k); return true })
	return out
}

// Min returns the smallest bound key, or ok=false on an empty map.
func (m Map[V]) Min() (k int, v V, ok bool) {
	n := m.root
	if n == nil {
		return 0, v, false
	}
	for {
		switch t := n.(type) {
		case *leaf[V]:
			return int(t.key), t.val, true
		case *branch[V]:
			n = t.left
		}
	}
}

// IntersectWith returns the intersection of a and b. Physically shared
// subtrees are reused without traversal. For keys bound in both maps:
// if eq(va, vb) the binding from a is kept; otherwise combine decides the
// value (and whether to keep the binding at all). eq may be nil, in which
// case all common keys go through combine. combine is called in ascending
// key order.
func IntersectWith[V any](a, b Map[V], eq func(va, vb V) bool, combine func(k int, va, vb V) (V, bool)) Map[V] {
	return Map[V]{root: inter[V](a.root, b.root, eq, combine)}
}

func inter[V any](a, b node[V], eq func(va, vb V) bool, combine func(k int, va, vb V) (V, bool)) node[V] {
	if a == nil || b == nil {
		return nil
	}
	if a == b { // physically shared: everything below is identical
		return a
	}
	switch ta := a.(type) {
	case *leaf[V]:
		vb, ok := getNode[V](b, ta.key)
		if !ok {
			return nil
		}
		if eq != nil && eq(ta.val, vb) {
			return ta
		}
		if v, keep := combine(int(ta.key), ta.val, vb); keep {
			return &leaf[V]{key: ta.key, val: v}
		}
		return nil
	case *branch[V]:
		switch tb := b.(type) {
		case *leaf[V]:
			va, ok := getNode[V](a, tb.key)
			if !ok {
				return nil
			}
			if eq != nil && eq(va, tb.val) {
				return &leaf[V]{key: tb.key, val: va}
			}
			if v, keep := combine(int(tb.key), va, tb.val); keep {
				return &leaf[V]{key: tb.key, val: v}
			}
			return nil
		case *branch[V]:
			if ta.bit == tb.bit && ta.prefix == tb.prefix {
				l := inter[V](ta.left, tb.left, eq, combine)
				r := inter[V](ta.right, tb.right, eq, combine)
				if l == ta.left && r == ta.right {
					return ta
				}
				return mkBranch[V](ta.prefix, ta.bit, l, r)
			}
			if ta.bit > tb.bit { // ta is shorter (higher branching bit)
				if !matchPrefix(tb.prefix, ta.prefix, ta.bit) {
					return nil
				}
				if tb.prefix&ta.bit == 0 {
					return inter[V](ta.left, b, eq, combine)
				}
				return inter[V](ta.right, b, eq, combine)
			}
			// tb is shorter
			if !matchPrefix(ta.prefix, tb.prefix, tb.bit) {
				return nil
			}
			if ta.prefix&tb.bit == 0 {
				return inter[V](a, tb.left, eq, combine)
			}
			return inter[V](a, tb.right, eq, combine)
		}
	}
	panic(fault.Invariantf("pmap: unreachable node kind"))
}

func getNode[V any](n node[V], k uint64) (V, bool) {
	for {
		switch t := n.(type) {
		case nil:
			var zero V
			return zero, false
		case *leaf[V]:
			if t.key == k {
				return t.val, true
			}
			var zero V
			return zero, false
		case *branch[V]:
			if !matchPrefix(k, t.prefix, t.bit) {
				var zero V
				return zero, false
			}
			if k&t.bit == 0 {
				n = t.left
			} else {
				n = t.right
			}
		}
	}
}

// UnionWith returns the union of a and b; for keys bound in both, combine
// picks the value. Physically shared subtrees are reused.
func UnionWith[V any](a, b Map[V], combine func(k int, va, vb V) V) Map[V] {
	return Map[V]{root: union[V](a.root, b.root, combine)}
}

func union[V any](a, b node[V], combine func(k int, va, vb V) V) node[V] {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a == b {
		return a
	}
	switch ta := a.(type) {
	case *leaf[V]:
		if vb, ok := getNode[V](b, ta.key); ok {
			return insert[V](b, ta.key, combine(int(ta.key), ta.val, vb))
		}
		return insert[V](b, ta.key, ta.val)
	case *branch[V]:
		switch tb := b.(type) {
		case *leaf[V]:
			if va, ok := getNode[V](a, tb.key); ok {
				return insert[V](a, tb.key, combine(int(tb.key), va, tb.val))
			}
			return insert[V](a, tb.key, tb.val)
		case *branch[V]:
			if ta.bit == tb.bit && ta.prefix == tb.prefix {
				l := union[V](ta.left, tb.left, combine)
				r := union[V](ta.right, tb.right, combine)
				if l == ta.left && r == ta.right {
					return ta
				}
				return mkBranch[V](ta.prefix, ta.bit, l, r)
			}
			if ta.bit > tb.bit {
				if !matchPrefix(tb.prefix, ta.prefix, ta.bit) {
					return join[V](ta.prefix, a, tb.prefix, b)
				}
				if tb.prefix&ta.bit == 0 {
					return mkBranch[V](ta.prefix, ta.bit, union[V](ta.left, b, combine), ta.right)
				}
				return mkBranch[V](ta.prefix, ta.bit, ta.left, union[V](ta.right, b, combine))
			}
			if !matchPrefix(ta.prefix, tb.prefix, tb.bit) {
				return join[V](ta.prefix, a, tb.prefix, b)
			}
			if ta.prefix&tb.bit == 0 {
				return mkBranch[V](tb.prefix, tb.bit, union[V](a, tb.left, combine), tb.right)
			}
			return mkBranch[V](tb.prefix, tb.bit, tb.left, union[V](a, tb.right, combine))
		}
	}
	panic(fault.Invariantf("pmap: unreachable node kind"))
}
