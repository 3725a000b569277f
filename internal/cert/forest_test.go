package cert

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"luf/internal/fault"
	"luf/internal/group"
)

// bfsChain is the differential oracle for Journal.Explain: a chain
// x ⇝ y minimal in edge count, found by breadth-first search over the
// recorded assertions traversed in either direction. adj is
// adjacency(j). ok is false when no chain exists.
func bfsChain[N comparable, L any](j *Journal[N, L], adj map[N][]int, x, y N) (steps []Step[N, L], ok bool) {
	if x == y {
		return nil, true
	}
	type via struct {
		entry    int
		reversed bool
		from     N
	}
	prev := map[N]via{x: {entry: -1}}
	queue := []N{x}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, idx := range adj[cur] {
			e := j.Entries()[idx]
			next, reversed := e.M, false
			if e.M == cur {
				next, reversed = e.N, true
			}
			if _, seen := prev[next]; seen {
				continue
			}
			prev[next] = via{entry: idx, reversed: reversed, from: cur}
			if next != y {
				queue = append(queue, next)
				continue
			}
			for at := y; at != x; {
				v := prev[at]
				e := j.Entries()[v.entry]
				steps = append(steps, Step[N, L]{
					N: e.N, M: e.M, Label: e.Label, Reversed: v.reversed, Reason: e.Reason,
				})
				at = v.from
			}
			for l, r := 0, len(steps)-1; l < r; l, r = l+1, r-1 {
				steps[l], steps[r] = steps[r], steps[l]
			}
			return steps, true
		}
	}
	return nil, false
}

// adjacency indexes j's entries by the nodes they touch, for bfsChain.
func adjacency[N comparable, L any](j *Journal[N, L]) map[N][]int {
	adj := map[N][]int{}
	for i, e := range j.Entries() {
		adj[e.N] = append(adj[e.N], i)
		if e.M != e.N {
			adj[e.M] = append(adj[e.M], i)
		}
	}
	return adj
}

// forestNodes bounds the node ids a fuzz stream touches; queries also
// probe one id past it, a node no assertion mentions.
const forestNodes = 32

// forestStream decodes fuzz bytes into an assertion stream over nodes
// 0..forestNodes-1: single edges (self-loops, repeats and redundant
// edges included), path-shaped runs that build deep proof trees, and
// exact or reversed repeats of earlier assertions. Each pair is an
// assertion from [0] to [1]; labels come from the hidden potential.
// Only the first 40 operations count, which keeps one fuzz run cheap.
func forestStream(data []byte) [][2]int {
	data = data[:min(len(data), 120)]
	var out [][2]int
	for i := 0; i+2 < len(data); i += 3 {
		op, p, q := data[i]%4, int(data[i+1])%forestNodes, int(data[i+2])%forestNodes
		switch op {
		case 0, 1:
			out = append(out, [2]int{p, q})
		case 2:
			// A path p, p+1, …, p+len: deep when later merged into a
			// larger class, which forces re-rooting along it.
			for k := 0; k < q%16+1 && p+k+1 < forestNodes; k++ {
				out = append(out, [2]int{p + k, p + k + 1})
			}
		case 3:
			if len(out) > 0 {
				e := out[(p*forestNodes+q)%len(out)]
				if q%2 == 1 {
					e[0], e[1] = e[1], e[0]
				}
				out = append(out, e)
			}
		}
	}
	return out
}

// checkForest records stream into a journal over g, labelling n --ℓ--> m
// with sigma(n)⁻¹;sigma(m) so every derivable relation equals the
// potential's, then differentially checks Explain on every node pair
// against bfsChain.
func checkForest[L any](t *testing.T, g group.Group[L], sigma func(int) L, stream [][2]int) {
	t.Helper()
	j := NewJournal[int, L](g)
	label := func(n, m int) L { return g.Compose(g.Inverse(sigma(n)), sigma(m)) }
	for k, e := range stream {
		j.Record(e[0], e[1], label(e[0], e[1]), fmt.Sprintf("a%d", k))
	}

	// The stream is acyclic when every recorded non-loop assertion
	// joined two classes; the forest path is then the only path.
	parent := make([]int, forestNodes)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	acyclic := true
	first := map[[2]int]Entry[int, L]{}
	for _, e := range j.Entries() {
		if e.N == e.M {
			continue
		}
		key := [2]int{min(e.N, e.M), max(e.N, e.M)}
		if _, ok := first[key]; !ok {
			first[key] = e
		}
		if rn, rm := find(e.N), find(e.M); rn == rm {
			acyclic = false
		} else {
			parent[rn] = rm
		}
	}

	adj := adjacency(j)
	for x := 0; x <= forestNodes; x++ {
		for y := 0; y <= forestNodes; y++ {
			want, connected := bfsChain(j, adj, x, y)
			c, err := j.Explain(x, y)
			if !connected {
				if !errors.Is(err, fault.ErrInvariantViolated) {
					t.Fatalf("Explain(%d, %d) on unconnected nodes: err = %v, want ErrInvariantViolated", x, y, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("Explain(%d, %d): %v, but BFS connects them", x, y, err)
			}
			if !g.Equal(c.Label, label(x, y)) {
				t.Fatalf("Explain(%d, %d).Label = %s, potential says %s",
					x, y, g.Format(c.Label), g.Format(label(x, y)))
			}
			if err := Check(c, g); err != nil {
				t.Fatalf("Check(Explain(%d, %d)): %v", x, y, err)
			}
			if e, ok := first[[2]int{min(x, y), max(x, y)}]; ok && x != y {
				if len(c.Steps) != 1 || c.Steps[0].Reason != e.Reason {
					t.Fatalf("Explain(%d, %d) = %d steps, want the first direct assertion %s",
						x, y, len(c.Steps), e.Reason)
				}
			}
			if acyclic && len(c.Steps) != len(want) {
				t.Fatalf("Explain(%d, %d) = %d steps on an acyclic stream, BFS finds %d",
					x, y, len(c.Steps), len(want))
			}
		}
	}
}

// FuzzJournalForest differentially checks the proof forest against the
// BFS oracle over streams consistent with a hidden potential σ, for the
// abelian Delta group and the order-sensitive TVPE group (a flipped
// orientation or composition order changes a TVPE label).
func FuzzJournalForest(f *testing.F) {
	// A triangle and a self-loop; paths merged end to end and then
	// closed into cycles; exact and reversed repeats.
	f.Add([]byte{0, 1, 2, 0, 2, 3, 0, 1, 3, 0, 4, 4})
	f.Add([]byte{2, 0, 15, 2, 16, 15, 0, 31, 3, 0, 30, 27, 0, 10, 20})
	f.Add([]byte{2, 0, 9, 2, 10, 9, 2, 20, 11, 0, 31, 0, 0, 21, 10, 3, 5, 1, 3, 9, 2})
	f.Add([]byte{1, 5, 6, 1, 6, 5, 3, 0, 0, 3, 0, 1, 0, 5, 5, 0, 7, 6, 0, 5, 7})
	// A star and a path, joined at the path's middle, so the star is
	// re-rooted and its branches meet below the join.
	f.Add([]byte{0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 4, 0, 2, 10, 5, 0, 13, 2, 0, 20, 21, 0, 22, 21, 2, 24, 3, 0, 26, 21})
	// A random tree over every node, recorded in random order, so
	// branching classes merge at random sizes.
	rng := rand.New(rand.NewSource(1))
	var tree []byte
	for _, i := range rng.Perm(forestNodes - 1) {
		tree = append(tree, 0, byte(rng.Intn(i+1)), byte(i+1))
	}
	f.Add(tree)
	f.Fuzz(func(t *testing.T, data []byte) {
		stream := forestStream(data)
		delta := func(i int) int64 { return int64(i*i%97 - 40) }
		checkForest[int64](t, group.Delta{}, delta, stream)
		// Slopes ±1 and ±2 keep the rational arithmetic cheap while
		// leaving composition order-sensitive and inverses distinct.
		tvpe := func(i int) group.Affine {
			a := int64(i%2 + 1)
			if i%4 >= 2 {
				a = -a
			}
			return group.AffineInt(a, int64(i%7-3))
		}
		checkForest[group.Affine](t, group.TVPE{}, tvpe, stream)
	})
}

// benchShapes builds the assertions of one class of n nodes: a random
// tree (each node hangs under an earlier one, recorded in random
// order, so classes merge at random sizes) or a path recorded end to
// end (every assertion deepens the same proof tree).
func benchShapes(n int) map[string][]Entry[string, int64] {
	rng := rand.New(rand.NewSource(1))
	name := func(i int) string { return fmt.Sprintf("n%d", i) }
	tree := make([]Entry[string, int64], 0, n-1)
	for i := 1; i < n; i++ {
		tree = append(tree, Entry[string, int64]{N: name(rng.Intn(i)), M: name(i), Label: int64(i)})
	}
	rng.Shuffle(len(tree), func(a, b int) { tree[a], tree[b] = tree[b], tree[a] })
	path := make([]Entry[string, int64], 0, n-1)
	for i := 1; i < n; i++ {
		path = append(path, Entry[string, int64]{N: name(i - 1), M: name(i), Label: 1})
	}
	return map[string][]Entry[string, int64]{"tree": tree, "path": path}
}

var benchSizes = []int{16, 256, 4096, 65536}

// BenchmarkJournalExplain measures Explain between random members of
// one class, reporting the certificate length next to the time.
func BenchmarkJournalExplain(b *testing.B) {
	for _, n := range benchSizes {
		shapes := benchShapes(n)
		for _, shape := range []string{"tree", "path"} {
			b.Run(fmt.Sprintf("%s/n=%d", shape, n), func(b *testing.B) {
				j := NewJournal[string, int64](group.Delta{})
				for _, e := range shapes[shape] {
					j.Record(e.N, e.M, e.Label, "")
				}
				rng := rand.New(rand.NewSource(2))
				pairs := make([][2]string, 1024)
				for i := range pairs {
					pairs[i] = [2]string{fmt.Sprintf("n%d", rng.Intn(n)), fmt.Sprintf("n%d", rng.Intn(n))}
				}
				steps := 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					c, err := j.Explain(p[0], p[1])
					if err != nil {
						b.Fatal(err)
					}
					steps += len(c.Steps)
				}
				b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
			})
		}
	}
}

// BenchmarkJournalRecord measures recording whole classes; an op is
// one assertion, and a fresh journal starts every n ops, so a row needs
// at least n iterations (the default benchtime gives that). The path
// shape catches a Record that is quadratic in the proof tree's depth.
func BenchmarkJournalRecord(b *testing.B) {
	for _, n := range benchSizes {
		shapes := benchShapes(n)
		for _, shape := range []string{"tree", "path"} {
			entries := shapes[shape]
			b.Run(fmt.Sprintf("%s/n=%d", shape, n), func(b *testing.B) {
				b.ReportAllocs()
				var j *Journal[string, int64]
				for i := 0; i < b.N; i++ {
					k := i % len(entries)
					if k == 0 {
						j = NewJournal[string, int64](group.Delta{})
					}
					e := entries[k]
					j.Record(e.N, e.M, e.Label, "")
				}
			})
		}
	}
}
