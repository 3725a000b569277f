package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"luf/internal/cert"
	"luf/internal/core"
	"luf/internal/group"
	"luf/internal/invariant"
)

// The exhaustive small-scope oracle: every script of at most exCalls
// AddRelation steps over exNodes nodes, with every label of S₃ and every
// outcome of the linking coin, checked after every step against a
// brute-force model of Theorems 3.1 and 3.2, a model of the order
// ForClass walks a class in, and the invariant checker.
//
// Scripts form a tree of shared prefixes walked depth first; each tree
// node is checked once. The union-find has no copy, so each tree node
// replays its script on a fresh structure. Three equivalences keep the
// tree small enough to walk in seconds:
//
//   - Nodes are renamed canonically: a step names only nodes already used
//     or the smallest unused one, since renaming unused nodes gives the
//     same run.
//   - A step on two related nodes changes no relation, whatever its
//     label. Such a step makes all twelve calls on the pair (every label,
//     both orders) on one structure, checks each accepted or refused as
//     the model says, and the walk descends once. A refused call changes
//     nothing a later call can see, so the one descent covers the scripts
//     that make any one of these calls there.
//   - A union step AddRelation(n, m, ℓ) links the same two roots with the
//     same label as AddRelation(m, n, ℓ⁻¹) under the other coin, so
//     unions are walked with n < m, every label and both coins.
//
// A union draws one coin, and the walk branches on both outcomes, each
// reached through WithSeed with a seed whose first draws are the path's
// coins.
const (
	exNodes = 4
	exCalls = 4
)

var (
	exGroup  = group.MustPerm(3)
	exLabels = func() []group.PermLabel {
		var out []group.PermLabel
		for _, p := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
			out = append(out, exGroup.MustLabel(p))
		}
		return out
	}()
	// exInfo is the information AddInfo attaches to a node when a call
	// first names it; node 2 gets none, so a class may hold no info.
	exInfo = [exNodes]struct {
		set permSet
		ok  bool
	}{{0b011, true}, {0b110, true}, {}, {0b101, true}}
	// exSeeds[c] is a seed whose first min(exCalls, exNodes-1) coin draws spell c,
	// low bit first.
	exSeeds = func() []int64 {
		const unions = min(exCalls, exNodes-1)
		seeds := make([]int64, 1<<unions)
		found := 0
		for s := int64(1); found < len(seeds); s++ {
			r := rand.New(rand.NewSource(s))
			c := 0
			for b := range unions {
				c |= r.Intn(2) << b
			}
			if seeds[c] == 0 {
				seeds[c] = s
				found++
			}
		}
		return seeds
	}()
)

// permSet is information over S₃: a subset of {0, 1, 2} as a bit mask,
// 0b111 = ⊤. Under n --σ--> m the value of m is σ(value of n), so
// Apply(σ, S) is the preimage σ⁻¹(S): exact, and distributive over the
// intersection Meet, as Theorem 3.2 requires.
type permSet uint8

type permSetAction struct{}

func (permSetAction) Top() permSet { return 0b111 }

func (permSetAction) Apply(p group.PermLabel, s permSet) permSet {
	var out permSet
	for x, y := range p {
		if s&(1<<y) != 0 {
			out |= 1 << x
		}
	}
	return out
}

func (permSetAction) Meet(a, b permSet) permSet { return a & b }

// exStep is one step of a script: the union AddRelation(n, m,
// exLabels[l]) of two unrelated nodes, or, with l < 0, every call on the
// related pair n, m.
type exStep struct{ n, m, l int }

// exScript is a prefix of the walk: its steps and the coins its unions
// drew, as bits in order.
type exScript struct {
	steps  []exStep
	coins  int
	unions int
}

// exModel is the brute-force model: the accepted unions as an undirected
// labeled graph, and the info calls. Relations are recomposed by search
// along the edges (Theorem 3.1); info is the meet of every info call
// transported along the relation (Theorem 3.2).
type exModel struct {
	edges []exEdge
	info  []exEdge                          // AddInfo(n, set)
	rel   [exNodes][exNodes]group.PermLabel // n --rel[n][m]--> m; nil when unrelated
}

type exEdge struct {
	n, m int
	l    group.PermLabel
	set  permSet
}

// add records the union n --l--> m and recomposes every relation by a
// breadth-first search from each node.
func (md *exModel) add(n, m int, l group.PermLabel) {
	md.edges = append(md.edges, exEdge{n: n, m: m, l: l})
	for src := range exNodes {
		md.rel[src] = [exNodes]group.PermLabel{}
		md.rel[src][src] = exGroup.Identity()
		queue := []int{src}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for _, e := range md.edges {
				y, l := e.m, e.l
				if e.m == x {
					y, l = e.n, exGroup.Inverse(l)
				} else if e.n != x {
					continue
				}
				if md.rel[src][y] == nil {
					md.rel[src][y] = exGroup.Compose(md.rel[src][x], l)
					queue = append(queue, y)
				}
			}
		}
	}
}

func (md *exModel) getInfo(n int) permSet {
	act := permSetAction{}
	out := act.Top()
	for _, c := range md.info {
		if rel := md.rel[n][c.n]; rel != nil {
			out = act.Meet(out, act.Apply(rel, c.set))
		}
	}
	return out
}

// TestExhaustiveSmallScripts walks every script (see exNodes). Each
// first step roots a parallel subtest.
func TestExhaustiveSmallScripts(t *testing.T) {
	var total atomic.Int64
	t.Cleanup(func() { t.Logf("%d script prefixes checked", total.Load()) })
	for _, first := range exChildren(exScript{}) {
		st := first.steps[0]
		t.Run(fmt.Sprintf("%d-%d-%d-c%d", st.n, st.m, st.l, first.coins), func(t *testing.T) {
			t.Parallel()
			total.Add(int64(exWalk(t, first)))
		})
	}
}

// exWalk checks s and every extension of it, returning how many
// prefixes it checked.
func exWalk(t *testing.T, s exScript) int {
	if !exRun(t, s) {
		return 0
	}
	n := 1
	if len(s.steps) < exCalls {
		for _, c := range exChildren(s) {
			n += exWalk(t, c)
			if t.Failed() {
				break
			}
		}
	}
	return n
}

// exChildren lists the one-step extensions of s: a related step on
// every canonical related pair, and on every canonical unrelated pair
// n < m a union under each label and coin.
func exChildren(s exScript) []exScript {
	used := 0
	var md exModel
	md.add(0, 0, exGroup.Identity())
	for _, c := range s.steps {
		used = max(used, c.n+1, c.m+1)
		if c.l >= 0 {
			md.add(c.n, c.m, exLabels[c.l])
		}
	}
	var out []exScript
	for n := 0; n <= min(used, exNodes-1); n++ {
		for m := n; m <= min(max(used, n+1), exNodes-1); m++ {
			steps := append(slices.Clip(s.steps), exStep{n, m, -1})
			if md.rel[n][m] != nil {
				out = append(out, exScript{steps: steps, coins: s.coins, unions: s.unions})
				continue
			}
			for l := range exLabels {
				steps := append(slices.Clip(s.steps), exStep{n, m, l})
				for coin := range 2 {
					out = append(out, exScript{steps: steps, coins: s.coins | coin<<s.unions, unions: s.unions + 1})
				}
			}
		}
	}
	return out
}

// exRun replays s on a fresh InfoUF seeded for its coins and checks the
// state after its last step; it reports false after a failure.
func exRun(t *testing.T, s exScript) bool {
	t.Helper()
	fail := func(format string, args ...any) bool {
		t.Errorf("%v coins %03b: "+format, append([]any{s.steps, s.coins}, args...)...)
		return false
	}
	g := exGroup
	j := cert.NewJournal[int, group.PermLabel](g)
	var conflict core.Conflict[int, group.PermLabel]
	u := core.New[int, group.PermLabel](g,
		core.WithSeed[int, group.PermLabel](exSeeds[s.coins]),
		core.WithRecorder(j.Record),
		core.WithConflictHandler(func(c core.Conflict[int, group.PermLabel]) { conflict = c }))
	iu := core.NewInfo[int, group.PermLabel, permSet](u, permSetAction{})
	var md exModel
	md.add(0, 0, g.Identity()) // relates each node to itself
	// The class order: the coin picks each union's root (coin 0 keeps
	// m's), and the other class joins the end of the root's.
	var order [exNodes][]int
	var owner [exNodes]int
	for x := range exNodes {
		order[x], owner[x] = []int{x}, x
	}
	var named [exNodes]bool
	name := func(n int) {
		if !named[n] {
			named[n] = true
			if in := exInfo[n]; in.ok {
				iu.AddInfo(n, in.set)
				md.info = append(md.info, exEdge{n: n, set: in.set})
			}
		}
	}
	unions := 0
	for i, c := range s.steps {
		name(c.n)
		name(c.m)
		if c.l >= 0 {
			l := exLabels[c.l]
			if !iu.AddRelation(c.n, c.m, l) {
				return fail("step %d: union refused", i)
			}
			md.add(c.n, c.m, l)
			root, joined := owner[c.m], owner[c.n]
			if s.coins>>unions&1 == 1 {
				root, joined = joined, root
			}
			unions++
			order[root] = append(order[root], order[joined]...)
			for _, x := range order[joined] {
				owner[x] = root
			}
			order[joined] = nil
			continue
		}
		for _, l := range exLabels {
			for _, p := range [2][2]int{{c.n, c.m}, {c.m, c.n}} {
				old := md.rel[p[0]][p[1]]
				conflict = core.Conflict[int, group.PermLabel]{}
				accept := g.Equal(old, l)
				if got := iu.AddRelation(p[0], p[1], l); got != accept {
					return fail("step %d: AddRelation(%d, %d, %v) = %v, model says %v", i, p[0], p[1], l, got, accept)
				}
				if !accept && (conflict.N != p[0] || conflict.M != p[1] || !g.Equal(conflict.New, l) || !g.Equal(conflict.Old, old)) {
					return fail("step %d: AddRelation(%d, %d, %v) reported %+v, model old label %v", i, p[0], p[1], l, conflict, old)
				}
			}
		}
	}
	if err := invariant.CheckInfoUF(iu, j.Entries()); err != nil {
		return fail("invariant: %v", err)
	}
	for n := range exNodes {
		var walk []int
		iu.ForClass(n, func(m int) { walk = append(walk, m) })
		want := order[owner[n]]
		if r, _ := iu.Find(n); !slices.Equal(walk, want) || r != want[0] || iu.ClassSize(n) != len(want) {
			return fail("class of %d = %v (root %d, size %d), model %v", n, walk, r, iu.ClassSize(n), want)
		}
		for m := range exNodes {
			rel := md.rel[n][m]
			got, gotOK := iu.GetRelation(n, m)
			if gotOK != (rel != nil) || gotOK && !g.Equal(got, rel) || gotOK != (owner[m] == owner[n]) {
				return fail("GetRelation(%d, %d) = %v, %v; model %v", n, m, got, gotOK, rel)
			}
		}
		if got, want := iu.GetInfo(n), md.getInfo(n); got != want {
			return fail("GetInfo(%d) = %03b, model %03b", n, got, want)
		}
	}
	return true
}
