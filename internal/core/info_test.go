package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"luf/internal/group"
)

// setAction is an exact test action: information is a finite set of
// possible int64 values (nil = ⊤, all values); Delta labels act by
// shifting. Apply(k, S) = {v - k | v ∈ S} is the γ(k)-preimage since an
// edge n --k--> m means σ(m) = σ(n) + k. It is exact, hence a group action
// distributing over Meet (Lemma 5.4).
type setAction struct{}

type valSet []int64 // sorted; nil = top

func (setAction) Top() valSet { return nil }

func (setAction) Apply(k group.DeltaLabel, s valSet) valSet {
	if s == nil {
		return nil
	}
	out := make(valSet, len(s))
	for i, v := range s {
		out[i] = v - k
	}
	return out
}

func (setAction) Meet(a, b valSet) valSet {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	var out valSet = valSet{}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func mkSet(vs ...int64) valSet {
	out := append(valSet{}, vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func setsEqual(a, b valSet) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestInfoBasic(t *testing.T) {
	u := NewInfo[string, group.DeltaLabel, valSet](
		New[string, group.DeltaLabel](group.Delta{}), setAction{})
	if got := u.GetInfo("x"); got != nil {
		t.Errorf("fresh info must be top, got %v", got)
	}
	// y = x + 2; x ∈ {1, 5}.
	u.AddRelation("x", "y", 2)
	u.AddInfo("x", mkSet(1, 5))
	if got := u.GetInfo("x"); !setsEqual(got, mkSet(1, 5)) {
		t.Errorf("GetInfo(x) = %v", got)
	}
	if got := u.GetInfo("y"); !setsEqual(got, mkSet(3, 7)) {
		t.Errorf("GetInfo(y) = %v, want {3,7}", got)
	}
	// Refine y ∈ {3, 100}: then x ∈ {1}.
	u.AddInfo("y", mkSet(3, 100))
	if got := u.GetInfo("x"); !setsEqual(got, mkSet(1)) {
		t.Errorf("GetInfo(x) after meet = %v, want {1}", got)
	}
}

func TestInfoMergedOnUnion(t *testing.T) {
	u := NewInfo[string, group.DeltaLabel, valSet](
		New[string, group.DeltaLabel](group.Delta{}), setAction{})
	u.AddInfo("a", mkSet(0, 1, 2))
	u.AddInfo("b", mkSet(10, 11, 27))
	// b = a + 10: combining infos leaves a ∈ {0,1} (2 has no partner 12).
	u.AddRelation("a", "b", 10)
	if got := u.GetInfo("a"); !setsEqual(got, mkSet(0, 1)) {
		t.Errorf("GetInfo(a) = %v, want {0,1}", got)
	}
	if got := u.GetInfo("b"); !setsEqual(got, mkSet(10, 11)) {
		t.Errorf("GetInfo(b) = %v, want {10,11}", got)
	}
}

// TestTheorem32 checks the closed form of Theorem 3.2: get_info(n) equals
// the meet over all add_info calls (m_p, i_p) in n's class of
// Apply(get_relation(n, m_p), i_p).
func TestTheorem32(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		base := New[int, group.DeltaLabel](group.Delta{}, WithSeed[int, group.DeltaLabel](int64(trial)))
		u := NewInfo[int, group.DeltaLabel, valSet](base, setAction{})
		type infoCall struct {
			node int
			info valSet
		}
		var calls []infoCall
		const nodes = 10
		for step := 0; step < 30; step++ {
			switch rng.Intn(3) {
			case 0, 1:
				u.AddRelation(rng.Intn(nodes), rng.Intn(nodes), int64(rng.Intn(7)-3))
			case 2:
				n := rng.Intn(nodes)
				s := mkSet()
				for v := int64(-20); v <= 20; v++ {
					if rng.Intn(3) == 0 {
						s = append(s, v)
					}
				}
				calls = append(calls, infoCall{n, s})
				u.AddInfo(n, s)
			}
		}
		act := setAction{}
		for n := 0; n < nodes; n++ {
			want := act.Top()
			for _, c := range calls {
				if rel, ok := u.GetRelation(n, c.node); ok {
					want = act.Meet(want, act.Apply(rel, c.info))
				}
			}
			if got := u.GetInfo(n); !setsEqual(got, want) {
				t.Fatalf("trial %d node %d: got %v want %v", trial, n, got, want)
			}
		}
	}
}

// permSet is information over S₃ labels: a subset of {0, 1, 2} as a
// bit mask, 0b111 = ⊤. Under n --σ--> m the value of m is σ(value of
// n), so Apply(σ, S) is the preimage σ⁻¹(S), mapped point by point. A
// preimage under a bijection distributes over intersection, the Meet,
// so the action is exact and Theorem 3.2 applies.
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

// TestTheorem32Perm is TestTheorem32 over S₃ (group.Perm(3)), which is
// not commutative: only here does the closed form depend on the order
// in which labels compose before they act on class information.
func TestTheorem32Perm(t *testing.T) {
	g := group.MustPerm(3)
	act := permSetAction{}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		u := NewInfo[int, group.PermLabel, permSet](New[int, group.PermLabel](g, WithSeed[int, group.PermLabel](int64(trial))), act)
		type infoCall struct {
			node int
			info permSet
		}
		var calls []infoCall
		const nodes = 8
		for step := 0; step < 24; step++ {
			if rng.Intn(3) < 2 {
				u.AddRelation(rng.Intn(nodes), rng.Intn(nodes), group.PermLabel(rng.Perm(3)))
				continue
			}
			c := infoCall{rng.Intn(nodes), permSet(rng.Intn(8))}
			calls = append(calls, c)
			u.AddInfo(c.node, c.info)
		}
		for n := 0; n < nodes; n++ {
			want := act.Top()
			for _, c := range calls {
				if rel, ok := u.GetRelation(n, c.node); ok {
					want = act.Meet(want, act.Apply(rel, c.info))
				}
			}
			if got := u.GetInfo(n); got != want {
				t.Fatalf("trial %d node %d: got %03b want %03b", trial, n, got, want)
			}
		}
	}
}

func TestRootInfoAndSetRoot(t *testing.T) {
	u := NewInfo[string, group.DeltaLabel, valSet](
		New[string, group.DeltaLabel](group.Delta{}), setAction{})
	u.AddRelation("p", "q", 5)
	u.AddInfo("p", mkSet(1))
	r, _, i := u.RootInfo("q")
	if rp, _ := u.Find("p"); rp != r {
		t.Error("RootInfo returned wrong representative")
	}
	if i == nil {
		t.Error("RootInfo lost info")
	}
	u.SetRoot(r, mkSet(42))
	r2, _, i2 := u.RootInfo("p")
	if r2 != r || !setsEqual(i2, mkSet(42)) {
		t.Error("SetRoot did not overwrite")
	}
	_, _, top := u.RootInfo("unknown")
	if top != nil {
		t.Error("RootInfo of unknown node must be top")
	}
}

func TestInfoConflictKeepsInfo(t *testing.T) {
	u := NewInfo[string, group.DeltaLabel, valSet](
		New[string, group.DeltaLabel](group.Delta{}), setAction{})
	u.AddRelation("a", "b", 1)
	u.AddInfo("a", mkSet(7))
	if u.AddRelation("a", "b", 2) {
		t.Error("conflict expected")
	}
	if got := u.GetInfo("a"); !setsEqual(got, mkSet(7)) {
		t.Errorf("info lost on conflict: %v", got)
	}
}

// TestIterationOrderRepeats runs one script twice and requires the same
// ForEachEdge and ForEachInfo sequences: both walk nodes in the order
// they were interned, so no output built from them depends on map order.
func TestIterationOrderRepeats(t *testing.T) {
	run := func() []string {
		u := NewInfo[int, group.DeltaLabel, valSet](New[int, group.DeltaLabel](group.Delta{}), setAction{})
		rng := rand.New(rand.NewSource(5))
		for range 60 {
			u.AddRelation(rng.Intn(40), rng.Intn(40), int64(rng.Intn(9)-4))
			u.AddInfo(rng.Intn(40), mkSet(int64(rng.Intn(5)), 7))
		}
		var seq []string
		u.ForEachEdge(func(n int, e Edge[int, group.DeltaLabel]) {
			seq = append(seq, fmt.Sprintf("edge %d -%d-> %d", n, e.Label, e.Parent))
		})
		u.ForEachInfo(func(n int, i valSet) { seq = append(seq, fmt.Sprintf("info %d %v", n, i)) })
		return seq
	}
	first, second := run(), run()
	if !slices.Equal(first, second) {
		t.Fatalf("one script iterated in two orders:\n%v\n%v", first, second)
	}
}
