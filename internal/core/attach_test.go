package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"luf/internal/cert"
	"luf/internal/core"
	"luf/internal/domain"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/interval"
	"luf/internal/invariant"
	"luf/internal/rational"
)

// TestInfoMergesOnBareUnions: information attached with NewInfo merges on
// every union of its union-find, including unions made through the bare
// *UF (as the solver's Shostak layer makes them). After random unions and
// refinements, the structure passes the Figure 5 audit (information only
// at representatives) and every GetInfo equals Theorem 3.2's closed form:
// the meet over all AddInfo calls in n's class, transported to n.
func TestInfoMergesOnBareUnions(t *testing.T) {
	act := domain.QDiffAction{}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		j := cert.NewJournal[int, rational.Q](group.QDiff{})
		base := core.New[int, rational.Q](group.QDiff{},
			core.WithRecorder(j.Record), core.WithSeed[int, rational.Q](int64(trial)))
		info := core.NewInfo[int, rational.Q, domain.IC](base, act)
		type infoCall struct {
			node int
			val  domain.IC
		}
		var calls []infoCall
		const nodes = 12
		for step := 0; step < 40; step++ {
			n, m := rng.Intn(nodes), rng.Intn(nodes)
			k := rational.QInt(int64(rng.Intn(7) - 3))
			switch rng.Intn(3) {
			case 0:
				base.AddRelation(n, m, k)
			case 1:
				base.AddRelationReason(n, m, k, "bare")
			case 2:
				lo := int64(rng.Intn(41) - 20)
				val := domain.FromInterval(interval.RangeInt(lo, lo+int64(rng.Intn(20))))
				calls = append(calls, infoCall{n, val})
				info.AddInfo(n, val)
			}
		}
		if err := invariant.CheckInfoUF(info, j.Entries()); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for n := 0; n < nodes; n++ {
			want := act.Top()
			for _, c := range calls {
				if k, ok := base.GetRelation(n, c.node); ok {
					want = act.Meet(want, act.Apply(k, c.val))
				}
			}
			if got := info.GetInfo(n); !got.Eq(want) {
				t.Fatalf("trial %d node %d: GetInfo = %s, want %s", trial, n, got, want)
			}
		}
	}
}

// TestSecondNewInfoIsMisuse: a union-find carries at most one InfoUF. A
// second NewInfo is recorded in Misuse (and so fails the invariant
// audit), and the first InfoUF stays attached: its information keeps
// merging on unions.
func TestSecondNewInfoIsMisuse(t *testing.T) {
	act := domain.QDiffAction{}
	base := core.New[string, rational.Q](group.QDiff{})
	first := core.NewInfo[string, rational.Q, domain.IC](base, act)
	if err := base.Misuse(); err != nil {
		t.Fatalf("first NewInfo recorded misuse: %v", err)
	}
	core.NewInfo[string, rational.Q, domain.IC](base, act)
	if err := base.Misuse(); !errors.Is(err, fault.ErrConflict) {
		t.Fatalf("second NewInfo: Misuse = %v, want ErrConflict", err)
	}
	if err := invariant.CheckInfoUF(first, nil); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Fatalf("audit after second NewInfo = %v, want an invariant violation", err)
	}
	// σ(y) = σ(x) + 2 with x = 1 and y ∈ [0, 5]: the union must merge
	// through the first InfoUF, giving y = 3.
	first.AddInfo("x", domain.ConstInt(1))
	first.AddInfo("y", domain.FromInterval(interval.RangeInt(0, 5)))
	base.AddRelation("x", "y", rational.QInt(2))
	if got := first.GetInfo("y"); !got.Eq(domain.ConstInt(3)) {
		t.Fatalf("first InfoUF detached: GetInfo(y) = %s, want 3", got)
	}
}
