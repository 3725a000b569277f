package concurrent

import (
	"errors"
	"sync"
	"testing"

	"luf/internal/cert"
	"luf/internal/core"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/invariant"
)

// TestConcurrentSequentialSemantics: used from a single goroutine, the
// concurrent UF must behave exactly like core.UF on the basic API.
func TestConcurrentSequentialSemantics(t *testing.T) {
	u := New[string, group.DeltaLabel](group.Delta{})
	if !u.AddRelation("x", "y", 2) {
		t.Fatal("consistent add rejected")
	}
	if !u.AddRelation("y", "z", 3) {
		t.Fatal("consistent add rejected")
	}
	if l, ok := u.GetRelation("x", "z"); !ok || l != 5 {
		t.Fatalf("GetRelation(x,z) = %d, %v; want 5, true", l, ok)
	}
	if l, ok := u.GetRelation("z", "x"); !ok || l != -5 {
		t.Fatalf("GetRelation(z,x) = %d, %v; want -5, true", l, ok)
	}
	if _, ok := u.GetRelation("x", "unrelated"); ok {
		t.Fatal("unrelated nodes reported related")
	}
	if !u.AddRelation("x", "z", 5) {
		t.Fatal("redundant consistent add rejected")
	}
	if u.AddRelation("x", "z", 6) {
		t.Fatal("conflicting add accepted")
	}
	st := u.Stats()
	if st.Unions != 2 || st.Redundant != 1 || st.Conflicts != 1 {
		t.Fatalf("stats = %+v; want 2 unions, 1 redundant, 1 conflict", st)
	}
	r1, _ := u.Find("x")
	r2, _ := u.Find("z")
	if r1 != r2 {
		t.Fatalf("Find disagrees on representatives: %q vs %q", r1, r2)
	}
}

// TestConcurrentConflictHandler: the handler must fire with the same
// Conflict payload semantics as core.UF, without locks held (we verify
// it can query the structure from inside the callback).
func TestConcurrentConflictHandler(t *testing.T) {
	fired := false
	var u *UF[string, group.DeltaLabel]
	u = New[string, group.DeltaLabel](group.Delta{},
		WithConflictHandler[string, group.DeltaLabel](func(c core.Conflict[string, group.DeltaLabel]) {
			fired = true
			if c.New != 9 || c.Old != 2 {
				t.Errorf("conflict payload = %+v; want New 9, Old 2", c)
			}
			// Queries from inside the handler must not deadlock.
			if l, ok := u.GetRelation("a", "b"); !ok || l != 2 {
				t.Errorf("query inside handler = %d, %v", l, ok)
			}
		}))
	u.AddRelation("a", "b", 2)
	if u.AddRelation("a", "b", 9) {
		t.Fatal("conflicting add accepted")
	}
	if !fired {
		t.Fatal("conflict handler did not run")
	}
}

// TestConcurrentInternShards: shard counts round up to powers of two
// and the structure works with a single interner shard.
func TestConcurrentInternShards(t *testing.T) {
	u := newUF[int, group.DeltaLabel](group.Delta{}, 5)
	if got := len(u.shards); got != 8 {
		t.Fatalf("interner shards = %d, want 8", got)
	}
	if got := len(New[int, group.DeltaLabel](group.Delta{}).shards); got != internShards {
		t.Fatalf("default interner shards = %d, want %d", got, internShards)
	}
	one := newUF[int, group.DeltaLabel](group.Delta{}, 1)
	for i := 1; i < 50; i++ {
		one.AddRelation(i-1, i, 1)
	}
	if l, ok := one.GetRelation(0, 49); !ok || l != 49 {
		t.Fatalf("single-shard chain relation = %d, %v; want 49", l, ok)
	}
}

// TestConcurrentSnapshotInvariants: a quiescent snapshot into core.UF
// must satisfy the sequential invariant checker and agree on relations.
func TestConcurrentSnapshotInvariants(t *testing.T) {
	u := New[int, group.DeltaLabel](group.Delta{})
	for i := 1; i < 64; i++ {
		u.AddRelation(i/2, i, int64(i))
	}
	s := u.Snapshot()
	if err := invariant.CheckUF(s); err != nil {
		t.Fatalf("snapshot fails invariant check: %v", err)
	}
	for i := 0; i < 64; i++ {
		want, wok := u.GetRelation(0, i)
		got, gok := s.GetRelation(0, i)
		if wok != gok || want != got {
			t.Fatalf("snapshot disagrees at node %d: %d,%v vs %d,%v", i, got, gok, want, wok)
		}
	}
}

// TestConcurrentJournalCertificates: assertions recorded in the
// recorder's critical section (link CAS + journal append) must yield
// certificates the independent checker accepts, including after path
// halving has rewritten parent edges.
func TestConcurrentJournalCertificates(t *testing.T) {
	j := cert.NewJournal[int, group.DeltaLabel](group.Delta{})
	u := New[int, group.DeltaLabel](group.Delta{}, WithJournal[int, group.DeltaLabel](j))
	for i := 1; i < 40; i++ {
		u.AddRelationReason(i-1, i, 1, "chain")
	}
	for i := 0; i < 40; i++ {
		u.Find(i) // force halving to rewrite edges
	}
	ans, ok := u.GetRelation(3, 37)
	if !ok || ans != 34 {
		t.Fatalf("GetRelation(3,37) = %d, %v; want 34", ans, ok)
	}
	c, err := j.Explain(3, 37)
	if err != nil {
		t.Fatalf("Explain: %v", err)
	}
	c.Label = ans
	if err := cert.Check(c, group.Delta{}); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
}

// TestConcurrentParallelReaders: many goroutines querying a fixed
// structure must all see exact answers (run under -race in CI).
func TestConcurrentParallelReaders(t *testing.T) {
	const n = 200
	u := New[int, group.DeltaLabel](group.Delta{})
	for i := 1; i < n; i++ {
		u.AddRelation(i-1, i, 1)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				j := (i + g*17) % n
				l, ok := u.GetRelation(i, j)
				if !ok || l != int64(j-i) {
					t.Errorf("GetRelation(%d,%d) = %d, %v; want %d", i, j, l, ok, j-i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if u.Stats().Conflicts != 0 {
		t.Fatal("readers produced conflicts")
	}
}

// TestConcurrentGuardErrClassification: batch budget errors must wrap
// the fault taxonomy sentinel.
func TestConcurrentGuardErrClassification(t *testing.T) {
	u := New[int, group.DeltaLabel](group.Delta{})
	qs := make([]Query[int], 10)
	res := u.QueryBatch(qs, BatchOptions{Workers: 2, Limits: fault.Limits{MaxSteps: 4}})
	stopped := 0
	for _, r := range res {
		if r.Err != nil {
			stopped++
			if !errors.Is(r.Err, fault.ErrBudgetExhausted) {
				t.Fatalf("budget stop not classified: %v", r.Err)
			}
		}
	}
	if stopped != 6 {
		t.Fatalf("stopped %d of 10 queries with budget 4; want 6", stopped)
	}
}
