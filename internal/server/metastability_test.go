package server_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"luf/internal/client"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/replica"
	"luf/internal/server"
	"luf/internal/wal"
)

// TestMetastabilityOverloadRecovers is the acceptance test of the
// overload-resilience stack: a three-node cluster driven at roughly
// twice its admission capacity by budget-bounded, session-carrying,
// hedging cluster clients, while one follower is partitioned from
// replication mid-run and later rejoins. The cluster must keep doing
// useful work throughout (goodput > 0), client retry volume must stay
// under the token-bucket cap (no retry storm — the metastable failure
// mode), no acknowledged write may be lost, and after the partition
// heals the fleet must return to a certified steady state with zero
// operator actions.
func TestMetastabilityOverloadRecovers(t *testing.T) {
	const seed = 20260807
	net := fault.NewNetwork()

	mk := func(name string) *chaosNode {
		cn := &chaosNode{name: name, dir: t.TempDir()}
		cn.ts = httptest.NewServer(cn)
		t.Cleanup(cn.ts.Close)
		return cn
	}
	p, f1, f2 := mk("p"), mk("f1"), mk("f2")
	nodes := []*chaosNode{p, f1, f2}
	url := func(cn *chaosNode) string { return "http://" + cn.ts.Listener.Addr().String() }

	base := server.Config{
		Net:             net,
		ShipInterval:    3 * time.Millisecond,
		ResyncBackoff:   time.Millisecond,
		SnapshotEvery:   10,
		MaxInflight:     4, // small on purpose: the readers below offer ~2x this
		FollowerWaitMax: 25 * time.Millisecond,
	}
	for i, cn := range nodes {
		cfg := base
		cfg.Dir = cn.dir
		cfg.NodeName = cn.name
		cfg.Advertise = url(cn)
		cfg.Seed = seed + int64(i)
		if cn == p {
			cfg.Role = server.RolePrimary
			cfg.Peers = []replica.Peer{{Name: "f1", URL: url(f1)}, {Name: "f2", URL: url(f2)}}
			cfg.LeaseTTL = time.Hour // this chaos targets overload, not elections
		} else {
			cfg.Role = server.RoleFollower
			cfg.SelfHeal = true
			cfg.ResyncMaxAttempts = 1000
			cfg.Peers = []replica.Peer{{Name: "p", URL: url(p)}}
		}
		cn.cfg = cfg
		cn.restart(t)
	}
	t.Cleanup(func() {
		for _, cn := range nodes {
			if s := cn.server(); s != nil {
				_ = s.Drain(context.Background())
			}
		}
	})

	// Sustained 2x overload: 8 reader goroutines against a fleet whose
	// every node admits 4. Each reader is its own cluster client (an
	// independent caller with its own routing view) with hedging on and
	// the default retry budget; reads carry the session token, so the
	// partitioned follower must wait or redirect rather than serve stale
	// answers.
	const nReaders = 8
	stop := make(chan struct{})
	var good, bad atomic.Int64
	readers := make([]*client.Cluster, nReaders)
	var wg sync.WaitGroup
	for g := 0; g < nReaders; g++ {
		cl := client.NewCluster(url(p), url(f1), url(f2))
		cl.Hedge = 15 * time.Millisecond
		readers[g] = cl
		wg.Add(1)
		go func(cl *client.Cluster) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
				var err error
				if i%7 == 6 {
					_, err = cl.Explain(ctx, "wa0", "wb0") // certificate-heavy: browns out first
				} else {
					_, _, err = cl.Relation(ctx, "wa0", "wb0")
				}
				cancel()
				if err != nil {
					bad.Add(1)
				} else {
					good.Add(1)
				}
			}
		}(cl)
	}

	// The writer goes through a cluster client of its own, with a roomier
	// budget (writes contend with the read flood for the global admission
	// tokens). A failed write is simply not acknowledged — the audit
	// below only demands what the cluster acked.
	wcl := client.NewCluster(url(f1), url(p)) // wrong primary guess first: exercises 421 chasing
	wcl.SetRetryBudget(client.NewRetryBudget(64, 0.5))
	var ackedMu sync.Mutex
	var acked []server.AssertRequest

	// The seeded schedule: a write every 8 virtual ms for 160ms, with f2
	// partitioned from replication in the middle third. The readers churn
	// concurrently the whole time.
	sched := fault.NewSchedule()
	sched.Every(8*time.Millisecond, 0, 160*time.Millisecond, "write", func(i int) {
		req := server.AssertRequest{
			N: fmt.Sprintf("wa%d", i), M: fmt.Sprintf("wb%d", i),
			Label: int64(i % 9), Reason: fmt.Sprintf("overload-write-%d", i),
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if _, err := wcl.Assert(ctx, req.N, req.M, req.Label, req.Reason); err == nil {
			ackedMu.Lock()
			acked = append(acked, req)
			ackedMu.Unlock()
		}
	})
	sched.At(40*time.Millisecond, "partition-f2", func() { net.PartitionBoth("p", "f2") })
	sched.At(100*time.Millisecond, "heal-partition", func() { net.HealBoth("p", "f2") })
	sched.Run(time.Sleep, func(at time.Duration, name string) { t.Logf("t=%v %s", at, name) })

	// Let the readers churn a beat past the schedule, then stop them.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Goodput under overload: the fleet kept answering and the writer
	// kept landing acknowledged writes all the way through.
	if good.Load() == 0 {
		t.Fatalf("zero successful reads under overload (%d failures) — the fleet collapsed", bad.Load())
	}
	ackedMu.Lock()
	nAcked := len(acked)
	ackedMu.Unlock()
	if nAcked == 0 {
		t.Fatal("no write was ever acknowledged under overload")
	}
	t.Logf("under 2x overload: %d reads served, %d read attempts failed, %d/%d writes acked",
		good.Load(), bad.Load(), nAcked, 20)

	// Retry volume stays under the budget cap on every client — bounded
	// retries are exactly what keeps an overload from going metastable.
	for i, cl := range readers {
		st := cl.Budget().Stats()
		if float64(st.Retries) > 16+0.1*float64(st.Requests)+1e-9 {
			t.Fatalf("reader %d: %d retries for %d requests exceeds the budget cap (burst 16, ratio 0.1)",
				i, st.Retries, st.Requests)
		}
	}
	if st := wcl.Budget().Stats(); float64(st.Retries) > 64+0.5*float64(st.Requests)+1e-9 {
		t.Fatalf("writer: %d retries for %d requests exceeds its budget cap (burst 64, ratio 0.5)", st.Retries, st.Requests)
	}

	// The run must actually have exercised the overload machinery
	// somewhere: server-side sheds/redirects/refusals or client-side
	// budget-charged retries and hedges.
	var pressure int64
	for _, cn := range nodes {
		st, err := client.New(url(cn)).Stats(context.Background())
		if err != nil {
			t.Fatalf("stats from %s: %v", cn.name, err)
		}
		pressure += st.Shed + st.SessionRedirects + st.SessionWaits + st.DeadlineRefused
	}
	for _, cl := range readers {
		pressure += cl.Budget().Stats().Retries + cl.Hedges()
	}
	if pressure == 0 {
		t.Fatal("the run recorded no sheds, waits, redirects, retries or hedges — overload never happened")
	}

	// Return to steady state with zero operator actions: every follower
	// converges on the primary's certified tail, healthy.
	deadline := time.Now().Add(20 * time.Second)
	converged := func() bool {
		ptail := p.server().Store().LastSeq()
		for _, cn := range []*chaosNode{f1, f2} {
			s := cn.server()
			hs := s.HealStatus()
			if hs == nil || hs.State != replica.HealHealthy {
				return false
			}
			if s.Store().LastSeq() != ptail {
				return false
			}
		}
		return true
	}
	for !converged() {
		if time.Now().After(deadline) {
			for _, cn := range nodes {
				s := cn.server()
				t.Logf("%s: tail=%d heal=%+v", cn.name, s.Store().LastSeq(), s.HealStatus())
			}
			t.Fatal("cluster failed to return to steady state after the overload + partition")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// No acknowledged write lost: every acked assert answers identically
	// on every replica, including the follower that sat out the
	// partition.
	ackedMu.Lock()
	defer ackedMu.Unlock()
	for _, cn := range nodes {
		s := cn.server()
		for _, req := range acked {
			l, ok := s.UF().GetRelation(req.N, req.M)
			if !ok || l != req.Label {
				t.Fatalf("%s lost acked write %s->%s (got %d,%v want %d)", cn.name, req.N, req.M, l, ok, req.Label)
			}
		}
		// Certified: the full history still rebuilds through the
		// independent checker on each node.
		if _, _, err := wal.Rebuild(group.Delta{}, s.Store().Entries()); err != nil {
			t.Fatalf("certified rebuild on %s after recovery: %v", cn.name, err)
		}
	}

	// And the steady-state fleet serves verified answers again: a fresh
	// session-carrying client reads and explains without a hiccup.
	cl := client.NewCluster(url(p), url(f1), url(f2))
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if _, _, err := cl.Relation(ctx, "wa0", "wb0"); err != nil {
			t.Fatalf("steady-state read %d: %v", i, err)
		}
	}
	if _, err := cl.Explain(ctx, "wa0", "wb0"); err != nil {
		t.Fatalf("steady-state explain: %v", err)
	}
}
