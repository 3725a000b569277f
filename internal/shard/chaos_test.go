package shard_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"luf/internal/cert"
	"luf/internal/client"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/server"
	"luf/internal/shard"
)

// netConn wraps a real group connection behind a simulated network: the
// coordinator's messages to a partitioned group are dropped with a
// transport-style error before they reach the wire.
type netConn struct {
	shard.Conn
	net  *fault.Network
	name string
}

func (nc *netConn) observe() error {
	if nc.net.Observe("coord", nc.name).Drop {
		return fmt.Errorf("simulated partition: connection to group %s refused", nc.name)
	}
	return nil
}

func (nc *netConn) Assert(ctx context.Context, n, m string, label int64, reason string) (server.AssertResponse, error) {
	if err := nc.observe(); err != nil {
		return server.AssertResponse{}, err
	}
	return nc.Conn.Assert(ctx, n, m, label, reason)
}

func (nc *netConn) BatchAssert(ctx context.Context, asserts []server.AssertRequest) (server.BatchAssertResponse, error) {
	if err := nc.observe(); err != nil {
		return server.BatchAssertResponse{}, err
	}
	return nc.Conn.BatchAssert(ctx, asserts)
}

func (nc *netConn) Relation(ctx context.Context, n, m string) (int64, bool, error) {
	if err := nc.observe(); err != nil {
		return 0, false, err
	}
	return nc.Conn.Relation(ctx, n, m)
}

func (nc *netConn) Explain(ctx context.Context, n, m string) (cert.Certificate[string, int64], error) {
	if err := nc.observe(); err != nil {
		return cert.Certificate[string, int64]{}, err
	}
	return nc.Conn.Explain(ctx, n, m)
}

func (nc *netConn) Prepare(ctx context.Context, req server.PrepareRequest) (server.PrepareResponse, error) {
	if err := nc.observe(); err != nil {
		return server.PrepareResponse{}, err
	}
	return nc.Conn.Prepare(ctx, req)
}

func (nc *netConn) Abort(ctx context.Context, req server.AbortRequest) (server.AbortResponse, error) {
	if err := nc.observe(); err != nil {
		return server.AbortResponse{}, err
	}
	return nc.Conn.Abort(ctx, req)
}

func (nc *netConn) Stats(ctx context.Context) (server.StatsResponse, error) {
	if err := nc.observe(); err != nil {
		return server.StatsResponse{}, err
	}
	return nc.Conn.Stats(ctx)
}

// ackedEdge is one union the coordinator acknowledged as applied.
type ackedEdge struct {
	n, m  string
	label int64
}

// oracleRelation answers (x ~ y, label) by BFS over exactly the acked
// edges — the independent ground truth the sharded service must agree
// with: nothing acked may be lost, nothing unacked may appear.
func oracleRelation(edges []ackedEdge, x, y string) (int64, bool) {
	type hop struct {
		to string
		l  int64
	}
	adj := map[string][]hop{}
	for _, e := range edges {
		adj[e.n] = append(adj[e.n], hop{to: e.m, l: e.label})
		adj[e.m] = append(adj[e.m], hop{to: e.n, l: -e.label})
	}
	if _, ok := adj[x]; !ok {
		return 0, false
	}
	dist := map[string]int64{x: 0}
	queue := []string{x}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, h := range adj[cur] {
			if _, seen := dist[h.to]; seen {
				continue
			}
			dist[h.to] = dist[cur] + h.l
			queue = append(queue, h.to)
		}
	}
	l, ok := dist[y]
	return l, ok
}

// TestChaosCoordinatorCrashAndPartition is the end-to-end 2PC chaos
// scenario: a workload of same- and cross-shard unions, the coordinator
// killed mid cross-shard union with the intent persisted but the commit
// unsent, one shard group partitioned away mid-run, then restart and
// heal. Afterwards: zero acked answers lost, no half-applied union
// (every query agrees with a BFS oracle over exactly the acked edges),
// every served certificate passes the unmodified independent checker,
// and the surviving shards kept serving during the partition.
func TestChaosCoordinatorCrashAndPartition(t *testing.T) {
	m, fleets := startGroups(t, 3)
	net := fault.NewNetwork()
	dir := t.TempDir()
	ctx := context.Background()

	dial := func(g shard.Group) shard.Conn {
		return &netConn{Conn: client.DialGroup(g), net: net, name: g.Name}
	}
	var armKill atomic.Bool
	var c *shard.Coordinator
	mkCoord := func(hooked bool) *shard.Coordinator {
		var hook func(string, uint64)
		if hooked {
			hook = func(stage string, intent uint64) {
				if stage == "prepared" && armKill.CompareAndSwap(true, false) {
					c.Kill()
				}
			}
		}
		cc, err := shard.New(shard.Config{
			Dir: dir, Map: m, Dial: dial,
			PrepareTTL:      400 * time.Millisecond,
			RedriveInterval: 20 * time.Millisecond,
			StepHook:        hook,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cc
	}
	c = mkCoord(true)

	// Node universe: four nodes per group with a potential function, so
	// every asserted label is globally consistent (val(m) - val(n)).
	nodes := map[string][]string{}
	val := map[string]int64{}
	next := int64(1)
	for gi, name := range m.Names() {
		ids := m.SampleOwned(gi, 4, "chaos")
		nodes[name] = ids
		for _, id := range ids {
			val[id] = next * 13
			next++
		}
	}
	var acked []ackedEdge
	union := func(n, mm string) error {
		label := val[mm] - val[n]
		_, err := c.Union(ctx, n, mm, label, "chaos workload")
		if err == nil {
			acked = append(acked, ackedEdge{n: n, m: mm, label: label})
		}
		return err
	}
	al, be, ga := nodes["alpha"], nodes["beta"], nodes["gamma"]

	// Phase 1: healthy traffic across all shards.
	for _, pair := range [][2]string{
		{al[0], al[1]}, {be[0], be[1]}, {ga[0], ga[1]}, // same-shard
		{al[0], be[0]}, {be[1], ga[0]}, // cross-shard bridges
	} {
		if err := union(pair[0], pair[1]); err != nil {
			t.Fatalf("phase-1 union %v: %v", pair, err)
		}
	}

	// Crash: kill the coordinator mid cross-shard union, after both
	// prepare votes but before the commit record — intent persisted,
	// commit unsent. The union must not ack.
	armKill.Store(true)
	if err := union(al[2], ga[2]); err == nil {
		t.Fatal("union through the dying coordinator must not ack")
	}
	_ = c.Close()

	// Restart on the same durable directory; then partition gamma away
	// from the coordinator mid-run.
	c = mkCoord(false)
	defer func() { _ = c.Close() }()
	net.PartitionGroups([]string{"coord"}, []string{"gamma"})

	// Surviving shards keep serving: goodput > 0 through the partition.
	goodput := 0
	for _, pair := range [][2]string{{al[1], be[2]}, {al[2], be[3]}} {
		if err := union(pair[0], pair[1]); err != nil {
			t.Fatalf("surviving-shard union %v during partition: %v", pair, err)
		}
		goodput++
	}
	// Unions touching the partitioned group refuse — structured,
	// retryable, bounded — and never hang.
	start := time.Now()
	err := union(be[2], ga[3])
	if err == nil {
		t.Fatal("union into partitioned group must refuse")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("partitioned-group refusal took %v", d)
	}

	// Heal; the refused union retried now lands, as does fresh gamma
	// traffic.
	net.HealGroups([]string{"coord"}, []string{"gamma"})
	for _, pair := range [][2]string{{be[2], ga[3]}, {al[3], ga[1]}} {
		if err := union(pair[0], pair[1]); err != nil {
			t.Fatalf("post-heal union %v: %v", pair, err)
		}
	}
	if goodput == 0 {
		t.Fatal("no goodput on surviving shards")
	}
	waitFor(t, "no in-doubt intents", func() bool { return len(c.InDoubt()) == 0 })

	// Verification sweep: every pair of workload nodes, against the BFS
	// oracle over exactly the acked edges. Agreement both ways rules out
	// lost acked unions AND half-applied (or presumed-aborted-but-
	// visible) ones — above all the crashed al[2]–ga[2] union.
	var all []string
	for _, ids := range nodes {
		all = append(all, ids...)
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			x, y := all[i], all[j]
			wantL, wantOK := oracleRelation(acked, x, y)
			gotL, gotOK, err := c.Relation(ctx, x, y)
			if err != nil {
				t.Fatalf("relation(%s, %s): %v", x, y, err)
			}
			if gotOK != wantOK || (gotOK && gotL != wantL) {
				t.Fatalf("relation(%s, %s) = (%d, %v), oracle says (%d, %v)", x, y, gotL, gotOK, wantL, wantOK)
			}
			if !gotOK {
				continue
			}
			// Every served answer's certificate — cross-shard chains
			// concatenated — must pass the unmodified checker.
			cc, err := c.Explain(ctx, x, y)
			if err != nil {
				t.Fatalf("explain(%s, %s): %v", x, y, err)
			}
			if err := cert.Check(cc, group.Delta{}); err != nil {
				t.Fatalf("certificate for (%s, %s) rejected by checker: %v", x, y, err)
			}
			if cc.X != x || cc.Y != y || cc.Label != wantL {
				t.Fatalf("certificate for (%s, %s) claims (%s, %s, %d), want label %d", x, y, cc.X, cc.Y, cc.Label, wantL)
			}
		}
	}

	// Intent ledger: the two phase-1 cross-shard unions (intents 1, 2)
	// retired done; the crashed union (intent 3, the third cross-shard
	// round) folded to presumed abort; nothing is left half-decided.
	for id := uint64(1); id <= 8; id++ {
		st := c.IntentStatus(id)
		if st.State == "pending" || st.State == "committed" {
			t.Fatalf("intent %d left unresolved: %s", id, st.State)
		}
	}
	if st := c.IntentStatus(1); st.State != "done" {
		t.Fatalf("intent 1 state %q, want done", st.State)
	}
	if st := c.IntentStatus(3); st.State != "aborted" {
		t.Fatalf("crashed intent 3 state %q, want aborted", st.State)
	}
	for gi, f := range fleets {
		cl := client.New(f.url)
		if _, err := cl.Assert(ctx, "post", "chaos", 1, "final write"); err != nil {
			t.Fatalf("group %d write after chaos: %v", gi, err)
		}
	}
}
