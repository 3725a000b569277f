package client_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"luf/internal/cert"
	"luf/internal/client"
	"luf/internal/group"
	"luf/internal/replica"
	"luf/internal/server"
)

// clusterTrio builds a replicated primary with two followers on real
// listeners and returns the node URLs (primary first) plus the
// followers' test servers, so a test can take one of them down.
func clusterTrio(t *testing.T) (urls []string, followers []*httptest.Server) {
	t.Helper()
	names := []string{"p", "f1", "f2"}
	tss := make([]*httptest.Server, len(names))
	for i := range names {
		tss[i] = httptest.NewUnstartedServer(http.NotFoundHandler())
		urls = append(urls, "http://"+tss[i].Listener.Addr().String())
	}
	for i, name := range names {
		cfg := server.Config{
			Dir: t.TempDir(), NodeName: name, Advertise: urls[i],
			ShipInterval: 5 * time.Millisecond, LeaseTTL: 30 * time.Second,
		}
		if i == 0 {
			cfg.Role = server.RolePrimary
			cfg.Peers = []replica.Peer{{Name: names[1], URL: urls[1]}, {Name: names[2], URL: urls[2]}}
		} else {
			cfg.Role = server.RoleFollower
			cfg.Peers = []replica.Peer{{Name: names[0], URL: urls[0]}}
		}
		s, _, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tss[i].Config.Handler = s.Handler()
		tss[i].Start()
		t.Cleanup(func() {
			_ = s.Drain(context.Background())
			tss[i].Close()
		})
	}
	return urls, tss[1:]
}

// TestConcurrentClusterSharedAcrossGoroutines shares one Cluster among
// 16 goroutines over a three-node replicated cluster whose first
// primary guess is a follower. They interleave asserts, which chase
// 421 redirects, with hedged reads, and a follower is taken down
// mid-run. Every acknowledged write must read back with its exact
// label and a certificate the independent checker accepts.
func TestConcurrentClusterSharedAcrossGoroutines(t *testing.T) {
	urls, followers := clusterTrio(t)
	cl := client.NewCluster(urls[1], urls[0], urls[2]) // wrong primary guess first
	cl.Hedge = time.Microsecond                        // hedge nearly every read
	// Hedging every read spends a retry token per hedge; a roomy budget
	// keeps this test about sharing, not about retry storms.
	cl.SetRetryBudget(client.NewRetryBudget(1000, 1))

	type fact struct {
		n, m  string
		label int64
	}
	const goroutines, perG = 16, 12
	acked := make([][]fact, goroutines) // slice g is goroutine-owned until wg.Wait
	var ackedN atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perG; i++ {
				ft := fact{fmt.Sprintf("g%dk%d", g, i), fmt.Sprintf("g%dk%d", g, i+1), int64(g + i + 1)}
				if _, err := cl.Assert(ctx, ft.n, ft.m, ft.label, fmt.Sprintf("shared-%d-%d", g, i)); err != nil {
					t.Errorf("goroutine %d assert %d: %v", g, i, err)
					return
				}
				acked[g] = append(acked[g], ft)
				ackedN.Add(1)
				// Read back a fact this goroutine wrote earlier, through the
				// hedged fleet: the shared session keeps it covered.
				old := acked[g][i/2]
				if i%2 == 0 {
					if l, ok, err := cl.Relation(ctx, old.n, old.m); err != nil || !ok || l != old.label {
						t.Errorf("goroutine %d relation %s~%s = (%d,%v,%v), want (%d,true,nil)", g, old.n, old.m, l, ok, err, old.label)
						return
					}
				} else if _, err := cl.Explain(ctx, old.n, old.m); err != nil {
					t.Errorf("goroutine %d explain %s~%s: %v", g, old.n, old.m, err)
					return
				}
			}
		}(g)
	}

	// Take a follower down once a third of the writes are acknowledged.
	deadline := time.Now().Add(10 * time.Second)
	for ackedN.Load() < goroutines*perG/3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	followers[1].CloseClientConnections()
	followers[1].Close()
	wg.Wait()
	if t.Failed() {
		return
	}

	ctx := context.Background()
	for g := range acked {
		for _, ft := range acked[g] {
			cc, err := cl.Explain(ctx, ft.n, ft.m)
			if err != nil {
				t.Fatalf("acked fact %s->%s: %v", ft.n, ft.m, err)
			}
			if err := cert.Check(cc, group.Delta{}); err != nil || cc.Label != ft.label {
				t.Fatalf("acked fact %s->%s: certificate label %d (check: %v), want %d", ft.n, ft.m, cc.Label, err, ft.label)
			}
		}
	}
	if cl.Hedges() == 0 {
		t.Fatal("no read was hedged; the hedged path went unexercised")
	}
}
