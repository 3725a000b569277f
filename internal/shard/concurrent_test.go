package shard_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"luf/internal/cert"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/shard"
)

// untilSettled runs op until the coordinator stops refusing it as
// unavailable, or 10 s pass. A query over a group that is mid-apply of
// another union's bridge is refused with "retry shortly": the group
// pair is between two consistent states for that window. A union whose
// prepare vote timed out on a loaded machine is refused the same way.
func untilSettled(op func() error) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := op()
		if !errors.Is(err, fault.ErrUnavailable) || time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentCrossShardUnionsShareOneConn drives one coordinator
// over two groups dialed with client.DialGroup from 8 goroutines at
// once. Each grows its own chain whose every edge crosses the shards,
// so every union is a 2PC round and every query is bridge-routed, all
// through the same per-group connection. Every answer must agree with
// a BFS oracle over the acknowledged edges, and every stitched
// certificate must pass the independent checker.
func TestConcurrentCrossShardUnionsShareOneConn(t *testing.T) {
	m, _ := startGroups(t, 2)
	c := newCoord(t, m, t.TempDir(), nil)
	ctx := context.Background()

	const goroutines, hops = 8, 4
	var mu sync.Mutex
	var all []ackedEdge
	chains := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		as := m.SampleOwned(0, hops/2+1, fmt.Sprintf("cc%da", g))
		bs := m.SampleOwned(1, hops/2+1, fmt.Sprintf("cc%db", g))
		for k := 0; k <= hops; k++ {
			if k%2 == 0 {
				chains[g] = append(chains[g], as[k/2])
			} else {
				chains[g] = append(chains[g], bs[k/2])
			}
		}
		wg.Add(1)
		go func(g int, chain []string) {
			defer wg.Done()
			var mine []ackedEdge
			for k := 1; k <= hops; k++ {
				e := ackedEdge{n: chain[k-1], m: chain[k], label: int64(g*hops + k)}
				var res shard.UnionResult
				err := untilSettled(func() (err error) {
					res, err = c.Union(ctx, e.n, e.m, e.label, fmt.Sprintf("chain-%d-%d", g, k))
					return err
				})
				if err != nil || !res.OK || res.SameShard {
					t.Errorf("goroutine %d cross-shard union %d = (%+v, %v)", g, k, res, err)
					return
				}
				mine = append(mine, e)
				mu.Lock()
				all = append(all, e)
				mu.Unlock()

				want, _ := oracleRelation(mine, chain[0], e.m)
				var l int64
				var ok bool
				err = untilSettled(func() (err error) {
					l, ok, err = c.Relation(ctx, chain[0], e.m)
					return err
				})
				if err != nil || !ok || l != want {
					t.Errorf("goroutine %d relation %s~%s = (%d,%v,%v), want (%d,true,nil)", g, chain[0], e.m, l, ok, err, want)
					return
				}
				var cc cert.Certificate[string, int64]
				err = untilSettled(func() (err error) {
					cc, err = c.Explain(ctx, chain[0], e.m)
					return err
				})
				if err != nil {
					t.Errorf("goroutine %d explain %s~%s: %v", g, chain[0], e.m, err)
					return
				}
				if err := cert.Check(cc, group.Delta{}); err != nil || cc.Label != want {
					t.Errorf("goroutine %d stitched certificate label %d (check: %v), want %d", g, cc.Label, err, want)
					return
				}
			}
		}(g, chains[g])
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Across chains: the same-chain ends are related, different chains
	// are not, exactly as the oracle over every acked edge says. With
	// every union applied, no query needs a retry.
	for g := range chains {
		for h := range chains {
			x, y := chains[g][0], chains[h][hops]
			want, related := oracleRelation(all, x, y)
			l, ok, err := c.Relation(ctx, x, y)
			if err != nil || ok != related || (related && l != want) {
				t.Fatalf("relation %s~%s = (%d,%v,%v), oracle (%d,%v)", x, y, l, ok, err, want, related)
			}
		}
	}
}
