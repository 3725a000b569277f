package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"luf/internal/client"
	"luf/internal/server"
)

// TestRacingPrepareAndFreezeNeverCoexist races 2PC prepares against
// migration freezes over one class, round after round, from separate
// goroutines. Installing a class window checks for the other kind and
// inserts in one critical section, so in every round the winners are
// all of one kind, every loser gets a retryable 503 and holds nothing,
// and /v1/stats counts exactly the winners' windows — back to zero
// once the winners are released. Run it under -race.
func TestRacingPrepareAndFreezeNeverCoexist(t *testing.T) {
	_, ts, c := newTestServer(t, server.Config{Dir: t.TempDir()})
	c.MaxRetries = 0
	ctx := context.Background()
	if _, err := c.Assert(ctx, "a", "b", 1, "seed"); err != nil {
		t.Fatal(err)
	}

	const rounds, perKind = 60, 2
	racers := make([]*client.Client, 2*perKind)
	for i := range racers {
		racers[i] = client.New(ts.URL)
		racers[i].MaxRetries = 0
	}
	for r := 0; r < rounds; r++ {
		// ids are unique per round and racer; both kinds draw from their
		// own id spaces, as their coordinators' logs do.
		id := func(i int) uint64 { return uint64(r*perKind + i + 1) }
		errs := make([]error, len(racers))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, rc := range racers {
			wg.Add(1)
			go func(i int, rc *client.Client) {
				defer wg.Done()
				<-start
				if i < perKind {
					_, errs[i] = rc.Prepare(ctx, server.PrepareRequest{
						Intent: id(i), Epoch: 1, N: "b", M: fmt.Sprintf("remote-%d-%d", r, i), Label: 5, TTLMillis: 60_000,
					})
					return
				}
				_, errs[i] = rc.MigrateFreeze(ctx, server.MigrateFreezeRequest{
					Migration: id(i - perKind), Epoch: 1, Class: "a", TTLMillis: 60_000,
				})
			}(i, rc)
		}
		close(start)
		wg.Wait()

		prepared, frozen := 0, 0
		for i, err := range errs {
			if err == nil {
				if i < perKind {
					prepared++
				} else {
					frozen++
				}
				continue
			}
			var ae *client.APIError
			if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
				t.Fatalf("round %d racer %d: losing request = %v, want retryable 503", r, i, err)
			}
		}
		if prepared > 0 && frozen > 0 {
			t.Fatalf("round %d: %d prepare and %d freeze windows both granted over one class", r, prepared, frozen)
		}
		if prepared+frozen == 0 {
			t.Fatalf("round %d: every racer refused; one kind must win", r)
		}
		reserved, held := windowCounts(t, c)
		if reserved != prepared || held != frozen {
			t.Fatalf("round %d: stats hold %d prepare and %d freeze windows, want the winners' %d and %d (losers hold nothing)",
				r, reserved, held, prepared, frozen)
		}

		for i, err := range errs {
			if err != nil {
				continue
			}
			if i < perKind {
				_, err = c.Abort(ctx, server.AbortRequest{Intent: id(i)})
			} else {
				_, err = c.MigrateRelease(ctx, server.MigrateReleaseRequest{Migration: id(i - perKind)})
			}
			if err != nil {
				t.Fatalf("round %d: releasing winner %d: %v", r, i, err)
			}
		}
		if reserved, held := windowCounts(t, c); reserved != 0 || held != 0 {
			t.Fatalf("round %d: %d prepare and %d freeze windows still held after release", r, reserved, held)
		}
	}
}

// windowCounts reads the held prepare and freeze windows from /v1/stats.
func windowCounts(t *testing.T, c *client.Client) (reserved, frozen int) {
	t.Helper()
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.TwoPhase != nil {
		reserved = st.TwoPhase.Reserved
	}
	if st.Migration != nil {
		frozen = st.Migration.Frozen
	}
	return reserved, frozen
}
