package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"luf/internal/client"
	"luf/internal/shard"
)

// RebalanceConfig parameterizes the online-rebalancing benchmark: real
// durable replica groups behind a shard map, measured three ways — how
// fast a certified class migration moves journal entries (plan, freeze,
// copy-with-re-prove, verify, flip, fence), what the freeze window
// costs concurrent writers into the migrating class (stall
// distribution; every stalled write must eventually land), and how much
// latency a consolidated class wins by turning cross-shard 2PC unions
// into same-shard fast-path asserts.
type RebalanceConfig struct {
	// ClassSize is the member count of each migrated class.
	ClassSize int
	// Migrations is how many sequential class moves the throughput
	// phase measures.
	Migrations int
	// Unions is the number of latency samples per side of the
	// cross-shard vs consolidated-local comparison.
	Unions int
	// StallWrites is the minimum number of logical writes the stall
	// phase times around one migration (some land before the freeze,
	// one spans it, the rest land on the new owner).
	StallWrites int
	// MigrateChunk is the copy stream's journal-slice window size.
	MigrateChunk int
	// PrepareTTL and RedriveInterval configure the coordinator.
	PrepareTTL      time.Duration
	RedriveInterval time.Duration
	Seed            int64
}

// DefaultRebalance returns the configuration used to produce
// BENCH_rebalance.json.
func DefaultRebalance() RebalanceConfig {
	return RebalanceConfig{
		ClassSize: 48, Migrations: 4, Unions: 30, StallWrites: 32, MigrateChunk: 64,
		PrepareTTL: time.Second, RedriveInterval: 10 * time.Millisecond,
		Seed: 2025,
	}
}

// RebalanceResult aggregates the rebalancing benchmark for
// BENCH_rebalance.json.
type RebalanceResult struct {
	// Migration throughput: certified end-to-end class moves (durable
	// intent through fence install), entries re-proved on the
	// destination per second of migration wall clock.
	Migrations    int     `json:"migrations"`
	ClassSize     int     `json:"class_size"`
	EntriesMoved  int64   `json:"entries_moved"`
	MigrateNS     int64   `json:"migrate_total_ns"`
	MigrateMeanNS int64   `json:"migrate_mean_ns"`
	EntriesPerSec float64 `json:"entries_per_sec"`
	// Freeze-window write stall: logical writes into the migrating
	// class during one migration, each timed from first attempt to
	// durable ack (503 stalls retried, post-flip 403 re-routed to the
	// new owner). LostWrites must be zero: stalled is never lost.
	StallSamples   int   `json:"stall_samples"`
	StalledWrites  int64 `json:"stalled_writes"`
	ReroutedWrites int64 `json:"rerouted_writes"`
	LostWrites     int64 `json:"lost_writes"`
	StallP50NS     int64 `json:"write_stall_p50_ns"`
	StallP99NS     int64 `json:"write_stall_p99_ns"`
	StallMaxNS     int64 `json:"write_stall_max_ns"`
	// Cross-shard vs consolidated-local union latency: the same logical
	// workload before and after the class's migration.
	UnionSamples int     `json:"union_samples"`
	CrossMeanNS  int64   `json:"cross_shard_union_mean_ns"`
	CrossP50NS   int64   `json:"cross_shard_union_p50_ns"`
	LocalMeanNS  int64   `json:"local_union_mean_ns"`
	LocalP50NS   int64   `json:"local_union_p50_ns"`
	LatencyWin   float64 `json:"cross_to_local_win"`
	Note         string  `json:"note"`
}

// buildBenchClass chains size alpha-owned members into one class
// directly on the source group and returns them (index 0 is the
// representative).
func buildBenchClass(ctx context.Context, conn shard.Conn, m shard.Map, size int, prefix string) ([]string, error) {
	ids := m.SampleOwned(0, size, prefix)
	for i := 1; i < size; i++ {
		if _, err := conn.Assert(ctx, ids[0], ids[i], int64(i), "bench class"); err != nil {
			return nil, fmt.Errorf("class seed %s: %w", prefix, err)
		}
	}
	return ids, nil
}

// RunRebalance executes the rebalancing benchmark in a temporary
// directory.
func RunRebalance(cfg RebalanceConfig) (*RebalanceResult, error) {
	def := DefaultRebalance()
	if cfg.ClassSize <= 1 {
		cfg.ClassSize = def.ClassSize
	}
	if cfg.Migrations <= 0 {
		cfg.Migrations = def.Migrations
	}
	if cfg.Unions <= 0 {
		cfg.Unions = def.Unions
	}
	if cfg.StallWrites <= 0 {
		cfg.StallWrites = def.StallWrites
	}
	if cfg.MigrateChunk <= 0 {
		cfg.MigrateChunk = def.MigrateChunk
	}
	if cfg.PrepareTTL <= 0 {
		cfg.PrepareTTL = def.PrepareTTL
	}
	if cfg.RedriveInterval <= 0 {
		cfg.RedriveInterval = def.RedriveInterval
	}
	root, err := os.MkdirTemp("", "luf-rebalance-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	res := &RebalanceResult{
		ClassSize: cfg.ClassSize,
		Note: "each shard group is one durable fsync-per-write primary on a real " +
			"loopback listener. A migration is the full certified protocol: durable " +
			"intent, freeze window on the source, journal-slice copy in windows of " +
			"wal frames, each re-proved on the destination as one batch with one " +
			"fsync, checker-verified spot checks, " +
			"fsynced ownership flip, fence install. The stall phase times logical " +
			"writes into the migrating class from first attempt to durable ack — " +
			"503 freeze stalls are retried, post-flip 403 fences re-route to the " +
			"new owner, and zero writes may be lost. The latency phase compares " +
			"cross-shard 2PC unions against the same pairs gone same-shard after " +
			"consolidation.",
	}
	ctx := context.Background()

	// Phase 1 — migration throughput: sequential certified class moves,
	// alpha -> beta, timed end to end.
	fleet, err := startShardFleet(filepath.Join(root, "throughput"), 2, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer fleet.close()
	coord, err := shard.New(shard.Config{
		Dir: filepath.Join(root, "coord-throughput"), Map: fleet.m, Dial: client.DialGroup,
		PrepareTTL: cfg.PrepareTTL, RedriveInterval: cfg.RedriveInterval,
		MigrateChunk: cfg.MigrateChunk,
	})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	srcConn := client.DialGroup(fleet.m.Groups[0])
	for i := 0; i < cfg.Migrations; i++ {
		ids, err := buildBenchClass(ctx, srcConn, fleet.m, cfg.ClassSize, fmt.Sprintf("mt%d", i))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		mr, err := coord.Migrate(ctx, ids[0], "beta", "bench throughput")
		if err != nil {
			return nil, fmt.Errorf("throughput migration %d: %w", i, err)
		}
		res.MigrateNS += time.Since(t0).Nanoseconds()
		res.EntriesMoved += int64(mr.Entries)
		res.Migrations++
	}
	res.MigrateMeanNS = res.MigrateNS / int64(res.Migrations)
	res.EntriesPerSec = float64(res.EntriesMoved) / (float64(res.MigrateNS) / 1e9)

	// Phase 2 — freeze-window write stall: one writer keeps extending
	// the migrating class while the migration runs; each logical write
	// is timed from first attempt to durable ack wherever ownership
	// lives by then.
	ids, err := buildBenchClass(ctx, srcConn, fleet.m, cfg.ClassSize, "stall")
	if err != nil {
		return nil, err
	}
	srcCl := client.New(fleet.ts[0].URL)
	srcCl.MaxRetries = 0
	dstCl := client.New(fleet.ts[1].URL)
	dstCl.MaxRetries = 0
	extra := fleet.m.SampleOwned(0, 4096, "stallx")
	type stallOut struct {
		lat                     []int64
		stalled, rerouted, lost int64
	}
	writerDone := make(chan stallOut, 1)
	migStarted := make(chan struct{})
	go func() {
		var out stallOut
		moved := false
		for j := 0; ; j++ {
			select {
			case <-migStarted:
				// The migration finished; land the remaining sample budget
				// on the new owner and stop.
				if moved && len(out.lat) >= cfg.StallWrites {
					writerDone <- out
					return
				}
			default:
			}
			if j >= len(extra) {
				writerDone <- out
				return
			}
			member, fresh := ids[1+j%(len(ids)-1)], extra[j]
			t0 := time.Now()
			acked := false
			for !acked {
				cl := srcCl
				if moved {
					cl = dstCl
				}
				_, err := cl.Assert(ctx, member, fresh, int64(1+j%(len(ids)-1))+100, "stall write")
				var ae *client.APIError
				switch {
				case err == nil:
					acked = true
				case errors.As(err, &ae) && ae.Status == http.StatusServiceUnavailable:
					out.stalled++
					time.Sleep(time.Millisecond)
				case errors.As(err, &ae) && ae.Status == http.StatusForbidden:
					out.rerouted++
					moved = true
				default:
					out.lost++
					acked = true // give up on this write; counted as lost
				}
			}
			out.lat = append(out.lat, time.Since(t0).Nanoseconds())
		}
	}()
	// Let a few unobstructed writes land first so the distribution has a
	// pre-freeze baseline, then run the migration under the writer.
	time.Sleep(3 * time.Millisecond)
	if _, err := coord.Migrate(ctx, ids[0], "beta", "bench stall"); err != nil {
		return nil, fmt.Errorf("stall migration: %w", err)
	}
	close(migStarted)
	out := <-writerDone
	if len(out.lat) == 0 {
		return nil, fmt.Errorf("stall phase recorded no writes")
	}
	sort.Slice(out.lat, func(i, j int) bool { return out.lat[i] < out.lat[j] })
	res.StallSamples = len(out.lat)
	res.StalledWrites = out.stalled
	res.ReroutedWrites = out.rerouted
	res.LostWrites = out.lost
	res.StallP50NS = out.lat[len(out.lat)/2]
	res.StallP99NS = out.lat[len(out.lat)*99/100]
	res.StallMaxNS = out.lat[len(out.lat)-1]

	// Phase 3 — cross-shard vs consolidated-local union latency: the
	// same logical pairs, before and after the class migrates to the
	// other side's owner.
	lfleet, err := startShardFleet(filepath.Join(root, "latency"), 2, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer lfleet.close()
	lcoord, err := shard.New(shard.Config{
		Dir: filepath.Join(root, "coord-latency"), Map: lfleet.m, Dial: client.DialGroup,
		PrepareTTL: cfg.PrepareTTL, RedriveInterval: cfg.RedriveInterval,
		MigrateChunk: cfg.MigrateChunk,
	})
	if err != nil {
		return nil, err
	}
	defer lcoord.Close()
	la := lfleet.m.SampleOwned(0, cfg.Unions+1, "rla")
	lb := lfleet.m.SampleOwned(1, 2*cfg.Unions, "rlb")
	// Chain the alpha side into one class (untimed) so the consolidation
	// migration moves every measured node in a single flip.
	lsrc := client.DialGroup(lfleet.m.Groups[0])
	for i := 1; i < len(la); i++ {
		if _, err := lsrc.Assert(ctx, la[0], la[i], int64(i), "latency class"); err != nil {
			return nil, fmt.Errorf("latency class seed: %w", err)
		}
	}
	cross := make([]int64, 0, cfg.Unions)
	for i := 0; i < cfg.Unions; i++ {
		t0 := time.Now()
		r, err := lcoord.Union(ctx, la[i], lb[i], int64(i), "cross")
		if err != nil {
			return nil, fmt.Errorf("cross union %d: %w", i, err)
		}
		if r.SameShard {
			return nil, fmt.Errorf("cross union %d took the same-shard path", i)
		}
		cross = append(cross, time.Since(t0).Nanoseconds())
	}
	if _, err := lcoord.Migrate(ctx, la[0], "beta", "bench consolidation"); err != nil {
		return nil, fmt.Errorf("consolidation migration: %w", err)
	}
	local := make([]int64, 0, cfg.Unions)
	for i := 0; i < cfg.Unions; i++ {
		t0 := time.Now()
		r, err := lcoord.Union(ctx, la[i], lb[cfg.Unions+i], int64(1000+i), "local")
		if err != nil {
			return nil, fmt.Errorf("local union %d: %w", i, err)
		}
		if !r.SameShard {
			return nil, fmt.Errorf("post-consolidation union %d still cross-shard", i)
		}
		local = append(local, time.Since(t0).Nanoseconds())
	}
	sort.Slice(cross, func(i, j int) bool { return cross[i] < cross[j] })
	sort.Slice(local, func(i, j int) bool { return local[i] < local[j] })
	var crossTotal, localTotal int64
	for i := range cross {
		crossTotal += cross[i]
		localTotal += local[i]
	}
	res.UnionSamples = cfg.Unions
	res.CrossMeanNS = crossTotal / int64(cfg.Unions)
	res.CrossP50NS = cross[cfg.Unions/2]
	res.LocalMeanNS = localTotal / int64(cfg.Unions)
	res.LocalP50NS = local[cfg.Unions/2]
	res.LatencyWin = float64(res.CrossMeanNS) / float64(res.LocalMeanNS)
	return res, nil
}

// WriteJSON writes the result to path, pretty-printed.
func (r *RebalanceResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Format renders the rebalancing benchmark for humans.
func (r *RebalanceResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Online shard rebalancing (migration throughput, freeze-window stall, consolidation win)\n\n")
	fmt.Fprintf(&sb, "certified class migration, %d move(s) of %d-member classes:\n", r.Migrations, r.ClassSize)
	fmt.Fprintf(&sb, "  %d journal entries re-proved on the destination in %v  (%.0f entries/s, mean %v per move)\n",
		r.EntriesMoved, time.Duration(r.MigrateNS), r.EntriesPerSec, time.Duration(r.MigrateMeanNS))
	fmt.Fprintf(&sb, "\nfreeze-window write stall (%d logical writes into the migrating class):\n", r.StallSamples)
	fmt.Fprintf(&sb, "  p50 %v  p99 %v  max %v;  %d attempt(s) 503-stalled, %d fence re-route(s), %d lost\n",
		time.Duration(r.StallP50NS), time.Duration(r.StallP99NS), time.Duration(r.StallMaxNS),
		r.StalledWrites, r.ReroutedWrites, r.LostWrites)
	fmt.Fprintf(&sb, "\ncross-shard -> local latency win (%d unions per side):\n", r.UnionSamples)
	fmt.Fprintf(&sb, "  before: cross-shard 2PC mean %v p50 %v;  after consolidation: same-shard mean %v p50 %v  (%.2fx win)\n",
		time.Duration(r.CrossMeanNS), time.Duration(r.CrossP50NS),
		time.Duration(r.LocalMeanNS), time.Duration(r.LocalP50NS), r.LatencyWin)
	return sb.String()
}
