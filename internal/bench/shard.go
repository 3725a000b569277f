package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"luf/internal/client"
	"luf/internal/server"
	"luf/internal/shard"
)

// ShardConfig parameterizes the sharding benchmark: real single-primary
// replica groups on loopback listeners partitioned by a static shard
// map, measured three ways — single-shard write throughput as groups
// are added to the map (the point of partitioning: disjoint key ranges
// never contend), the latency of cross-shard two-phase unions against
// the same-shard fast path, and how long a restarted coordinator takes
// to recover a committed-but-unapplied intent back to a serving state.
type ShardConfig struct {
	// MaxShards is the largest shard count in the write-scaling ladder
	// (measured at 1, 2, ..., MaxShards groups).
	MaxShards int
	// Writers is the number of writer goroutines per measured fleet in
	// the scaling phase; each writer owns a disjoint chain of ids inside
	// one shard group.
	Writers int
	// Phase is the measured wall-clock window of each scaling rung.
	Phase time.Duration
	// Unions is the number of sequential cross-shard unions (and
	// same-shard baseline asserts) sampled for the latency distribution.
	Unions int
	// RecoveryUnions is how many cross-shard unions complete before the
	// final one is killed between commit and apply, leaving the intent
	// in doubt for the restarted coordinator to redrive.
	RecoveryUnions int
	// PrepareTTL and RedriveInterval configure the coordinator.
	PrepareTTL      time.Duration
	RedriveInterval time.Duration
	Seed            int64
}

// DefaultShard returns the configuration used to produce
// BENCH_shard.json.
func DefaultShard() ShardConfig {
	return ShardConfig{
		MaxShards: 3, Writers: 8, Phase: 400 * time.Millisecond,
		Unions: 40, RecoveryUnions: 8,
		PrepareTTL: time.Second, RedriveInterval: 10 * time.Millisecond,
		Seed: 2025,
	}
}

// ShardScale is one rung of the write-scaling ladder.
type ShardScale struct {
	Shards       int     `json:"shards"`
	Writers      int     `json:"writers"`
	Writes       int64   `json:"writes"`
	NS           int64   `json:"ns"`
	WritesPerSec float64 `json:"writes_per_sec"`
}

// ShardResult aggregates the sharding benchmark for BENCH_shard.json.
type ShardResult struct {
	// Scale is acked single-shard write throughput against 1..MaxShards
	// durable groups with the same offered writer count.
	Scale []ShardScale `json:"write_scaling"`
	// Cross-shard union latency (durable fenced intent + parallel
	// prepare votes + fsynced commit + bridge asserts on both owners)
	// against the same-shard fast path (one direct assert).
	UnionSamples    int   `json:"union_samples"`
	CrossMeanNS     int64 `json:"cross_shard_union_mean_ns"`
	CrossP50NS      int64 `json:"cross_shard_union_p50_ns"`
	CrossP95NS      int64 `json:"cross_shard_union_p95_ns"`
	SameShardMeanNS int64 `json:"same_shard_union_mean_ns"`
	// Recovery: the coordinator is killed after the commit record is
	// durable but before the bridge edges are applied; the measured
	// window runs from reopening the intent log to the in-doubt set
	// draining and the bridged relation answering correctly.
	RecoveryInDoubt    int    `json:"recovery_in_doubt_intents"`
	RecoveryNS         int64  `json:"recovery_to_serving_ns"`
	RecoveryRelationOK bool   `json:"recovery_relation_ok"`
	Note               string `json:"note"`
}

// shardFleet is n single-primary durable groups on real listeners plus
// the shard map naming them.
type shardFleet struct {
	m   shard.Map
	ts  []*httptest.Server
	srv []*server.Server
}

func (f *shardFleet) close() {
	for _, ts := range f.ts {
		ts.Close()
	}
	for _, s := range f.srv {
		_ = s.Drain(context.Background())
	}
}

// shardGroupNames are the group names used throughout the benchmark.
var shardGroupNames = []string{"alpha", "beta", "gamma", "delta", "epsilon"}

// startShardFleet builds n durable single-primary groups under root.
func startShardFleet(root string, n int, seed int64) (*shardFleet, error) {
	f := &shardFleet{}
	for i := 0; i < n; i++ {
		s, _, err := server.New(server.Config{
			Dir: filepath.Join(root, shardGroupNames[i]), Seed: seed + int64(i),
		})
		if err != nil {
			f.close()
			return nil, err
		}
		ts := httptest.NewServer(s.Handler())
		f.srv = append(f.srv, s)
		f.ts = append(f.ts, ts)
		f.m.Groups = append(f.m.Groups, shard.Group{Name: shardGroupNames[i], Nodes: []string{ts.URL}})
	}
	return f, nil
}

// RunShard executes the sharding benchmark in a temporary directory.
func RunShard(cfg ShardConfig) (*ShardResult, error) {
	def := DefaultShard()
	if cfg.MaxShards <= 0 {
		cfg.MaxShards = def.MaxShards
	}
	if cfg.MaxShards > len(shardGroupNames) {
		cfg.MaxShards = len(shardGroupNames)
	}
	if cfg.Writers <= 0 {
		cfg.Writers = def.Writers
	}
	if cfg.Phase <= 0 {
		cfg.Phase = def.Phase
	}
	if cfg.Unions <= 0 {
		cfg.Unions = def.Unions
	}
	if cfg.RecoveryUnions <= 0 {
		cfg.RecoveryUnions = def.RecoveryUnions
	}
	if cfg.PrepareTTL <= 0 {
		cfg.PrepareTTL = def.PrepareTTL
	}
	if cfg.RedriveInterval <= 0 {
		cfg.RedriveInterval = def.RedriveInterval
	}
	root, err := os.MkdirTemp("", "luf-shard-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	res := &ShardResult{
		Note: "each shard group is one durable fsync-per-write primary on a real " +
			"loopback listener. Write scaling offers the same writer count to a " +
			"growing shard map; writers hold disjoint in-shard chains, so added " +
			"groups add independent journals. Cross-shard unions pay a durable " +
			"fenced intent, parallel prepare votes, an fsynced commit record and " +
			"tagged bridge asserts on both owners; the same-shard baseline is the " +
			"coordinator's direct fast path. Recovery kills the coordinator between " +
			"commit and apply and measures reopen -> in-doubt set drained -> the " +
			"bridged relation answering correctly.",
	}
	ctx := context.Background()

	// Phase 1 — single-shard write throughput vs shard count. The same
	// offered load (cfg.Writers writers) is spread round-robin over the
	// map's groups; every write is an in-shard chain edge, acked only
	// after the owner group's fsync.
	for shards := 1; shards <= cfg.MaxShards; shards++ {
		fleet, err := startShardFleet(filepath.Join(root, fmt.Sprintf("scale%d", shards)), shards, cfg.Seed)
		if err != nil {
			return nil, err
		}
		conns := make([]shard.Conn, shards)
		for gi := range conns {
			conns[gi] = client.DialGroup(fleet.m.Groups[gi])
		}
		// Each writer gets a pool of ids all owned by its assigned group
		// and chains them with consistent labels; wrap-around re-asserts
		// are idempotent, never conflicting.
		pools := make([][]string, cfg.Writers)
		for w := range pools {
			gi := w % shards
			pools[w] = fleet.m.SampleOwned(gi, 256, fmt.Sprintf("s%dw%d", shards, w))
		}
		var writes atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		t0 := time.Now()
		for w := 0; w < cfg.Writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				pool, conn := pools[w], conns[w%shards]
				for j := 0; ; j++ {
					select {
					case <-stop:
						return
					default:
					}
					a, b := pool[j%len(pool)], pool[(j+1)%len(pool)]
					if a == b {
						continue
					}
					if _, err := conn.Assert(ctx, a, b, 1, "scale"); err == nil {
						writes.Add(1)
					}
				}
			}(w)
		}
		time.Sleep(cfg.Phase)
		close(stop)
		wg.Wait()
		ns := time.Since(t0).Nanoseconds()
		res.Scale = append(res.Scale, ShardScale{
			Shards: shards, Writers: cfg.Writers, Writes: writes.Load(), NS: ns,
			WritesPerSec: float64(writes.Load()) / (float64(ns) / 1e9),
		})
		fleet.close()
	}

	// Phase 2 — cross-shard union latency vs the same-shard fast path,
	// both through the coordinator.
	fleet, err := startShardFleet(filepath.Join(root, "latency"), cfg.MaxShards, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer fleet.close()
	coord, err := shard.New(shard.Config{
		Dir: filepath.Join(root, "coord-latency"), Map: fleet.m, Dial: client.DialGroup,
		PrepareTTL: cfg.PrepareTTL, RedriveInterval: cfg.RedriveInterval,
	})
	if err != nil {
		return nil, err
	}
	defer coord.Close()

	ga := fleet.m.SampleOwned(0, cfg.Unions, "xsa")
	gb := fleet.m.SampleOwned(1%cfg.MaxShards, cfg.Unions, "xsb")
	cross := make([]int64, 0, cfg.Unions)
	for i := 0; i < cfg.Unions; i++ {
		t0 := time.Now()
		r, err := coord.Union(ctx, ga[i], gb[i], int64(i), "latency")
		if err != nil {
			return nil, fmt.Errorf("cross-shard union %d: %w", i, err)
		}
		if r.SameShard && cfg.MaxShards > 1 {
			return nil, fmt.Errorf("union %d took the same-shard path", i)
		}
		cross = append(cross, time.Since(t0).Nanoseconds())
	}
	same := fleet.m.SampleOwned(0, 2*cfg.Unions, "ssb")
	var sameTotal int64
	for i := 0; i < cfg.Unions; i++ {
		t0 := time.Now()
		if _, err := coord.Union(ctx, same[2*i], same[2*i+1], int64(i), "baseline"); err != nil {
			return nil, fmt.Errorf("same-shard union %d: %w", i, err)
		}
		sameTotal += time.Since(t0).Nanoseconds()
	}
	sort.Slice(cross, func(i, j int) bool { return cross[i] < cross[j] })
	var crossTotal int64
	for _, ns := range cross {
		crossTotal += ns
	}
	res.UnionSamples = cfg.Unions
	res.CrossMeanNS = crossTotal / int64(len(cross))
	res.CrossP50NS = cross[len(cross)/2]
	res.CrossP95NS = cross[len(cross)*95/100]
	res.SameShardMeanNS = sameTotal / int64(cfg.Unions)

	// Phase 3 — recovery after a coordinator kill between commit and
	// apply: the commit record is durable, no bridge edge exists yet.
	rfleet, err := startShardFleet(filepath.Join(root, "recovery"), 2, cfg.Seed)
	if err != nil {
		return nil, err
	}
	defer rfleet.close()
	coordDir := filepath.Join(root, "coord-recovery")
	var armed atomic.Bool
	var victim *shard.Coordinator
	victim, err = shard.New(shard.Config{
		Dir: coordDir, Map: rfleet.m, Dial: client.DialGroup,
		PrepareTTL: cfg.PrepareTTL, RedriveInterval: cfg.RedriveInterval,
		StepHook: func(stage string, intent uint64) {
			if stage == "committed" && armed.Load() {
				victim.Kill()
			}
		},
	})
	if err != nil {
		return nil, err
	}
	ra := rfleet.m.SampleOwned(0, cfg.RecoveryUnions, "rca")
	rb := rfleet.m.SampleOwned(1, cfg.RecoveryUnions, "rcb")
	for i := 0; i < cfg.RecoveryUnions-1; i++ {
		if _, err := victim.Union(ctx, ra[i], rb[i], int64(i), "warm"); err != nil {
			victim.Kill()
			return nil, fmt.Errorf("recovery warm-up union %d: %w", i, err)
		}
	}
	last := cfg.RecoveryUnions - 1
	armed.Store(true)
	if _, err := victim.Union(ctx, ra[last], rb[last], int64(last), "doomed"); err == nil {
		victim.Kill()
		return nil, fmt.Errorf("union killed at commit unexpectedly succeeded")
	}
	_ = victim.Close()

	t0 := time.Now()
	restarted, err := shard.New(shard.Config{
		Dir: coordDir, Map: rfleet.m, Dial: client.DialGroup,
		PrepareTTL: cfg.PrepareTTL, RedriveInterval: cfg.RedriveInterval,
	})
	if err != nil {
		return nil, fmt.Errorf("coordinator restart: %w", err)
	}
	defer restarted.Close()
	res.RecoveryInDoubt = len(restarted.InDoubt())
	if err := waitFor(time.Minute, func() bool { return len(restarted.InDoubt()) == 0 }); err != nil {
		return nil, fmt.Errorf("in-doubt intents never drained: %w", err)
	}
	label, related, err := restarted.Relation(ctx, ra[last], rb[last])
	res.RecoveryNS = time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, fmt.Errorf("post-recovery relation: %w", err)
	}
	res.RecoveryRelationOK = related && label == int64(last)
	return res, nil
}

// WriteJSON writes the result to path, pretty-printed.
func (r *ShardResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Format renders the sharding benchmark for humans.
func (r *ShardResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Sharded serving (write scaling, cross-shard 2PC latency, coordinator recovery)\n\n")
	sb.WriteString("single-shard write throughput vs shard count (same offered load):\n")
	base := 0.0
	for _, s := range r.Scale {
		speedup := ""
		if base == 0 {
			base = s.WritesPerSec
		} else if base > 0 {
			speedup = fmt.Sprintf("  (%.2fx)", s.WritesPerSec/base)
		}
		fmt.Fprintf(&sb, "  %d shard(s), %2d writers: %7d acked writes in %8.1fms  %9.0f writes/s%s\n",
			s.Shards, s.Writers, s.Writes, float64(s.NS)/1e6, s.WritesPerSec, speedup)
	}
	fmt.Fprintf(&sb, "\ncross-shard union latency (%d samples):\n", r.UnionSamples)
	fmt.Fprintf(&sb, "  cross-shard 2PC: mean %v  p50 %v  p95 %v\n",
		time.Duration(r.CrossMeanNS), time.Duration(r.CrossP50NS), time.Duration(r.CrossP95NS))
	fmt.Fprintf(&sb, "  same-shard fast path: mean %v  (2PC overhead %.2fx)\n",
		time.Duration(r.SameShardMeanNS), float64(r.CrossMeanNS)/float64(r.SameShardMeanNS))
	fmt.Fprintf(&sb, "\ncoordinator recovery after kill-between-commit-and-apply:\n")
	fmt.Fprintf(&sb, "  %d intent(s) in doubt at reopen; serving again in %v; bridged relation ok: %v\n",
		r.RecoveryInDoubt, time.Duration(r.RecoveryNS), r.RecoveryRelationOK)
	return sb.String()
}
