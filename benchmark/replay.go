package main

import (
	"context"
	"path/filepath"
	"strings"
	"time"

	"luf/internal/cert"
	"luf/internal/concurrent"
	"luf/internal/group"
	"luf/internal/replica"
	"luf/internal/server"
	"luf/internal/shard"
	"luf/internal/solver"
	"luf/internal/wal"
)

// replayCap bounds how many operations each layer replay times.
const replayCap = 2000

// layers adds the single-group rows: server counters from /v1/stats,
// replication, and replays of the window's first operations on the
// core, the certificate journal and the WAL, each built from the same
// preload.
func (s *svc) layers(lc *layerCtx) {
	if s.sampler != nil {
		s.sampler.stop()
		lc.rows["replica.lag_seq_p99"] = s.sampler.lag.q(0.99)
		lc.rows["replica.in_flight_p99"] = s.sampler.inFlight.q(0.99)
	}
	n := float64(lc.attempted)
	if st, err := s.client.Stats(context.Background()); err == nil {
		lc.rows["server.shed_delta"] = float64(st.Shed - s.stats0.Shed)
		lc.rows["server.deadline_refused_delta"] = float64(st.DeadlineRefused - s.stats0.DeadlineRefused)
		lc.rows["concurrent.finds_per_op"] = float64(st.UF.Finds-s.stats0.UF.Finds) / n
		lc.rows["concurrent.retries"] = float64(st.UF.Retries - s.stats0.UF.Retries)
		lc.rows["concurrent.halves"] = float64(st.UF.Halves - s.stats0.UF.Halves)
		if st.LastSeq > 0 {
			lc.rows["wal.bytes_per_entry"] = float64(st.JournalSize) / float64(st.LastSeq)
		}
	}
	user := 0
	for _, e := range s.acked.entries {
		user += len(e.N) + len(e.M) + 8
	}
	if user > 0 {
		lc.rows["wal.write_amp"] = lc.rows["proc.write_bytes"] / float64(user)
	}
	if s.follower != nil {
		rep := lc.spans(named(replica.ReplicatePath))
		lc.rows["server.replicate_p50_us"] = rep.q(0.5)
		lc.rows["replica.batches_per_traced_assert"] = float64(len(rep)) / float64(lc.tracedCount("assert"))
	}

	var reads, asserts []svcOp
	for _, o := range s.history {
		if o.kind == "assert" {
			asserts = append(asserts, o)
		} else {
			reads = append(reads, o)
		}
	}
	replayCore(lc, s.preload, reads)
	var explains []svcOp
	for _, o := range reads {
		if s.world.related(o.n, o.m) && (o.kind == "explain" || len(explains) < replayCap/2) {
			explains = append(explains, o)
		}
	}
	replayCert(lc, s.world, s.preload, explains)
	writes := s.preload
	if len(asserts) > 0 {
		writes = nil
		for _, o := range asserts {
			writes = append(writes, cert.Entry[string, int64]{N: o.n, M: o.m, Label: o.label})
		}
	}
	replayWAL(lc, writes)
}

// replayCore times the window's reads on a fresh concurrent.UF holding
// the preload, and the preload's own unions.
func replayCore(lc *layerCtx, preload []cert.Entry[string, int64], reads []svcOp) {
	var getNs, addNs []float64
	for rep := 0; rep < 3; rep++ {
		uf := concurrent.New[string, int64](group.Delta{})
		t0 := time.Now()
		for _, e := range preload {
			uf.AddRelationReason(e.N, e.M, e.Label, e.Reason)
		}
		addNs = append(addNs, float64(time.Since(t0))/float64(len(preload)))
		if len(reads) > 0 {
			t0 = time.Now()
			for _, o := range reads {
				uf.GetRelation(o.n, o.m)
			}
			getNs = append(getNs, float64(time.Since(t0))/float64(len(reads)))
		}
	}
	lc.rows["concurrent.add_relation_ns"] = median(addNs)
	lc.rows["concurrent.get_relation_ns"] = median(getNs)
}

// replayCert times Explain and Check for the window's explained pairs
// (or related reads) on a certificate journal holding the preload, and
// records certificate length and class size.
func replayCert(lc *layerCtx, w *world, preload []cert.Entry[string, int64], pairs []svcOp) {
	j := cert.NewJournal[string, int64](group.Delta{})
	for _, e := range preload {
		j.Record(e.N, e.M, e.Label, e.Reason)
	}
	var explain, check, steps, size sample
	for i, o := range pairs {
		if i == replayCap {
			break
		}
		t0 := time.Now()
		c, err := j.Explain(o.n, o.m)
		t1 := time.Now()
		if err != nil {
			continue
		}
		_ = cert.Check(c, group.Delta{})
		t2 := time.Now()
		lc.tr.record("replay cert.Explain", 0, t0, t1, 0)
		lc.tr.record("replay cert.Check", 0, t1, t2, 0)
		explain = append(explain, float64(t1.Sub(t0))/1e3)
		check = append(check, float64(t2.Sub(t1))/1e3)
		steps = append(steps, float64(len(c.Steps)))
		size = append(size, float64(len(w.classes[w.class[o.n]])))
	}
	lc.rows["cert.explain_p50_us"] = explain.q(0.5)
	lc.rows["cert.explain_p99_us"] = explain.q(0.99)
	lc.rows["cert.check_p50_us"] = check.q(0.5)
	lc.rows["cert.cert_steps_p50"] = steps.q(0.5)
	lc.rows["cert.cert_steps_p99"] = steps.q(0.99)
	lc.rows["cert.class_size_p50"] = size.q(0.5)
}

// replayWAL times Append plus Commit (one fsync each) of the window's
// writes on a fresh store on the same filesystem.
func replayWAL(lc *layerCtx, writes []cert.Entry[string, int64]) {
	st, _, err := wal.Open(filepath.Join(lc.dir, "wal"), group.Delta{}, wal.DeltaCodec{}, wal.Options{})
	if err != nil {
		return
	}
	defer st.Close()
	var d sample
	for i, e := range writes {
		if i == replayCap {
			break
		}
		t0 := time.Now()
		seq, err := st.Append(e)
		if err == nil {
			err = st.Commit(seq)
		}
		t1 := time.Now()
		if err != nil {
			return
		}
		lc.tr.record("replay wal.Append+Commit", 0, t0, t1, 0)
		d = append(d, float64(t1.Sub(t0))/1e3)
	}
	lc.rows["wal.append_commit_p50_us"] = d.q(0.5)
	lc.rows["wal.append_commit_p99_us"] = d.q(0.99)
}

// layers adds the coordinator's phases: 2PC union and prepare, routed
// relations and their probes, migration hops and refusals.
func (s *shardSys) layers(lc *layerCtx) {
	onGroup := func(path string, internal bool) func(span) bool {
		return func(sp span) bool {
			return named(path)(sp) && !strings.Contains(sp.Name, " coordinator ") && (sp.Op == 0) == internal
		}
	}
	coordinator := func(path string) func(span) bool {
		return func(sp span) bool { return sp.Name == handlerPrefix+"coordinator "+path }
	}
	lc.rows["shard.union_p50_us"] = lc.spans(coordinator(shard.UnionPath)).q(0.5)
	lc.rows["shard.relation_p50_us"] = lc.spans(func(sp span) bool { return coordinator("/v1/relation")(sp) && sp.Op != 0 }).q(0.5)
	lc.rows["shard.prepare_p50_us"] = lc.spans(named(server.PreparePath)).q(0.5)
	if x := lc.tracedCount("xrel"); x > 0 {
		lc.rows["shard.route_probes_per_xrel"] = float64(len(lc.spans(onGroup("/v1/relation", true)))) / float64(x)
	}
	lc.rows["shard.retry_after_503"] = float64(len(lc.spans(func(sp span) bool { return sp.Status == 503 })))
	lc.rows["server.migrate_freeze_p50_us"] = lc.spans(named(server.FreezePath)).q(0.5)
	lc.rows["server.migrate_slice_p50_us"] = lc.spans(named(server.SlicePath)).q(0.5)
	lc.rows["server.migrate_complete_p50_us"] = lc.spans(named(server.CompletePath)).q(0.5)
	if s.coord != nil {
		lc.rows["shard.bridges"] = float64(s.coord.StatsNow(context.Background(), 0).Bridges)
	}
}

// layers adds the paper's own rows: sequential §7.2 passes with and
// without the LUF domain (the analyzer overhead row), the front end's
// share, sequential Table 1 passes under BASE and LABELED-UF, and the
// correctness counts.
func (s *paperSys) layers(lc *layerCtx) {
	ctx := context.Background()
	front := newTracer()
	front.on.Store(true)
	var lufPass, basePass time.Duration
	provedNew, losses := 0, 0
	for _, j := range s.jobs {
		if j.kind != "analyze" {
			continue
		}
		t0 := time.Now()
		luf, err := analyze(ctx, front, 0, j.src, true, s.sec72.Depth)
		lufPass += time.Since(t0)
		t1 := time.Now()
		base, berr := analyze(ctx, nil, 0, j.src, false, s.sec72.Depth)
		basePass += time.Since(t1)
		if err != nil || berr != nil {
			continue
		}
		newProof, lost := compareProofs(base.Asserts, luf.Asserts)
		losses += lost
		if newProof {
			provedNew++
		}
	}
	parse, ssa := 0.0, 0.0
	for _, sp := range front.snapshot() {
		switch sp.Name {
		case "lang.Parse":
			parse += sp.us()
		case "cfg.SSA":
			ssa += sp.us()
		}
	}
	lc.rows["lang.parse_pass_ms"] = parse / 1e3
	lc.rows["cfg.ssa_pass_ms"] = ssa / 1e3
	lc.rows["analyzer.luf_pass_s"] = lufPass.Seconds()
	lc.rows["analyzer.base_pass_s"] = basePass.Seconds()
	lc.rows["analyzer.luf_overhead_pct"] = 100 * (lufPass.Seconds()/basePass.Seconds() - 1)
	lc.rows["analyzer.proved_new"] = float64(provedNew)
	lc.rows["analyzer.precision_losses"] = float64(losses)
	for _, v := range []solver.Variant{solver.Base, solver.LabeledUF} {
		t0 := time.Now()
		for _, j := range s.jobs {
			if j.kind == "solve" {
				solver.Solve(j.prob, v, s.solveOpts(ctx))
			}
		}
		lc.rows["solver."+strings.ToLower(strings.ReplaceAll(v.String(), "-", "_"))+"_pass_s"] = time.Since(t0).Seconds()
	}
	solved := 0
	for _, ok := range s.solved {
		if ok {
			solved++
		}
	}
	lc.rows["solver.solved_ga"] = float64(solved)
}
