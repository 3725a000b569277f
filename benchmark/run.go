package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// A run builds its workload's state at least setupReps times, and more
// (up to setupMaxReps) until the builds have taken setupBudget; the
// reported set-up time is the median, and only the last build serves
// the window. A set-up of a few tens of milliseconds is moved more by
// a single pause (a GC cycle, a page-fault burst) than a longer one, so
// short ones are repeated more. The median is scaled, like the
// latencies, by the host's speed: the calibration job runs once just
// before each build, and the builds' median is multiplied by calRef ÷
// the job's median (see calRef). The host's speed during the builds,
// not over the window that follows, is what tracks their time
// (README.md, Host speed and ref-ms).
const (
	setupReps    = 5
	setupMaxReps = 50
	setupBudget  = time.Second
)

// opDeadline is every operation's budget: an operation that has not
// answered by then counts as failed. It covers two of
// client.ShardCluster's Retry-After waits (1 s each), which turn
// shard-2pc's in-doubt refusals into latency.
const opDeadline = 5 * time.Second

// env is what a workload's set-up gets.
type env struct {
	dir  string // private scratch directory inside the checkout
	seed int64
	tiny bool // smoke-test sizing
	tr   *tracer
}

// system is one workload's built state. One client drives it in a
// closed loop: it asks for the next operation of the workload's seeded
// stream, performs it, and asks for the next one only once it has the
// answer.
type system interface {
	// next generates the next operation and returns its kind. at is the
	// time since the window started: an operation a workload runs on a
	// clock (mixed-sync's asserts, shard-2pc's unions and migrations) is
	// next once it is due; every other operation follows the stream.
	next(at time.Duration) string
	// do performs the operation next generated and checks its answer; a
	// rejected answer wraps errWrong.
	do(ctx context.Context) error
	// layers adds the workload's own per-layer rows (traced runs only),
	// while its servers still run.
	layers(lc *layerCtx)
	// finish stops serving and runs the end-of-window oracle.
	finish(ctx context.Context) error
	// close releases everything; it is idempotent.
	close()
}

// workloadDef declares one workload.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// key and side are the operation kinds the key_* and side_*
	// metrics measure.
	key, side string
	setup     func(e *env, window time.Duration) (system, error)
}

var workloadDefs = []workloadDef{
	{
		Name: "mixed-sync", key: "relation", side: "assert",
		Why: "read hot path (HTTP, admission, lock-free GetRelation, encode) beside sync-replicated writes (WAL append, fsync, shipping, follower re-prove), Zipf classes",
		setup: func(e *env, window time.Duration) (system, error) {
			return setupSvc(e, svcConfig{classes: 1000, size: 16, mix: []share{{"relation", 0.95}, {"explain", 0.05}}, negative: 0.1,
				assertEvery: 2 * time.Millisecond, follower: true}, window)
		},
	},
	{
		Name: "explain-deep", key: "explain", side: "relation",
		Why: "certificate path on 4096-node classes: Explain's BFS grows with class size and Check with certificate length; the other workloads bypass it",
		setup: func(e *env, window time.Duration) (system, error) {
			return setupSvc(e, svcConfig{classes: 8, size: 4096, mix: []share{{"explain", 0.6}, {"relation", 0.4}}}, window)
		},
	},
	{
		Name: "shard-2pc", key: "xrel", side: "xunion",
		Why: "the only workload on the 2PC intent log, prepare windows, bridge router and migration: cross-shard relations and unions, a class migration every 2 s",
		setup: func(e *env, window time.Duration) (system, error) {
			return setupShard(e, shardConfig{hot: 64, size: 16, mix: []share{{"relation", 0.6}, {"assert", 0.2}, {"xrel", 0.2}},
				unionEvery: time.Second * 2 / 15, migrateEvery: 2 * time.Second}, window)
		},
	},
	{
		Name: "paper-analyzer", key: "analyze", side: "solve",
		Why:   "the paper's own cost with no network: the 7.2 analyzer with the LUF TVPE domain and the Table 1 solver under GROUP-ACTION",
		setup: func(e *env, _ time.Duration) (system, error) { return setupPaper(e) },
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runReport is one workload run: the printed result plus everything the
// human-readable tables and the trace file show.
type runReport struct {
	res result
	e2e map[string]float64
	// everyRun are per-layer metrics that every run prints: the key and
	// side latencies and the set-up time unscaled, the key and side 90th
	// percentiles, the calibration job's median times and the peak
	// resident set.
	everyRun map[string]float64
	layers   map[string]float64
	notes    []string
}

// runWorkload builds the workload several times (see setupReps), runs
// one window on the last build, checks every answer and the durable state,
// and reports the metrics. trace selects the per-layer metrics and
// writes the trace file under outDir. The run uses one processor
// (GOMAXPROCS 1; see README.md, Load).
func runWorkload(w workloadDef, seed int64, seconds float64, trace, tiny bool, outDir string) (*runReport, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	window := time.Duration(seconds * float64(time.Second))
	var tr *tracer
	if trace {
		installTransport()
		tr = newTracer()
	}
	work := filepath.Join(outDir, "work", fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	defer os.RemoveAll(work)

	cal := newCalJob()
	defer cal.close()
	cal.run() // fault its working set in before anything is timed

	var setupS []float64
	var setupCal sample // the job's time before each build, in ms
	var setupTotal time.Duration
	build := func() (system, error) {
		e := &env{dir: filepath.Join(work, fmt.Sprintf("setup%d", len(setupS))), seed: seed, tiny: tiny, tr: tr}
		setupCal = append(setupCal, float64(cal.run())/1e6)
		runtime.GC()
		t0 := time.Now()
		s, err := w.setup(e, window)
		if err != nil {
			return nil, fmt.Errorf("set up %s: %w", w.Name, err)
		}
		d := time.Since(t0)
		setupTotal += d
		setupS = append(setupS, d.Seconds())
		return s, nil
	}
	// Every build but the last is only timed, and closed at once.
	goroutines := runtime.NumGoroutine()
	for len(setupS) < setupReps-1 || len(setupS) < setupMaxReps-1 && setupTotal < setupBudget {
		s, err := build()
		if err != nil {
			return nil, err
		}
		s.close()
	}
	settle(goroutines)
	sys, err := build()
	if err != nil {
		return nil, err
	}
	defer sys.close()

	runtime.GC()
	u0 := readUsage()
	wr := drive(sys, window, tr, cal)
	u1 := readUsage()
	// Read before the oracle: re-opening every store after the window
	// raises the high-water mark by more than the system ever used.
	peakRSS := statusMB("VmHWM:")

	rep := &runReport{res: result{Correct: wr.wrong == nil, Attempted: wr.attempted, Failed: wr.failed, Metrics: map[string]metricValue{}}}
	if wr.wrong != nil {
		rep.notes = append(rep.notes, "ORACLE: "+wr.wrong.Error())
	}
	for msg, n := range wr.failures {
		rep.notes = append(rep.notes, fmt.Sprintf("failed %d× %s", n, msg))
	}

	var lc *layerCtx
	if tr != nil {
		tr.on.Store(true) // the layer replays record their own spans
		lc = newLayerCtx(tr, wr, w.key, u0, u1, filepath.Join(work, "replay"))
		sys.layers(lc)
	}
	if err := sys.finish(context.Background()); err != nil {
		if !errors.Is(err, errWrong) {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		rep.notes = append(rep.notes, "ORACLE: "+err.Error())
		rep.res.Correct = false
	}

	rep.e2e = map[string]float64{
		"setup_s":        median(setupS) * float64(calRef) / 1e6 / setupCal.q(0.5),
		"key_p50_refms":  wr.latencies(w.key, true).q(0.5),
		"side_p50_refms": wr.latencies(w.side, true).q(0.5),
		"rss_p50_mb":     wr.rss.q(0.5),
	}
	key, side := wr.latencies(w.key, false), wr.latencies(w.side, false)
	rep.everyRun = map[string]float64{
		"raw.key_p50_ms":        key.q(0.5),
		"raw.side_p50_ms":       side.q(0.5),
		"tail.key_p90_ms":       key.q(0.9),
		"tail.side_p90_ms":      side.q(0.9),
		"host.cal_p50_ms":       wr.host.all().q(0.5),
		"host.setup_cal_p50_ms": setupCal.q(0.5),
		"mem.peak_rss_mb":       peakRSS,
		"raw.setup_s":           median(setupS),
	}
	for _, kind := range []string{w.key, w.side} {
		if n := len(wr.lat[kind]); float64(n)*(1-0.9) < 10 {
			rep.notes = append(rep.notes, fmt.Sprintf("the %s p90 rests on %d samples, fewer than 10 beyond it", kind, n))
		}
	}
	if u0.steal >= 0 && u1.steal >= 0 {
		steal := float64(u1.steal-u0.steal) / float64(u1.at.Sub(u0.at)) / float64(runtime.NumCPU())
		if lc != nil {
			lc.rows["host.steal_pct"] = 100 * steal
		}
		if steal > stealFlag {
			rep.notes = append(rep.notes, fmt.Sprintf("the hypervisor withheld %.0f%% of the CPU time during the window: every time measured is inflated", 100*steal))
		}
	}
	defs := endToEnd
	vals := rep.e2e
	if lc != nil {
		for k, v := range rep.everyRun {
			lc.rows[k] = v
		}
		rep.layers = lc.rows
		defs, vals = perLayer, lc.rows
		spans := tr.snapshot()
		linkParents(spans)
		path, err := writeTrace(outDir, traceFile{Workload: w.Name, Seed: seed, Layers: finite(lc.rows), Spans: spans})
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		rep.notes = append(rep.notes, "trace written to "+path)
	}
	if rep.res.Correct {
		for _, d := range defs {
			if v, ok := vals[d.Name]; ok && !math.IsNaN(v) {
				rep.res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
			} else {
				rep.notes = append(rep.notes, "metric "+d.Name+" was not produced")
			}
		}
	}
	return rep, nil
}

// windowResult is what drive measured.
type windowResult struct {
	attempted, failed int
	// lat holds each kind's answered operations.
	lat map[string][]opLatency
	// failures counts failed operations by kind and first error line.
	failures map[string]int
	// wrong is the first answer the oracle rejected.
	wrong error
	// traced are the operations whose spans a traced run recorded.
	traced []opRecord
	// host is the calibration record: the host's speed over the window.
	host hostSpeed
	// rss is the resident set in MB, sampled with every calibration job.
	rss sample
	// elapsed is the window's length as run.
	elapsed time.Duration
}

// opLatency is one answered operation: when in the window it started,
// and how long it took.
type opLatency struct{ at, d time.Duration }

// latencies returns kind's latencies in ms, or, with ref, in ref-ms:
// each scaled by the host's speed in the second it ran (see calRef).
func (wr windowResult) latencies(kind string, ref bool) sample {
	scale := func(time.Duration) float64 { return 1 }
	if ref {
		scale = wr.host.scale()
	}
	out := make(sample, len(wr.lat[kind]))
	for i, l := range wr.lat[kind] {
		out[i] = float64(l.d) / 1e6 * scale(l.at)
	}
	return out
}

// opRecord is one traced operation.
type opRecord struct {
	op         int64
	kind       string
	at         time.Duration // start, from the window's start
	start, end time.Time
	err        error
}

// traceGap spaces the traced operations: a traced run records the spans
// of one operation per traceGap (the next to start after it), so the
// trace's size does not grow with the operation rate.
const traceGap = 5 * time.Millisecond

// drive runs the window: one client asks sys for the next operation,
// performs it and waits for its answer, then asks for the next, until
// the window has passed. Every calEvery it runs the calibration job
// between two operations and samples the resident set. An operation's
// latency runs from its call to
// its answer. A request the system refused or shed, or that failed or
// timed out, counts as failed and is left out of the latencies; an
// answer the oracle rejects makes the run incorrect.
func drive(sys system, window time.Duration, tr *tracer, cal *calJob) windowResult {
	wr := windowResult{lat: map[string][]opLatency{}, failures: map[string]int{}}
	t0 := time.Now()
	var calAt time.Duration
	var lastTraced time.Time
	for op := int64(1); ; op++ {
		at := time.Since(t0)
		if at >= calAt {
			wr.host.add(at, cal.run())
			wr.rss = append(wr.rss, statusMB("VmRSS:"))
			calAt = at + calEvery
			at = time.Since(t0)
		}
		if at >= window {
			wr.elapsed = at
			return wr
		}
		kind := sys.next(at)
		traced := tr != nil && time.Since(lastTraced) >= traceGap
		ctx, cancel := context.WithTimeout(withOp(context.Background(), op), opDeadline)
		if traced {
			tr.on.Store(true)
		}
		start := time.Now()
		err := sys.do(ctx)
		end := time.Now()
		if traced {
			tr.record(rootPrefix+kind, op, start, end, 0)
			tr.on.Store(false)
			wr.traced = append(wr.traced, opRecord{op: op, kind: kind, at: at, start: start, end: end, err: err})
			lastTraced = start
		}
		cancel()
		wr.attempted++
		switch {
		case err == nil:
			wr.lat[kind] = append(wr.lat[kind], opLatency{at: at, d: end.Sub(start)})
		case errors.Is(err, errWrong):
			if wr.wrong == nil {
				wr.wrong = err
			}
		default:
			wr.failed++
			wr.failures[kind+": "+firstLine(err.Error())]++
		}
	}
}

// settle lets the closed builds finish leaving before the serving build
// starts: it waits, for at most settleWait, until the process is back
// to the given number of goroutines (a server's 2PC reservation probes,
// for one, sleep out their TTL before they exit and release the
// server), returns the freed memory to the system and resets the peak
// RSS to the current RSS. The window's memory metrics then cover one
// build, not builds that overlapped while they wound down. Without
// the reset (a kernel older than 4.0) mem.peak_rss_mb covers every build.
func settle(goroutines int) {
	deadline := time.Now().Add(settleWait)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // "5" resets VmHWM
}

// settleWait bounds settle's wait; a 2PC reservation probe sleeps for
// the 1 s default TTL.
const settleWait = 5 * time.Second

// stealFlag is the share of the machine's CPU time withheld by the
// hypervisor during a window above which a run is flagged: its times
// then measure the host's load as much as the system.
const stealFlag = 0.05

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 160 {
		s = s[:160] + "…"
	}
	return s
}

// finite drops NaN rows (JSON cannot carry them).
func finite(rows map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(rows))
	for k, v := range rows {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = v
		}
	}
	return out
}

// printReport writes the human-readable tables for one run.
func printReport(out io.Writer, name string, seed int64, rep *runReport) {
	fmt.Fprintf(out, "workload %s seed %d: attempted %d, failed %d, correct %v\n", name, seed, rep.res.Attempted, rep.res.Failed, rep.res.Correct)
	for _, d := range endToEnd {
		fmt.Fprintf(out, "  %-22s %12s %s\n", d.Name, fmtValue(rep.e2e[d.Name]), d.Unit)
	}
	for _, d := range perLayer {
		if v, ok := rep.everyRun[d.Name]; ok {
			fmt.Fprintf(out, "  %-22s %12s %s\n", d.Name, fmtValue(v), d.Unit)
		}
	}
	if rep.layers != nil {
		fmt.Fprintf(out, "per-layer (%s):\n", name)
		keys := make([]string, 0, len(rep.layers))
		for k := range rep.layers {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(out, "  %-52s %12s\n", k, fmtValue(rep.layers[k]))
		}
	}
	for _, n := range rep.notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
}
