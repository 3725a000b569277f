package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one reported metric. BENCHMARK.json mirrors these
// tables; benchmark_test.go fails when the two disagree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the service or of the analyzer
// sees. Every workload reports every one of them: each workload names a
// key operation, the one it exists to measure, and a side operation,
// the one that shares the system with it (see workloadDefs). Latency
// percentiles are per operation kind because a percentile over a mix of
// a fast and a slow kind falls between the two and jumps with the mix.
// The 90th percentiles are per-layer metrics instead: the shard-2pc
// unions (about 190 a window) and paper-analyzer's solve times, which
// split into budget-bound and quick problems near the 90th percentile,
// move them too much for a bound. Times are scaled to the reference
// host speed (host.go), set-up time too, though its unit stays the
// second; the scaling takes out most of the shared host's changing
// speed, not all of it (README.md, Caveats), so their bounds are the
// largest allowed. Memory is the median of the resident set sampled
// through the window: its peak depends on where in the operation stream
// the garbage collector happened to run, and moved by 8-15% between
// seeds where the median moved by 2%. The writes that grow the state
// run on the clock (see svcConfig.assertEvery), so it does not grow
// with the host's speed.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "key_p50_refms", Unit: "ref-ms", Better: "lower", Bound: 0.25},
	{Name: "side_p50_refms", Unit: "ref-ms", Better: "lower", Bound: 0.25},
	{Name: "rss_p50_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer are the traced-run metrics every workload produces. The
// workload-specific layer rows (server routes, replays, shard phases,
// analyzer passes) are printed in the per-layer table and written to the
// trace file, but are not declared here because not every workload has
// them.
var perLayer = []metricDef{
	{Name: "raw.key_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.side_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "raw.setup_s", Unit: "s", Better: "lower"},
	{Name: "host.cal_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "host.setup_cal_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "mem.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "tail.key_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.side_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "load.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "op.handler_p50_us", Unit: "us", Better: "lower"},
	{Name: "op.outside_handler_p50_us", Unit: "us", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "go.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "proc.sys_us_per_op", Unit: "us", Better: "lower"},
	{Name: "proc.vol_ctx_switches_per_op", Unit: "count", Better: "lower"},
	{Name: "trace.spans_per_op", Unit: "count", Better: "lower"},
	{Name: "trace.key_p50_refms", Unit: "ref-ms", Better: "lower"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one-line JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks, or NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// sample is a set of observations that reports quantiles.
type sample []float64

func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// q returns the q-quantile of the sample.
func (s sample) q(q float64) float64 { return quantile(s.sorted(), q) }

// median returns the middle of xs (NaN when empty).
func median(xs []float64) float64 { return sample(xs).q(0.5) }

// usage is a snapshot of the process counters the per-layer metrics
// difference across the measured window.
type usage struct {
	at         time.Time
	gcCycles   uint32
	gcPauseNs  uint64
	allocBytes uint64
	userCPU    time.Duration
	sysCPU     time.Duration
	volCtxSw   int64
	ioWrite    int64
	steal      time.Duration
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := usage{at: time.Now(), gcCycles: ms.NumGC, gcPauseNs: ms.PauseTotalNs, allocBytes: ms.TotalAlloc}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.userCPU = time.Duration(ru.Utime.Nano())
		u.sysCPU = time.Duration(ru.Stime.Nano())
		u.volCtxSw = ru.Nvcsw
	}
	u.ioWrite = procField("/proc/self/io", "write_bytes:")
	u.steal = hostSteal()
	return u
}

// hostSteal is the CPU time, summed over the machine's CPUs, that the
// hypervisor gave to other guests while these CPUs had work: the
// "steal" column of /proc/stat, in USER_HZ ticks (100 a second on
// Linux). It is -1 when unknown.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return time.Duration(ticks) * (time.Second / 100)
}

// procField reads one "key: value" line of a /proc file as an integer
// (the first number after the key); -1 when absent.
func procField(path, key string) int64 {
	f, err := os.Open(path)
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, key) {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, key))
		if len(fields) == 0 {
			return -1
		}
		v, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return -1
		}
		return v
	}
	return -1
}

// statusMB reads one memory line of /proc/self/status in MB: "VmRSS:"
// is the process's resident set now, "VmHWM:" its high-water mark.
func statusMB(key string) float64 {
	kb := procField("/proc/self/status", key)
	if kb < 0 {
		return math.NaN()
	}
	return float64(kb) / 1024
}

// fmtValue renders a metric value for the human-readable tables.
func fmtValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "n/a"
	case v == math.Trunc(v) && math.Abs(v) < 1e12:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
