package main

import (
	"fmt"
	"strings"
)

// layerCtx gathers a traced run's per-layer rows. newLayerCtx fills the
// rows every workload has; each system adds its own in layers.
type layerCtx struct {
	tr   *tracer
	rows map[string]float64
	// attempted is the number of operations in the window; traced are
	// the ones whose spans were recorded.
	attempted int
	traced    []opRecord
	// window are the spans recorded during the measured window.
	window []span
	// dir is scratch space for layer replays.
	dir string
}

func newLayerCtx(tr *tracer, wr windowResult, keyKind string, u0, u1 usage, dir string) *layerCtx {
	lc := &layerCtx{tr: tr, rows: map[string]float64{}, attempted: wr.attempted, traced: wr.traced, window: tr.snapshot(), dir: dir}
	n := float64(wr.attempted)
	lc.rows["load.ops_per_s"] = n / wr.elapsed.Seconds()

	// Time inside the system's entry points per traced operation, against
	// the rest of its latency (client encode/decode and transport, or the
	// analyzer's front end).
	handler := map[int64]float64{}
	for _, s := range lc.window {
		if s.Op > 0 && strings.HasPrefix(s.Name, handlerPrefix) {
			handler[s.Op] += s.us()
		}
	}
	var in, out, keyLat sample
	kindIn, kindOut := map[string]sample{}, map[string]sample{}
	scale := wr.host.scale()
	for _, o := range wr.traced {
		if o.err != nil {
			continue
		}
		total := float64(o.end.Sub(o.start)) / 1e3
		in, out = append(in, handler[o.op]), append(out, total-handler[o.op])
		kindIn[o.kind] = append(kindIn[o.kind], handler[o.op])
		kindOut[o.kind] = append(kindOut[o.kind], total-handler[o.op])
		if o.kind == keyKind {
			keyLat = append(keyLat, total/1e3*scale(o.at))
		}
	}
	lc.rows["op.handler_p50_us"] = in.q(0.5)
	lc.rows["op.outside_handler_p50_us"] = out.q(0.5)
	// Against the untraced run's key_p50_refms this is the tracing
	// overhead.
	lc.rows["trace.key_p50_refms"] = keyLat.q(0.5)
	for k := range wr.lat {
		lat := wr.latencies(k, false)
		lc.rows["op."+k+".count"] = float64(len(lat))
		lc.rows["op."+k+".latency_p50_ms"] = lat.q(0.5)
		lc.rows["op."+k+".latency_p99_ms"] = lat.q(0.99)
		lc.rows["op."+k+".handler_p50_us"] = kindIn[k].q(0.5)
		lc.rows["op."+k+".outside_handler_p50_us"] = kindOut[k].q(0.5)
	}

	lc.rows["go.gc_cycles"] = float64(u1.gcCycles - u0.gcCycles)
	lc.rows["go.gc_pause_total_ms"] = float64(u1.gcPauseNs-u0.gcPauseNs) / 1e6
	lc.rows["go.alloc_kb_per_op"] = float64(u1.allocBytes-u0.allocBytes) / 1024 / n
	lc.rows["proc.cpu_us_per_op"] = float64(u1.userCPU+u1.sysCPU-u0.userCPU-u0.sysCPU) / 1e3 / n
	lc.rows["proc.sys_us_per_op"] = float64(u1.sysCPU-u0.sysCPU) / 1e3 / n
	lc.rows["proc.vol_ctx_switches_per_op"] = float64(u1.volCtxSw-u0.volCtxSw) / n
	lc.rows["proc.write_bytes"] = float64(u1.ioWrite - u0.ioWrite)
	lc.rows["trace.traced_ops"] = float64(len(wr.traced))
	lc.rows["trace.spans_per_op"] = float64(len(lc.window)) / float64(len(wr.traced))

	// Every other span name: count and duration quantiles, split into
	// spans an operation caused and the system's own hops, plus non-2xx
	// statuses.
	type key struct {
		name     string
		internal bool
	}
	groups := map[key]sample{}
	for _, s := range lc.window {
		if strings.HasPrefix(s.Name, rootPrefix) {
			continue
		}
		k := key{s.Name, s.Op == 0}
		groups[k] = append(groups[k], s.us())
		if s.Status >= 300 {
			lc.rows[fmt.Sprintf("%s http_%d", s.Name, s.Status)]++
		}
	}
	for k, smp := range groups {
		name := k.name
		if k.internal {
			name += " (internal)"
		}
		lc.rows[name+" count"] = float64(len(smp))
		lc.rows[name+" p50_us"] = smp.q(0.5)
		lc.rows[name+" p99_us"] = smp.q(0.99)
	}
	return lc
}

// spans returns the durations (us) of window spans matching f.
func (lc *layerCtx) spans(f func(span) bool) sample {
	var out sample
	for _, s := range lc.window {
		if f(s) {
			out = append(out, s.us())
		}
	}
	return out
}

// named matches handler spans of any node whose path is path.
func named(path string) func(span) bool {
	return func(s span) bool {
		return strings.HasPrefix(s.Name, handlerPrefix) && strings.HasSuffix(s.Name, " "+path)
	}
}

// tracedCount returns how many traced operations were of kind.
func (lc *layerCtx) tracedCount(kind string) int {
	n := 0
	for _, o := range lc.traced {
		if o.kind == kind {
			n++
		}
	}
	return n
}
