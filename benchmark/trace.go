package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// opHeader carries the benchmark operation id on every request a
// benchmark client sends, so server-side spans join the client span of
// the operation that caused them. Requests the system sends on its own
// (replication, 2PC prepare, route probes, migration hops) carry none:
// they are counted and timed per route but not parented.
const opHeader = "X-Bench-Op"

// span is one timed interval at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     int64  `json:"op,omitempty"`
	Status int    `json:"status,omitempty"`
	Parent int    `json:"parent"`
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary. A tracer
// records only while on: during the operations the runner samples (see
// traceGap) and the layer replays after the window.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record appends a finished span.
func (t *tracer) record(name string, op int64, start, end time.Time, status int) {
	if t == nil || !t.on.Load() {
		return
	}
	s := span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Op: op, Status: status, Parent: -1}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// measure runs f inside a span.
func (t *tracer) measure(name string, op int64, f func()) {
	if t == nil {
		f()
		return
	}
	start := time.Now()
	f()
	t.record(name, op, start, time.Now(), 0)
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// handlerPrefix starts the name of every span that covers time inside
// the system under test's entry point for a request or job.
const handlerPrefix = "handler "

// wrap is the server-side middleware: one span per request, named
// "handler <node> <path>", carrying the benchmark op id when the
// request has one and the response status.
func (t *tracer) wrap(node string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h.ServeHTTP(sw, r)
		t.record(handlerPrefix+node+" "+r.URL.Path, op, start, time.Now(), sw.code)
	})
}

type opKey struct{}

// withOp tags ctx with a benchmark operation id (1-based).
func withOp(ctx context.Context, op int64) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}

// opOf is ctx's operation id, or 0.
func opOf(ctx context.Context) int64 {
	op, _ := ctx.Value(opKey{}).(int64)
	return op
}

// opTransport stamps opHeader on outgoing requests whose context
// carries an operation id.
type opTransport struct{ base http.RoundTripper }

func (o opTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if op := opOf(r.Context()); op != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	return o.base.RoundTrip(r)
}

// installTransport makes every client built on http.DefaultTransport
// (client.New and everything over it) stamp operation ids. Only traced
// runs install it.
var installTransport = sync.OnceFunc(func() {
	http.DefaultTransport = opTransport{base: http.DefaultTransport}
})

// rootPrefix starts the name of the span the runner records around each
// whole operation; every other span of that operation is its child.
const rootPrefix = "op "

// linkParents points every span that carries an op id at that
// operation's root span.
func linkParents(spans []span) {
	roots := map[int64]int{}
	for i, s := range spans {
		if s.Op != 0 && strings.HasPrefix(s.Name, rootPrefix) {
			roots[s.Op] = i
		}
	}
	for i := range spans {
		if r, ok := roots[spans[i].Op]; ok && r != i {
			spans[i].Parent = r
		}
	}
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Layers   map[string]float64 `json:"layers"`
	Spans    []span             `json:"spans"`
}

// writeTrace writes the traced run to dir/trace-<workload>.json.
func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
