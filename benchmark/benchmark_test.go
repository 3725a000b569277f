package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"luf/internal/server"
)

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json, which the
// benchmark's users read, equal to the tables the code reports from.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []workloadDef
	for _, w := range workloadDefs {
		names = append(names, workloadDef{Name: w.Name, Why: w.Why})
	}
	if !reflect.DeepEqual(decl.Workloads, names) {
		t.Errorf("BENCHMARK.json workloads %+v, code declares %+v", decl.Workloads, names)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, code declares %+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %+v, code declares %+v", decl.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"benchmark"}) {
		t.Errorf("BENCHMARK.json paths %v, want [benchmark]", decl.Paths)
	}
}

// TestOracleRejectsBogusAnswers serves a tiny mixed-sync system through
// a proxy that tampers with every certificate, and sends one assertion
// that contradicts σ: the certificate the checker rejects and the
// conflict the server reports must both be wrong answers, which make a
// run incorrect, not failures, which a run only counts.
func TestOracleRejectsBogusAnswers(t *testing.T) {
	w, _ := findWorkload("mixed-sync")
	sys, err := w.setup(&env{dir: t.TempDir(), seed: 3, tiny: true}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s := sys.(*svc)
	defer s.close()
	target, err := url.Parse(s.primary.url)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	proxy.ModifyResponse = func(resp *http.Response) error {
		if resp.Request.URL.Path != "/v1/explain" || resp.StatusCode != http.StatusOK {
			return nil
		}
		var out server.ExplainResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return err
		}
		resp.Body.Close()
		out.Cert.Label++
		data, err := json.Marshal(out)
		if err != nil {
			return err
		}
		resp.Body = io.NopCloser(bytes.NewReader(data))
		resp.ContentLength = int64(len(data))
		resp.Header.Set("Content-Length", strconv.Itoa(len(data)))
		return nil
	}
	ts := httptest.NewServer(proxy)
	defer ts.Close()

	a, b := s.world.pair(0)
	explain := svcOp{kind: "explain", n: a, m: b}
	s.op = explain
	if err := s.do(context.Background()); err != nil {
		t.Fatalf("untampered explain: %v", err)
	}
	s.client = newClient(ts.URL)
	for _, o := range []svcOp{explain, {kind: "assert", n: a, m: b, label: s.world.label(a, b) + 1}} {
		s.op = o
		if err := s.do(context.Background()); !errors.Is(err, errWrong) {
			t.Errorf("%s through the tampering proxy: got %v, want a wrong answer", o.kind, err)
		}
	}
}

// TestCompareVerdicts checks -compare's verdicts on key_p50_refms (bound
// 25%, lower is better) and its quartiles against Python's
// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
func TestCompareVerdicts(t *testing.T) {
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	tight := []float64{1, 1.01, 1.02, 1.03, 1.04}
	wide := []float64{1, 1.5, 1, 1.5, 1.2}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		workload string
		a, b     []float64
		want     string
	}{
		{"same", tight, scale(tight, 1.1), "same"},
		{"worse", tight, scale(tight, 1.5), "worse"},
		{"better", tight, scale(tight, 0.5), "better"},
		{"unresolved", wide, scale(wide, 1.1), "unresolved"},
		{"separated", wide, scale(wide, 2), "worse"},
	}
	dir := t.TempDir()
	write := func(name string, pick func(a, b []float64) []float64) string {
		var set setFile
		for _, c := range cases {
			for i, v := range pick(c.a, c.b) {
				set.Runs = append(set.Runs, setRun{Workload: c.workload, Seed: int64(i), Result: result{
					Correct: true, Attempted: 1, Metrics: map[string]metricValue{"key_p50_refms": {Value: v, Unit: "ref-ms"}},
				}})
			}
		}
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	pa := write("a.json", func(a, _ []float64) []float64 { return a })
	pb := write("b.json", func(_, b []float64) []float64 { return b })
	var out strings.Builder
	agree, err := compareSets(&out, pa, pb)
	if err != nil {
		t.Fatal(err)
	}
	if agree {
		t.Error("compareSets agreed on sets that differ")
	}
	verdicts := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		f := strings.Fields(line)
		verdicts[f[0]] = f[len(f)-1]
	}
	for _, c := range cases {
		if verdicts[c.workload] != c.want {
			t.Errorf("%s: verdict %q, want %q\n%s", c.workload, verdicts[c.workload], c.want, out.String())
		}
	}
}

// TestSmoke runs every workload traced, with a 1 s window and a tiny
// preload: the oracle must pass, no operation may fail, and every
// declared metric must be produced.
func TestSmoke(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			rep, err := runWorkload(w, 3, 1, true, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.res.Correct || rep.res.Failed > 0 {
				t.Fatalf("correct=%v failed=%d of %d; notes: %v", rep.res.Correct, rep.res.Failed, rep.res.Attempted, rep.notes)
			}
			for _, d := range endToEnd {
				if v, ok := rep.e2e[d.Name]; !ok || math.IsNaN(v) || v <= 0 {
					t.Errorf("end-to-end metric %s = %v", d.Name, v)
				}
			}
			for _, d := range perLayer {
				if _, ok := rep.res.Metrics[d.Name]; !ok {
					t.Errorf("per-layer metric %s not produced", d.Name)
				}
			}
		})
	}
}
