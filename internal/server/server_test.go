package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"luf/internal/cert"
	"luf/internal/client"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/server"
)

// newTestServer builds a server + httptest front + client.
func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *client.Client) {
	t.Helper()
	s, _, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, client.New(ts.URL)
}

func TestAssertQueryExplain(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{})
	ctx := context.Background()

	// x --3--> y --4--> z, so z - x = 7.
	if _, err := c.Assert(ctx, "x", "y", 3, "fact-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Assert(ctx, "y", "z", 4, "fact-2"); err != nil {
		t.Fatal(err)
	}
	label, related, err := c.Relation(ctx, "x", "z")
	if err != nil || !related || label != 7 {
		t.Fatalf("relation(x,z) = (%d,%v,%v), want (7,true,nil)", label, related, err)
	}
	_, related, err = c.Relation(ctx, "x", "unrelated")
	if err != nil || related {
		t.Fatalf("relation to unrelated node: related=%v err=%v", related, err)
	}

	// Explain re-verifies locally; the reasons must be the asserted ones.
	cc, err := c.Explain(ctx, "x", "z")
	if err != nil {
		t.Fatal(err)
	}
	reasons := strings.Join(cc.Reasons(), ",")
	if !strings.Contains(reasons, "fact-1") || !strings.Contains(reasons, "fact-2") {
		t.Fatalf("certificate reasons %q lack the asserted facts", reasons)
	}

	// A contradicting assert must 409 with a checkable conflict cert.
	_, err = c.Assert(ctx, "x", "z", 8, "bad-fact")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("conflicting assert: err = %v, want 409 APIError", err)
	}
	if apiErr.Body.Error.Kind != "conflict" {
		t.Fatalf("conflict kind = %q", apiErr.Body.Error.Kind)
	}
	if apiErr.Body.Error.ConflictCert == nil {
		t.Fatal("409 body lacks the conflict certificate")
	}
	conflict := *apiErr.Body.Error.ConflictCert
	if conflict.Kind != cert.Conflict {
		t.Fatalf("certificate kind = %v, want Conflict", conflict.Kind)
	}
	if err := cert.Check(conflict, group.Delta{}); err != nil {
		t.Fatalf("conflict certificate rejected by the checker: %v", err)
	}
}

func TestBatchAssert(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{})
	resp, err := c.BatchAssert(context.Background(), []server.AssertRequest{
		{N: "a", M: "b", Label: 1, Reason: "r1"},
		{N: "b", M: "c", Label: 2, Reason: "r2"},
		{N: "a", M: "c", Label: 99, Reason: "contradiction"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	if !resp.Results[0].OK || !resp.Results[1].OK {
		t.Fatalf("consistent asserts rejected: %+v", resp.Results)
	}
	if resp.Results[2].OK || resp.Results[2].Error != "conflict" {
		t.Fatalf("contradiction outcome: %+v", resp.Results[2])
	}
}

// TestBatchAssertCommitsOnce: a durable batch costs one fsync however
// many items it accepts. The injector fails the second fsync after
// start-up; a batch committing per item would hit it and answer 500.
func TestBatchAssertCommitsOnce(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{Dir: t.TempDir(), Inject: &fault.Injector{FailSyncAt: 2}})
	c.MaxRetries = 0
	resp, err := c.BatchAssert(context.Background(), []server.AssertRequest{
		{N: "a", M: "b", Label: 1, Reason: "r1"},
		{N: "b", M: "c", Label: 2, Reason: "r2"},
		{N: "c", M: "d", Label: 3, Reason: "r3"},
	})
	if err != nil {
		t.Fatalf("three-item batch with one fsync available: %v", err)
	}
	if !resp.Durable {
		t.Fatal("durable batch not reported durable")
	}
	for i, it := range resp.Results {
		if !it.OK {
			t.Fatalf("item %d refused: %+v", i, it)
		}
	}
}

func TestDurableAssertSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, _, c := newTestServer(t, server.Config{Dir: dir})
	ctx := context.Background()
	resp, err := c.Assert(ctx, "x", "y", 3, "durable-fact")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Durable || resp.Seq == 0 {
		t.Fatalf("assert response %+v not durable", resp)
	}
	if _, err := c.Assert(ctx, "y", "z", 4, "durable-fact-2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	s2, rec, err := server.New(server.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec == nil || rec.Entries != 2 {
		t.Fatalf("recovery = %+v, want 2 entries", rec)
	}
	// The drain wrote a final snapshot, so recovery replays it.
	if rec.FromSnapshot != 2 {
		t.Fatalf("recovered %d entries from snapshot, want 2", rec.FromSnapshot)
	}
	l, ok := s2.UF().GetRelation("x", "z")
	if !ok || l != 7 {
		t.Fatalf("restarted relation(x,z) = (%d,%v), want (7,true)", l, ok)
	}
}

func TestAdmissionControlShedsLoad(t *testing.T) {
	inj := &fault.Injector{DelayRequestAt: 1, RequestDelay: 300 * time.Millisecond}
	_, ts, _ := newTestServer(t, server.Config{MaxInflight: 1, Inject: inj})

	slow := make(chan error, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/relation?n=a&m=b")
		if err == nil {
			resp.Body.Close()
		}
		slow <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the slow request occupy the only slot

	resp, err := http.Get(ts.URL + "/v1/relation?n=a&m=b")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Admission sheds are 429 "overloaded" (a load condition — retry
	// elsewhere immediately), distinct from the 503 "unavailable" a
	// draining or degraded node answers.
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 lacks Retry-After")
	}
	var eb server.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Kind != "overloaded" {
		t.Fatalf("shed-load kind = %q, want overloaded", eb.Error.Kind)
	}
	if err := <-slow; err != nil {
		t.Fatalf("slow request failed: %v", err)
	}

	// Health probes are never shed.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d under load", hresp.StatusCode)
	}
}

// solveSrc is a small problem the portfolio decides instantly.
const solveSrc = `
var x rat
var y rat
eq 1*x - 1*y - 3 = 0
eq 1*x - 1*y - 5 = 0
`

// starvedSrc needs real propagation (interval tightening through a
// product), so a one-step budget cannot decide it.
const starvedSrc = `
var x rat
var y rat
var z rat
le 1*x - 10 <= 0
le -1*x + 1 <= 0
eq 1*y - 2*x - 1 = 0
mul z = x * y
`

func TestSolveAndBreaker(t *testing.T) {
	_, ts, c := newTestServer(t, server.Config{
		BreakerFailures: 2,
		BreakerCooldown: 100 * time.Millisecond,
		SolveSteps:      1, // starve the solver so every run fails undecided
	})
	ctx := context.Background()

	// Two starved solves open the breaker.
	for i := 0; i < 2; i++ {
		resp, err := c.Solve(ctx, "starved", starvedSrc)
		if err != nil {
			t.Fatalf("starved solve %d: %v", i, err)
		}
		if resp.Stopped == "" {
			t.Fatalf("starved solve %d ran to completion (%+v); the test premise is wrong", i, resp)
		}
	}
	// The circuit is now open: fail fast with a structured 503.
	hresp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"name":"x","src":"var x rat"}`))
	if err != nil {
		t.Fatal(err)
	}
	var eb server.ErrorBody
	if err := json.NewDecoder(hresp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable || eb.Error.Kind != "unavailable" {
		t.Fatalf("open-circuit solve: status %d kind %q, want 503/unavailable", hresp.StatusCode, eb.Error.Kind)
	}
	if !strings.Contains(eb.Error.Message, "circuit") {
		t.Fatalf("open-circuit message %q does not mention the breaker", eb.Error.Message)
	}

	// Asserts keep flowing while the solver circuit is open.
	if _, err := c.Assert(ctx, "p", "q", 1, ""); err != nil {
		t.Fatalf("assert while breaker open: %v", err)
	}

	// After the cooldown a probe goes through; give it a real budget by
	// rebuilding the config? No — the probe still runs starved, fails,
	// and re-opens: verify the half-open -> open transition.
	time.Sleep(120 * time.Millisecond)
	if _, err := c.Solve(ctx, "probe", starvedSrc); err != nil {
		t.Fatalf("half-open probe was refused: %v", err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Breaker != "open" {
		t.Fatalf("breaker after failed probe = %q, want open", st.Breaker)
	}
}

func TestSolveDecides(t *testing.T) {
	_, _, c := newTestServer(t, server.Config{})
	resp, err := c.Solve(context.Background(), "unsat", solveSrc)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Verdict != "unsat" {
		t.Fatalf("verdict = %q, want unsat (x-y=3 and x-y=5)", resp.Verdict)
	}
}

func TestExplainSabotageCaughtBySelfVerification(t *testing.T) {
	inj := &fault.Injector{CorruptCertAt: 1}
	_, ts, c := newTestServer(t, server.Config{Inject: inj})
	ctx := context.Background()
	if _, err := c.Assert(ctx, "x", "y", 3, "r"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/explain?n=x&m=y")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("sabotaged explain status = %d, want 500", resp.StatusCode)
	}
	var eb server.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Kind != "invariant" {
		t.Fatalf("sabotaged explain kind = %q, want invariant", eb.Error.Kind)
	}

	// The next explain (injection consumed) emits a verified cert.
	if _, err := c.Explain(ctx, "x", "y"); err != nil {
		t.Fatalf("explain after injection: %v", err)
	}
}

func TestClientRetriesWithBackoff(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: server.ErrorDetail{Kind: "unavailable", Message: "shed"}})
			return
		}
		_ = json.NewEncoder(w).Encode(server.AssertResponse{OK: true})
	}))
	defer ts.Close()

	c := client.New(ts.URL)
	c.BaseDelay, c.MaxDelay = time.Millisecond, 5*time.Millisecond
	resp, err := c.Assert(context.Background(), "a", "b", 1, "")
	if err != nil || !resp.OK {
		t.Fatalf("assert after shed: %+v, %v", resp, err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3 (2 shed + 1 success)", got)
	}
}

func TestClientDoesNotRetryConflicts(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusConflict)
		_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: server.ErrorDetail{Kind: "conflict", Message: "no"}})
	}))
	defer ts.Close()

	c := client.New(ts.URL)
	c.BaseDelay = time.Millisecond
	_, err := c.Assert(context.Background(), "a", "b", 1, "")
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict {
		t.Fatalf("err = %v, want 409 APIError", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("conflict was retried %d times; permanent outcomes must not be retried", got-1)
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := server.NewBreaker(2, 50*time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(false)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(false) // second consecutive failure: opens
	if err := b.Allow(); err == nil || !errors.Is(err, fault.ErrUnavailable) {
		t.Fatalf("open breaker Allow = %v, want ErrUnavailable", err)
	}
	time.Sleep(60 * time.Millisecond)
	if err := b.Allow(); err != nil { // half-open probe
		t.Fatalf("post-cooldown probe refused: %v", err)
	}
	if err := b.Allow(); err == nil { // only one probe at a time
		t.Fatal("second concurrent probe allowed")
	}
	b.Record(true)
	if b.State() != "closed" {
		t.Fatalf("state after successful probe = %q", b.State())
	}
}

// TestSolveRejectsHugeLiteral sends 40 constraints whose coefficient is
// 1e999999, a 770-byte problem that big.Rat would expand to about 415 KB
// per literal before any step budget or deadline applies. The parser
// refuses exponent forms up front, so the request is a 400.
func TestSolveRejectsHugeLiteral(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{})
	src := "var x int\n" + strings.Repeat("le 1e999999*x <= 0\n", 40)
	if len(src) != 770 {
		t.Fatalf("problem is %d bytes, want 770", len(src))
	}
	body, err := json.Marshal(server.SolveRequest{Src: src})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb server.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error.Message, "cannot parse") {
		t.Fatalf("status %d, error %+v; want a 400 refusing the literal", resp.StatusCode, eb.Error)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("refusal took %v; the literal was expanded before it was refused", d)
	}
}

// TestSolveRejectsEmptyProblem guards against a vacuous verdict: a
// body that decodes to an empty problem (wrong field name, empty src)
// must be a 400, never a trivially-sat answer masking the client bug.
func TestSolveRejectsEmptyProblem(t *testing.T) {
	_, ts, _ := newTestServer(t, server.Config{})
	for _, body := range []string{`{}`, `{"problem":"wrong field name"}`, `{"src":"  \n "}`} {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var eb server.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("solve %s: status %d, want 400", body, resp.StatusCode)
		}
		if !strings.Contains(eb.Error.Message, "empty") {
			t.Fatalf("solve %s: error %+v lacks the empty-problem explanation", body, eb.Error)
		}
	}
}
