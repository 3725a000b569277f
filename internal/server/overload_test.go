package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"luf/internal/client"
	"luf/internal/server"
)

// getWithHeaders issues a GET with extra headers and decodes any
// structured error body.
func getWithHeaders(t *testing.T, url string, hdr map[string]string) (*http.Response, server.ErrorBody) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb server.ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	return resp, eb
}

// rawResult carries a response taken on a helper goroutine back to the
// test goroutine (t.Fatal is not legal off the test goroutine).
type rawResult struct {
	status  int
	kind    string
	durable string
	err     error
}

// rawGet performs a GET with headers and sends the decoded outcome on
// ch; safe to call from any goroutine.
func rawGet(ch chan<- rawResult, url string, hdr map[string]string) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		ch <- rawResult{err: err}
		return
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		ch <- rawResult{err: err}
		return
	}
	defer resp.Body.Close()
	var eb server.ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	ch <- rawResult{status: resp.StatusCode, kind: eb.Error.Kind, durable: resp.Header.Get(server.HeaderDurable)}
}

// TestBrownoutShedsHeavyFirst drives the brownout priority ladder end
// to end: with the single heavy slot occupied, further heavy work is
// shed with 429 + Retry-After while reads and writes keep flowing —
// certificate-heavy work browns out first, writes last.
func TestBrownoutShedsHeavyFirst(t *testing.T) {
	_, ts, c := newTestServer(t, server.Config{
		Dir:             t.TempDir(),
		MaxInflight:     2, // heavy cap: 1, read cap: 2, write cap: 2
		FollowerWaitMax: 900 * time.Millisecond,
	})
	ctx := context.Background()
	if _, err := c.Assert(ctx, "a", "b", 1, "seed"); err != nil {
		t.Fatal(err)
	}

	// Occupy the one heavy slot: an explain carrying a session token from
	// the future parks in the bounded-staleness wait for FollowerWaitMax,
	// holding its class slot the whole time.
	hold := make(chan rawResult, 1)
	go rawGet(hold, ts.URL+"/v1/explain?n=a&m=b", map[string]string{server.HeaderSession: "999999999"})

	// While it holds the slot, a second explain is shed: 429, kind
	// "overloaded", Retry-After present.
	var shedResp *http.Response
	var shedBody server.ErrorBody
	waitUntil(t, "heavy work shed at the class cap", func() bool {
		resp, eb := getWithHeaders(t, ts.URL+"/v1/explain?n=a&m=b", nil)
		if resp.StatusCode == http.StatusTooManyRequests {
			shedResp, shedBody = resp, eb
			return true
		}
		return false
	})
	if shedBody.Error.Kind != "overloaded" {
		t.Fatalf("shed kind %q, want overloaded (429 means retry elsewhere now, not back off)", shedBody.Error.Kind)
	}
	if shedResp.Header.Get("Retry-After") == "" {
		t.Fatal("429 shed response lacks Retry-After")
	}
	if !strings.Contains(shedBody.Error.Message, "heavy") {
		t.Fatalf("shed message %q does not name the browned-out class", shedBody.Error.Message)
	}

	// Reads and writes ride through the same pressure untouched.
	if label, related, err := c.Relation(ctx, "a", "b"); err != nil || !related || label != 1 {
		t.Fatalf("read during heavy brownout = (%d,%v,%v), want (1,true,nil)", label, related, err)
	}
	if _, err := c.Assert(ctx, "b", "c", 2, "under-pressure"); err != nil {
		t.Fatalf("write during heavy brownout: %v (writes must shed last)", err)
	}

	// The holder eventually times out of the staleness wait with a 421
	// redirect — the slot was never granted an answer it could not prove.
	hr := <-hold
	if hr.err != nil {
		t.Fatal(hr.err)
	}
	if hr.status != http.StatusMisdirectedRequest || hr.kind != "not-primary" {
		t.Fatalf("uncovered session read = %d/%q, want 421/not-primary", hr.status, hr.kind)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.ShedByClass["heavy"] == 0 {
		t.Fatalf("shed_by_class %v lacks the heavy sheds", st.ShedByClass)
	}
	if st.ShedByClass["write"] != 0 {
		t.Fatalf("shed_by_class %v counts write sheds; writes must shed last", st.ShedByClass)
	}
	if st.SessionRedirects == 0 {
		t.Fatal("session_redirects counter did not record the 421")
	}
}

// TestDeadlineRefusesDoomedWork pins deadline propagation's refusal
// path: a request whose remaining budget cannot cover even MinDeadline
// is turned away with 504 before admission, on reads and writes alike;
// malformed budgets are the client's bug (400), and generous budgets
// are simply clamped.
func TestDeadlineRefusesDoomedWork(t *testing.T) {
	_, ts, c := newTestServer(t, server.Config{MinDeadline: 20 * time.Millisecond})
	ctx := context.Background()
	if _, err := c.Assert(ctx, "x", "y", 1, "seed"); err != nil {
		t.Fatal(err)
	}

	// 5ms of remaining budget cannot cover the 20ms floor.
	resp, eb := getWithHeaders(t, ts.URL+"/v1/relation?n=x&m=y", map[string]string{server.HeaderDeadline: "5"})
	if resp.StatusCode != http.StatusGatewayTimeout || eb.Error.Kind != "deadline" {
		t.Fatalf("doomed read = %d/%q, want 504/deadline", resp.StatusCode, eb.Error.Kind)
	}

	// Writes are refused by the same gate.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/assert", strings.NewReader(`{"n":"p","m":"q","label":1}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.HeaderDeadline, "0")
	wresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	if wresp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("doomed write = %d, want 504", wresp.StatusCode)
	}

	// Malformed and negative budgets are invalid input, not a default.
	for _, bad := range []string{"soon", "-5"} {
		resp, eb = getWithHeaders(t, ts.URL+"/v1/relation?n=x&m=y", map[string]string{server.HeaderDeadline: bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline %q = %d/%q, want 400", bad, resp.StatusCode, eb.Error.Kind)
		}
	}

	// A workable budget is admitted and served; so is one too large
	// for a time.Duration, which must not wrap into a refused one.
	for _, ok := range []string{"30000", "9223372036855", "9223372036854775807"} {
		resp, _ = getWithHeaders(t, ts.URL+"/v1/relation?n=x&m=y", map[string]string{server.HeaderDeadline: ok})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("generous budget %s refused with %d", ok, resp.StatusCode)
		}
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeadlineRefused != 2 {
		t.Fatalf("deadline_refused = %d, want 2 (one read, one write)", st.DeadlineRefused)
	}
}

// TestSessionReadYourWritesOnFollower drives the bounded-staleness
// session across a real replication pair: a client that wrote through
// the primary carries the durable frontier in its session token, and a
// follower serves the read only once its own durable state covers it —
// briefly waiting for catch-up, else 421-redirecting at the primary.
func TestSessionReadYourWritesOnFollower(t *testing.T) {
	p, f, pURL, fURL := newPair(t, server.Config{}, server.Config{FollowerWaitMax: 2 * time.Second})
	_ = p
	ctx := context.Background()
	cp := client.New(pURL)
	r, err := cp.Assert(ctx, "w0", "w1", 5, "ryw")
	if err != nil {
		t.Fatal(err)
	}
	// The assert response stamped the durable frontier; the client's
	// session token tracked it automatically.
	if cp.Session.Seq() < r.Seq {
		t.Fatalf("client session %d did not observe the acked write's seq %d", cp.Session.Seq(), r.Seq)
	}

	// The same session on a follower read: read-your-writes holds even
	// when the replica is a beat behind.
	fc := client.New(fURL)
	fc.Session = cp.Session
	if label, related, err := fc.Relation(ctx, "w0", "w1"); err != nil || !related || label != 5 {
		t.Fatalf("follower read-your-writes = (%d,%v,%v), want (5,true,nil)", label, related, err)
	}

	// Wait-then-serve: a read asking for a frontier that does not exist
	// yet blocks in the bounded wait, the write lands, the follower ships
	// it, and the read completes — counted as a session wait.
	want := r.Seq + 1
	served := make(chan rawResult, 1)
	go rawGet(served, fURL+"/v1/relation?n=w0&m=w1", map[string]string{server.HeaderSession: fmt.Sprint(want)})
	time.Sleep(20 * time.Millisecond)
	if _, err := cp.Assert(ctx, "w1", "w2", 1, "late-write"); err != nil {
		t.Fatal(err)
	}
	sr := <-served
	if sr.err != nil {
		t.Fatal(sr.err)
	}
	if sr.status != http.StatusOK {
		t.Fatalf("waiting session read = %d/%q, want 200 once the follower catches up", sr.status, sr.kind)
	}
	if sr.durable == "" {
		t.Fatalf("session read response lacks the %s stamp", server.HeaderDurable)
	}
	waitUntil(t, "session wait counted", func() bool {
		st, err := client.New(fURL).Stats(ctx)
		return err == nil && st.SessionWaits >= 1
	})

	// An unreachable token redirects with the primary hint once the
	// bounded wait expires. A fresh pair keeps the wait short.
	_, _, pURL2, fURL2 := newPair(t, server.Config{}, server.Config{FollowerWaitMax: 50 * time.Millisecond})
	cp2 := client.New(pURL2)
	if _, err := cp2.Assert(ctx, "z0", "z1", 3, "hint"); err != nil {
		t.Fatal(err)
	}
	resp, eb := getWithHeaders(t, fURL2+"/v1/relation?n=z0&m=z1", map[string]string{server.HeaderSession: "999999999"})
	if resp.StatusCode != http.StatusMisdirectedRequest || eb.Error.Kind != "not-primary" {
		t.Fatalf("unreachable session = %d/%q, want 421/not-primary", resp.StatusCode, eb.Error.Kind)
	}
	if eb.Error.Primary != pURL2 {
		t.Fatalf("421 hint %q, want the primary %q", eb.Error.Primary, pURL2)
	}
	_ = f
}
