// Package client is the Go client for the lufd HTTP API
// (internal/server) with the retry discipline the server's
// self-protection expects: exponential backoff with full jitter on
// retryable failures (429 shed load, 503 degraded nodes, 504
// deadlines, transport errors), honoring Retry-After when the server
// sends one, never retrying permanent outcomes (409 conflict, 400
// invalid input), and — when a RetryBudget is attached — bounding
// total retry volume to a fraction of request volume so overload
// cannot metastasize into a retry storm.
//
// The client cooperates with the server's overload controls: a context
// deadline is propagated as the request's remaining budget
// (X-Luf-Deadline) so the server can refuse doomed work, and a Session
// carries the highest durable sequence number observed so replicas
// serve reads without giving up read-your-writes.
//
// Retrying asserts is safe because asserts are idempotent: re-asserting
// an accepted relation is redundant by the union-find's own semantics,
// and the durable store deduplicates journal entries. The client can
// therefore treat "no response" (a timeout after the server may or may
// not have applied the write) exactly like "retryable error" — the
// at-least-once delivery this produces changes nothing observable.
// fault.Injector's DuplicateRequestAt hooks into Do to prove it: the
// chaos tests deliver requests twice and assert state equivalence.
//
// Certificates fetched through Explain are re-verified locally with
// the independent checker (cert.Check) before they are returned, so a
// buggy or compromised server cannot hand the caller a bogus proof.
// Client.sendOnce decodes the response of every retried RPC. A
// certificate body is read by server.ExplainResponse.DecodeJSON, which
// reads the plain layout the server writes in one pass and hands any
// other input to json.Unmarshal, so its value and error are always
// encoding/json's; every other body goes to json.Unmarshal.
//
// Client, Cluster and ShardCluster are safe for concurrent use: one
// value can serve every goroutine of a caller, a coordinator included.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"luf/internal/cert"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/server"
)

// Client talks to a lufd server. Create with New; the zero value is
// not usable. A Client is safe for concurrent use; set its exported
// fields before sharing it.
type Client struct {
	api

	base string
	hc   *http.Client

	// MaxRetries is how many times a retryable request is re-sent
	// after the first attempt.
	MaxRetries int
	// BaseDelay is the first backoff step; doubled per retry up to
	// MaxDelay, then fully jittered (uniform in [0, step]).
	BaseDelay time.Duration
	// MaxDelay caps the backoff step.
	MaxDelay time.Duration
	// Inject, when non-nil, lets chaos tests duplicate requests
	// (DuplicateRequestAt) to prove idempotence.
	Inject *fault.Injector
	// Session, when non-nil, is the read-your-writes token: every
	// response's durable frontier advances it, every request carries it
	// (unless StaleOK), and replicas serve reads only once they cover
	// it. New attaches a fresh session; share one across clients to
	// share the guarantee.
	Session *Session
	// Retry, when non-nil, gates every retry on the shared token
	// bucket: an exhausted budget fails the request with the last error
	// instead of adding retry load. A nil budget never refuses
	// (standalone single-client behavior).
	Retry *RetryBudget
	// StaleOK marks this client's requests stale-tolerant: the session
	// token is not sent, so any replica answers immediately from its
	// current certified state regardless of staleness.
	StaleOK bool

	injectMu sync.Mutex // fault.Injector is single-owner state
}

// New returns a client for the server at base (e.g.
// "http://127.0.0.1:8080") with the default retry policy: 4 retries,
// 25ms base delay, 1s cap.
func New(base string) *Client {
	c := &Client{
		base:       base,
		hc:         &http.Client{},
		MaxRetries: 4,
		BaseDelay:  25 * time.Millisecond,
		MaxDelay:   time.Second,
		Session:    NewSession(),
	}
	c.api = api{call: c.do}
	return c
}

// APIError is a non-2xx response with its structured body.
type APIError struct {
	Status int
	Body   server.ErrorBody
}

// Error renders the taxonomy kind and message.
func (e *APIError) Error() string {
	return fmt.Sprintf("HTTP %d: %s: %s", e.Status, e.Body.Error.Kind, e.Body.Error.Message)
}

// HTTPStatus returns the response's status code (shard.StatusError).
func (e *APIError) HTTPStatus() int { return e.Status }

// Detail returns the structured error detail (shard.StatusError), so a
// coordinator can pass a participant's refusal — conflict certificate
// included — through to its own caller verbatim.
func (e *APIError) Detail() server.ErrorDetail { return e.Body.Error }

// retryable reports whether the outcome of one attempt warrants
// another: transport errors and 5xx/429 shed-or-timeout statuses do;
// permanent verdicts (409 conflict, 400 invalid, 404) do not, and
// neither does a locally exhausted deadline — the budget will not come
// back, so retrying only burns server capacity on doomed work.
func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.Status {
		case http.StatusServiceUnavailable, http.StatusGatewayTimeout,
			http.StatusTooManyRequests, http.StatusInternalServerError:
			return true
		}
		return false
	}
	return !errors.Is(err, fault.ErrDeadlineExceeded) && !errors.Is(err, fault.ErrCanceled) &&
		!errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled)
}

// backoff returns the sleep before retry attempt (1-based), applying
// exponential growth, the cap, full jitter, and any server-provided
// Retry-After floor.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	step := c.BaseDelay << (attempt - 1)
	if step > c.MaxDelay || step <= 0 {
		step = c.MaxDelay
	}
	d := time.Duration(rand.Int64N(int64(step) + 1))
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

// do sends one request (possibly twice, under duplicate injection) and
// retries per the policy. On success it decodes the JSON body into
// out; on a non-2xx response it returns *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("encode request: %v", err)
		}
	}
	c.Retry.OnRequest()
	for attempt := 0; ; attempt++ {
		retryAfter, err := c.send(ctx, method, path, payload, out)
		if err == nil || attempt >= c.MaxRetries || !retryable(err) {
			return err
		}
		if !c.Retry.TakeRetry() {
			return fmt.Errorf("retry budget exhausted after %d attempt(s): %w", attempt+1, err)
		}
		select {
		case <-time.After(c.backoff(attempt+1, retryAfter)):
		case <-ctx.Done():
			return fmt.Errorf("%w: %v (last attempt: %v)", fault.ErrCanceled, ctx.Err(), err)
		}
	}
}

// send performs one HTTP exchange — or two, when duplicate injection
// fires — and decodes the response. It returns any Retry-After
// duration and the attempt's error: *APIError for a non-2xx response.
func (c *Client) send(ctx context.Context, method, path string, payload []byte, out any) (time.Duration, error) {
	c.injectMu.Lock()
	sends := 1
	if c.Inject.ObserveSend() {
		sends = 2 // at-least-once delivery: harmless, asserts are idempotent
	}
	c.injectMu.Unlock()
	var retryAfter time.Duration
	var err error
	for i := 0; i < sends; i++ {
		retryAfter, err = c.sendOnce(ctx, method, path, payload, out)
	}
	return retryAfter, err
}

// parseRetryAfter interprets a Retry-After header value per RFC 9110:
// either non-negative delta-seconds or an HTTP-date (all three formats
// http.ParseTime accepts), relative to now. An absent, unparsable, or
// already-elapsed value yields 0 — the client then falls back to its
// own backoff rather than treating garbage as a directive.
func parseRetryAfter(ra string, now time.Time) time.Duration {
	if ra == "" {
		return 0
	}
	if secs, err := strconv.Atoi(ra); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(ra); err == nil {
		if d := at.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

func (c *Client) sendOnce(ctx context.Context, method, path string, payload []byte, out any) (time.Duration, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Deadline propagation: tell the server how much budget this
	// request has left, so it can refuse doomed work and scale its own
	// per-request budgets down to what fits.
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms <= 0 {
			return 0, fmt.Errorf("%w: request budget exhausted before sending", fault.ErrDeadlineExceeded)
		}
		req.Header.Set(server.HeaderDeadline, strconv.FormatInt(ms, 10))
	}
	if !c.StaleOK {
		if seq := c.Session.Seq(); seq > 0 {
			req.Header.Set(server.HeaderSession, strconv.FormatUint(seq, 10))
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if v := resp.Header.Get(server.HeaderDurable); v != "" {
		if seq, perr := strconv.ParseUint(v, 10, 64); perr == nil {
			c.Session.Observe(seq)
		}
	}
	retryAfter := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return 0, err
	}
	if resp.StatusCode >= 300 {
		ae := &APIError{Status: resp.StatusCode}
		_ = json.Unmarshal(body, &ae.Body) // best effort; an empty body keeps zero values
		return retryAfter, ae
	}
	if er, ok := out.(*server.ExplainResponse); ok {
		err = er.DecodeJSON(body)
	} else if out != nil {
		err = json.Unmarshal(body, out)
	}
	if err != nil {
		return 0, fmt.Errorf("decode response: %v", err)
	}
	return retryAfter, nil
}

// api declares each lufd RPC once over a transport: a Client sends it
// to its own node with retries, a Cluster to the group's believed
// primary with failover.
type api struct {
	call func(ctx context.Context, method, path string, body, out any) error
}

// Assert asserts m - n = label with an optional reason. It retries on
// shed load and transport failure (safe: asserts are idempotent) and
// returns the server's response, or *APIError — for a 409, the error
// body carries the machine-checkable conflict certificate.
func (a api) Assert(ctx context.Context, n, m string, label int64, reason string) (server.AssertResponse, error) {
	var out server.AssertResponse
	err := a.call(ctx, http.MethodPost, "/v1/assert", server.AssertRequest{N: n, M: m, Label: label, Reason: reason}, &out)
	return out, err
}

// Relation queries the relation between n and m.
func (a api) Relation(ctx context.Context, n, m string) (label int64, related bool, err error) {
	var out server.RelationResponse
	err = a.call(ctx, http.MethodGet, "/v1/relation?"+url.Values{"n": {n}, "m": {m}}.Encode(), nil, &out)
	return out.Label, out.Related, err
}

// Explain fetches the relation certificate for (n, m) and re-verifies
// it locally with the independent checker before returning it — the
// caller never sees a certificate that does not check.
func (a api) Explain(ctx context.Context, n, m string) (cert.Certificate[string, int64], error) {
	var out server.ExplainResponse
	if err := a.call(ctx, http.MethodGet, "/v1/explain?"+url.Values{"n": {n}, "m": {m}}.Encode(), nil, &out); err != nil {
		return cert.Certificate[string, int64]{}, err
	}
	if err := cert.Check(out.Cert, group.Delta{}); err != nil {
		return out.Cert, fault.Invariantf("server certificate failed local verification: %v", err)
	}
	return out.Cert, nil
}

// BatchAssert sends a batch of asserts.
func (a api) BatchAssert(ctx context.Context, asserts []server.AssertRequest) (server.BatchAssertResponse, error) {
	var out server.BatchAssertResponse
	err := a.call(ctx, http.MethodPost, "/v1/batch/assert", server.BatchAssertRequest{Asserts: asserts}, &out)
	return out, err
}

// Prepare runs the 2PC vote round (coordinator use: a yes vote
// reserves the prepare window on the participant).
func (a api) Prepare(ctx context.Context, req server.PrepareRequest) (server.PrepareResponse, error) {
	var out server.PrepareResponse
	err := a.call(ctx, http.MethodPost, server.PreparePath, req, &out)
	return out, err
}

// Abort releases a 2PC prepare-window reservation (idempotent).
func (a api) Abort(ctx context.Context, req server.AbortRequest) (server.AbortResponse, error) {
	var out server.AbortResponse
	err := a.call(ctx, http.MethodPost, server.AbortPath, req, &out)
	return out, err
}

// MigrateFreeze reserves a migration freeze window (coordinator use):
// writes to the class stall, reads keep serving.
func (a api) MigrateFreeze(ctx context.Context, req server.MigrateFreezeRequest) (server.MigrateFreezeResponse, error) {
	var out server.MigrateFreezeResponse
	err := a.call(ctx, http.MethodPost, server.FreezePath, req, &out)
	return out, err
}

// MigrateRelease thaws a migration freeze window (idempotent; also the
// operator escape hatch for a class stuck behind a dead coordinator).
func (a api) MigrateRelease(ctx context.Context, req server.MigrateReleaseRequest) (server.MigrateReleaseResponse, error) {
	var out server.MigrateReleaseResponse
	err := a.call(ctx, http.MethodPost, server.ReleasePath, req, &out)
	return out, err
}

// MigrateComplete installs the post-flip stale-write fence on a
// migration's source owner and releases its freeze (idempotent).
func (a api) MigrateComplete(ctx context.Context, req server.MigrateCompleteRequest) (server.MigrateCompleteResponse, error) {
	var out server.MigrateCompleteResponse
	err := a.call(ctx, http.MethodPost, server.CompletePath, req, &out)
	return out, err
}

// MigrateSlice fetches one window of a class's certified journal slice.
func (a api) MigrateSlice(ctx context.Context, class string, after, limit int) (server.MigrateSliceResponse, error) {
	var out server.MigrateSliceResponse
	q := url.Values{"class": {class}, "after": {strconv.Itoa(after)}, "limit": {strconv.Itoa(limit)}}
	err := a.call(ctx, http.MethodGet, server.SlicePath+"?"+q.Encode(), nil, &out)
	return out, err
}

// Solve submits a problem in the minisolve text format.
func (a api) Solve(ctx context.Context, name, src string) (server.SolveResponse, error) {
	var out server.SolveResponse
	err := a.call(ctx, http.MethodPost, "/v1/solve", server.SolveRequest{Name: name, Src: src}, &out)
	return out, err
}

// Stats fetches /v1/stats.
func (a api) Stats(ctx context.Context) (server.StatsResponse, error) {
	var out server.StatsResponse
	err := a.call(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// Health fetches /healthz (no retries, and the body is decoded even on
// 503: health checks must see degradation, not mask it).
func (c *Client) Health(ctx context.Context) (server.HealthResponse, error) {
	var out server.HealthResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return out, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("decode health response: %v", err)
	}
	return out, nil
}

// Resync forces a fresh self-healing episode on a follower — the
// operator escape hatch for a node stuck past its resync attempt cap,
// or a deliberate full resync of a healthy one. A non-empty source
// names the node to pull certified state from, for the stuck node that
// never learned a primary hint.
func (c *Client) Resync(ctx context.Context, source string) (server.ResyncResponse, error) {
	var out server.ResyncResponse
	err := c.do(ctx, http.MethodPost, "/v1/resync", server.ResyncRequest{Source: source}, &out)
	return out, err
}
