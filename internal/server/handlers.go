package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"luf/internal/cert"
	"luf/internal/concurrent"
	"luf/internal/fault"
	"luf/internal/replica"
	"luf/internal/scrub"
	"luf/internal/solver"
	"luf/internal/wal"
)

// maxBodyBytes bounds request bodies; oversized bodies get a
// structured 400 rather than unbounded allocation.
const maxBodyBytes = 4 << 20

// ErrorBody is the structured error payload of every non-2xx response.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the taxonomy kind and human-readable message.
type ErrorDetail struct {
	// Kind is the fault taxonomy label (fault.StopLabel): "conflict",
	// "unavailable", "io", "deadline", "budget", "invalid-label", ...
	Kind string `json:"kind"`
	// Message is the classified error's text.
	Message string `json:"message"`
	// ConflictCert, present on 409 responses, is the machine-checkable
	// UNSAT core: a derivation of the existing relation plus the
	// contradicting assertion.
	ConflictCert *cert.Certificate[string, int64] `json:"conflict_cert,omitempty"`
	// Primary, present on 421 responses, is the base URL of the node
	// this follower believes is the current primary — the redirect hint
	// failover-aware clients follow.
	Primary string `json:"primary,omitempty"`
	// Divergence, present when Kind is "divergence", pinpoints where
	// the refusing node's history split from the sender's: the first
	// disagreeing sequence number and both ends' record checksums, from
	// the refusing node's perspective.
	Divergence *wal.DivergenceError `json:"divergence,omitempty"`
	// NewOwner, present on 403 migrated-node refusals, names the shard
	// group that owns the class now — the re-route hint map-epoch-aware
	// clients follow after refreshing the shard map.
	NewOwner string `json:"new_owner,omitempty"`
	// MovedNode, present alongside NewOwner, is the refused endpoint —
	// the node whose class migrated away, so a coordinator applying a
	// committed bridge edge can re-route just that endpoint's ownership.
	MovedNode string `json:"moved_node,omitempty"`
	// MapEpoch, present alongside NewOwner, is the shard-map epoch of
	// the flip that moved the class; a client holding an older epoch
	// knows its map is stale.
	MapEpoch uint64 `json:"map_epoch,omitempty"`
}

// statusFor maps a classified error to its HTTP status: the one table
// every lufd and coordinator handler answers by.
func statusFor(err error) int {
	switch {
	case errors.Is(err, fault.ErrConflict):
		return http.StatusConflict
	case errors.Is(err, fault.ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, fault.ErrDeadlineExceeded), errors.Is(err, fault.ErrCanceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, fault.ErrBudgetExhausted), errors.Is(err, fault.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, fault.ErrInvalidLabel):
		return http.StatusBadRequest
	case errors.Is(err, fault.ErrNotPrimary):
		return http.StatusMisdirectedRequest
	case errors.Is(err, fault.ErrFenced):
		return http.StatusForbidden
	case errors.Is(err, fault.ErrIO), errors.Is(err, fault.ErrInvariantViolated):
		return http.StatusInternalServerError
	}
	return http.StatusInternalServerError
}

// WriteJSON writes v as the JSON body of a response with the given
// status: the one success and refusal encoder of lufd and the shard
// coordinator. An ExplainResponse is written by its own codec, which
// writes the bytes encoding/json would.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if r, ok := v.(ExplainResponse); ok {
		_, _ = w.Write(r.AppendJSON(nil))
		return
	}
	_ = json.NewEncoder(w).Encode(v)
}

// refusal is an error that already knows its HTTP status and detail:
// a participant's refusal the coordinator passes on (client.APIError,
// the shape shard.StatusError names) or a lufd not-found answer.
type refusal interface {
	HTTPStatus() int
	Detail() ErrorDetail
}

// WriteError writes the structured error body for err; it is the only
// writer of error bodies, for lufd and the shard coordinator alike.
// The status comes from the fault taxonomy, or unchanged from a
// refusal passed through from a participant, which also keeps every
// detail field. The message is always err's own text. Typed errors add
// their detail: a conflict certificate (409), the primary hint (421),
// the new owner of a migrated node (403), and the divergence point,
// which also overrides the kind with "divergence" so a shipping primary
// can tell "this follower needs a resync" from any other invariant
// violation. Both shed statuses carry Retry-After: 503 (node degraded:
// back off and prefer another replica) and 429 (admission shed: safe
// elsewhere at once, this long before the same node).
func WriteError(w http.ResponseWriter, err error) {
	status, detail := statusFor(err), ErrorDetail{}
	var ref refusal
	if errors.As(err, &ref) {
		status, detail = ref.HTTPStatus(), ref.Detail()
	}
	if detail.Kind == "" {
		detail.Kind = fault.StopLabel(err)
	}
	detail.Message = err.Error()
	var de *wal.DivergenceError
	if errors.As(err, &de) {
		detail.Kind = wal.DivergenceKind
		detail.Divergence = de
	}
	var me *MigratedError
	if errors.As(err, &me) {
		detail.NewOwner = me.Group
		detail.MapEpoch = me.MapEpoch
		detail.MovedNode = me.Node
	}
	var ce *conflictError
	if errors.As(err, &ce) {
		detail.ConflictCert = ce.cert
	}
	var np *notPrimaryError
	if errors.As(err, &np) {
		detail.Primary = np.primary
	}
	if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, status, ErrorBody{Error: detail})
}

// conflictError is a write refused because it contradicts an existing
// relation: it unwraps to its fault.ErrConflict cause (HTTP 409) and
// carries the conflict certificate WriteError attaches.
type conflictError struct {
	error
	cert *cert.Certificate[string, int64]
}

func (e *conflictError) Unwrap() error { return e.error }

// newConflict wraps err, the refusal of asserting n -(label)-> m with
// reason, with the certificate j derives for the conflict (none when
// it derives none).
func newConflict(j *cert.SyncJournal[string, int64], err error, n, m string, label int64, reason string) error {
	ce := &conflictError{error: err}
	if cc, cerr := j.ExplainConflict(n, m, label, reason); cerr == nil {
		ce.cert = &cc
	}
	return ce
}

// notPrimaryError is a request this node must not handle itself — a
// follower refusing a write, a replica refusing a stale session read:
// it unwraps to its fault.ErrNotPrimary cause (HTTP 421) and carries
// the primary hint WriteError attaches.
type notPrimaryError struct {
	error
	primary string
}

func (e *notPrimaryError) Unwrap() error { return e.error }

// notFoundError is a read with no answer (HTTP 404, kind "not-found").
type notFoundError string

func (e notFoundError) Error() string { return string(e) }

// HTTPStatus returns 404.
func (notFoundError) HTTPStatus() int { return http.StatusNotFound }

// Detail returns the not-found kind.
func (notFoundError) Detail() ErrorDetail { return ErrorDetail{Kind: "not-found"} }

// DecodeBody decodes a JSON request body of at most 4 MiB into v; a
// longer body is refused with a 400 naming the limit rather than with
// unbounded allocation or a misleading syntax error.
func DecodeBody(r *http.Request, v any) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return fault.IOf("read body: %v", err)
	}
	if len(body) > maxBodyBytes {
		return fault.Invalidf("request body exceeds %d bytes", maxBodyBytes)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fault.Invalidf("bad request body: %v", err)
	}
	return nil
}

// routes registers all endpoints. The guarded ones carry a brownout
// class: explain and solve are certificate-heavy and shed first,
// relation reads second, writes last.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/assert", s.guarded(classWrite, s.handleAssert))
	s.mux.HandleFunc("GET /v1/relation", s.guarded(classRead, s.handleRelation))
	s.mux.HandleFunc("GET /v1/explain", s.guarded(classHeavy, s.handleExplain))
	s.mux.HandleFunc("POST /v1/batch/assert", s.guarded(classWrite, s.handleBatchAssert))
	s.mux.HandleFunc("POST /v1/solve", s.guarded(classHeavy, s.handleSolve))
	s.mux.HandleFunc("GET /healthz", s.handleHealth) // never shed: probes must work under load
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	// Replication bypasses admission control: shedding the primary's
	// stream under client load would turn an overload into divergence
	// between replicas' ack state and reality. The fence check is the
	// gate instead. The snapshot-transfer and resync endpoints are part
	// of the same machinery.
	s.mux.HandleFunc("POST "+replica.ReplicatePath, s.handleReplicate)
	s.mux.HandleFunc("GET "+replica.SnapshotPath, s.handleSnapshot)
	s.mux.HandleFunc("POST /v1/resync", s.handleResync)
	s.mux.HandleFunc("POST /v1/promote", s.handlePromote)
	// 2PC participant endpoints bypass admission like replication: a
	// coordinator's vote round must not be shed under client load, or
	// cross-shard unions starve exactly when the system is busy.
	s.mux.HandleFunc("POST "+PreparePath, s.handlePrepare)
	s.mux.HandleFunc("POST "+AbortPath, s.handleAbort2PC)
	// Migration participant endpoints bypass admission for the same
	// reason: shedding a freeze, slice window, or completion under
	// client load would wedge a rebalance exactly when it matters.
	s.mux.HandleFunc("POST "+FreezePath, s.handleMigrateFreeze)
	s.mux.HandleFunc("POST "+ReleasePath, s.handleMigrateRelease)
	s.mux.HandleFunc("POST "+CompletePath, s.handleMigrateComplete)
	s.mux.HandleFunc("GET "+SlicePath, s.handleMigrateSlice)
}

// AssertRequest is the /v1/assert request body: assert m - n = label.
type AssertRequest struct {
	N      string `json:"n"`
	M      string `json:"m"`
	Label  int64  `json:"label"`
	Reason string `json:"reason,omitempty"`
}

// AssertResponse is the /v1/assert success body.
type AssertResponse struct {
	OK bool `json:"ok"`
	// Durable reports whether the assert was fsynced to the journal
	// (always false for in-memory servers).
	Durable bool `json:"durable"`
	// Seq is the journal sequence number covering the assert (0 for
	// in-memory servers).
	Seq uint64 `json:"seq,omitempty"`
}

func (s *Server) handleAssert(w http.ResponseWriter, r *http.Request) {
	var req AssertRequest
	if !s.writeRequest(w, r, &req) {
		return
	}
	res, seq, err := s.write(r.Context(), []AssertRequest{req})
	if err == nil {
		err = res[0].Err
	}
	if err != nil {
		WriteError(w, err)
		return
	}
	if !res[0].OK {
		err := fault.Conflictf("assert %s -(%d)-> %s contradicts the existing relation", req.N, req.Label, req.M)
		WriteError(w, newConflict(s.st().journal, err, req.N, req.M, req.Label, req.Reason))
		return
	}
	s.stampDurable(w)
	WriteJSON(w, http.StatusOK, AssertResponse{OK: true, Durable: s.st().store != nil, Seq: seq})
}

// markerNamespace opens the synthetic node names of the fence markers
// (MovedMarkerNode, LiftMarkerNode).
const markerNamespace = "xmigrate:"

// invalidItem says why a client may not write a, or returns "": both
// nodes are required, and no item may forge a fence marker, by a
// marker reason prefix or a node in the markers' namespace. Only the
// server writes markers, and restoreFences trusts every one it
// replays.
func invalidItem(a AssertRequest) string {
	switch {
	case a.N == "" || a.M == "":
		return "both nodes are required"
	case strings.HasPrefix(a.Reason, MovedMarkerPrefix), strings.HasPrefix(a.Reason, LiftMarkerPrefix):
		return fmt.Sprintf("reason %q starts with a reserved fence-marker prefix", a.Reason)
	case strings.HasPrefix(a.N, markerNamespace), strings.HasPrefix(a.M, markerNamespace):
		return fmt.Sprintf("node names starting with %q are reserved for fence markers", markerNamespace)
	}
	return ""
}

// write is the primary's one write path, behind /v1/assert and
// /v1/batch/assert. In order, it:
//
//  1. validates every item before any side effect;
//  2. gates each item (gateWrite), turning each moved-fence the gate
//     lifts into a lift-marker entry ahead of the items;
//  3. applies the items with one AssertBatch;
//  4. commits the markers and the accepted items: one Commit (one
//     fsync) and one replication wait;
//  5. releases the prepare window of every accepted bridge edge.
//
// A fence lifted in memory is in the journal before write returns,
// also when the gate refuses a later item. It returns one result per
// item and the sequence number covering the last journaled entry.
func (s *Server) write(ctx context.Context, items []AssertRequest) ([]concurrent.AssertResult, uint64, error) {
	ops := make([]concurrent.Assert[string, int64], len(items))
	for i, a := range items {
		if why := invalidItem(a); why != "" {
			if len(items) > 1 {
				why = fmt.Sprintf("assert %d: %s", i, why)
			}
			return nil, 0, fault.Invalidf("%s", why)
		}
		ops[i] = concurrent.Assert[string, int64](a)
	}
	var es []cert.Entry[string, int64]
	for _, a := range items {
		lifted, err := s.gateWrite(a.N, a.M, a.Reason)
		if err != nil {
			// Fences that earlier items lifted are live: journal them
			// before the refusal.
			if _, cerr := s.commit(ctx, es...); cerr != nil {
				err = cerr
			}
			return nil, 0, err
		}
		es = s.liftMarkers(es, a.Reason, lifted)
	}
	results := s.st().uf.AssertBatch(ops, concurrent.BatchOptions{
		Limits: fault.Limits{MaxSteps: requestSteps(ctx, s.stepBudget), Ctx: ctx},
	})
	for i, res := range results {
		if res.OK {
			es = append(es, cert.Entry[string, int64](ops[i]))
		}
	}
	seq, err := s.commit(ctx, es...)
	if err != nil {
		return nil, 0, err
	}
	for i, res := range results {
		if id, _, tagged := ParseIntentTag(items[i].Reason); tagged && res.OK {
			// The decided bridge edge is applied and durable: the
			// prepare window it was protecting is over.
			s.releaseWindow(windowKey{kind: windowPrepare, id: id})
		}
	}
	return results, seq, nil
}

// RelationResponse is the /v1/relation success body.
type RelationResponse struct {
	Related bool  `json:"related"`
	Label   int64 `json:"label,omitempty"`
}

func (s *Server) handleRelation(w http.ResponseWriter, r *http.Request) {
	if err := s.healthyState(); err != nil {
		// A quarantined or stuck node must not serve answers from state
		// it knows is damaged; refusing reads is the degradation the
		// resync attempt cap promises.
		WriteError(w, err)
		return
	}
	if !s.coverSession(w, r) {
		return
	}
	n, m := r.URL.Query().Get("n"), r.URL.Query().Get("m")
	if n == "" || m == "" {
		WriteError(w, fault.Invalidf("query parameters n and m are required"))
		return
	}
	l, ok := s.st().uf.GetRelation(n, m)
	s.stampDurable(w)
	if !ok {
		WriteJSON(w, http.StatusOK, RelationResponse{Related: false})
		return
	}
	WriteJSON(w, http.StatusOK, RelationResponse{Related: true, Label: l})
}

// ExplainResponse is the /v1/explain success body: a certificate the
// server has already re-verified with the independent checker before
// emitting. Its JSON is written by AppendJSON and read by DecodeJSON
// (explainjson.go), byte-identical to encoding/json.
type ExplainResponse struct {
	Cert cert.Certificate[string, int64] `json:"cert"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if err := s.healthyState(); err != nil {
		WriteError(w, err)
		return
	}
	if !s.coverSession(w, r) {
		return
	}
	n, m := r.URL.Query().Get("n"), r.URL.Query().Get("m")
	if n == "" || m == "" {
		WriteError(w, fault.Invalidf("query parameters n and m are required"))
		return
	}
	c, err := s.st().journal.Explain(n, m)
	if err != nil {
		WriteError(w, notFoundError(fmt.Sprintf("no derivation between %q and %q: %v", n, m, err)))
		return
	}
	s.injMu.Lock()
	sabotage := s.cfg.Inject.ObserveCert()
	s.injMu.Unlock()
	if sabotage {
		cert.Sabotage(&c, s.g)
	}
	// Self-verification: never emit a certificate the independent
	// checker rejects. A rejection here means a server bug (or an
	// injected sabotage) — surface it as a structured 500, not a bogus
	// proof.
	if err := cert.Check(c, s.g); err != nil {
		WriteError(w, fault.Invariantf("refusing to emit a certificate the checker rejects: %v", err))
		return
	}
	s.stampDurable(w)
	WriteJSON(w, http.StatusOK, ExplainResponse{Cert: c})
}

// BatchAssertRequest is the /v1/batch/assert request body.
type BatchAssertRequest struct {
	Asserts []AssertRequest `json:"asserts"`
}

// BatchAssertItem is one per-assert outcome in a batch response.
type BatchAssertItem struct {
	OK bool `json:"ok"`
	// Error carries the taxonomy kind when the item failed or was
	// skipped by budget exhaustion.
	Error string `json:"error,omitempty"`
}

// BatchAssertResponse is the /v1/batch/assert success body.
type BatchAssertResponse struct {
	Results []BatchAssertItem `json:"results"`
	// Durable reports whether the accepted asserts were fsynced.
	Durable bool `json:"durable"`
}

func (s *Server) handleBatchAssert(w http.ResponseWriter, r *http.Request) {
	var req BatchAssertRequest
	if !s.writeRequest(w, r, &req) {
		return
	}
	results, _, err := s.write(r.Context(), req.Asserts)
	if err != nil {
		WriteError(w, err)
		return
	}
	resp := BatchAssertResponse{Results: make([]BatchAssertItem, len(results)), Durable: s.st().store != nil}
	for i, res := range results {
		resp.Results[i] = BatchAssertItem{OK: res.OK}
		switch {
		case res.Err != nil:
			resp.Results[i].Error = fault.StopLabel(res.Err)
		case !res.OK:
			resp.Results[i].Error = "conflict"
		}
	}
	s.stampDurable(w)
	WriteJSON(w, http.StatusOK, resp)
}

// SolveRequest is the /v1/solve request body: a problem in the
// minisolve text format.
type SolveRequest struct {
	Name string `json:"name,omitempty"`
	Src  string `json:"src"`
}

// SolveResponse is the /v1/solve success body.
type SolveResponse struct {
	Verdict string `json:"verdict"`
	Winner  string `json:"winner"`
	Steps   int    `json:"steps"`
	// Stopped carries the taxonomy kind when the winning run stopped
	// early (budget, deadline, ...); empty for a completed run.
	Stopped string `json:"stopped,omitempty"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if err := s.breaker.Allow(); err != nil {
		WriteError(w, err)
		return
	}
	var req SolveRequest
	if err := DecodeBody(r, &req); err != nil {
		s.breaker.Record(true) // malformed input is the client's failure, not the solver's
		WriteError(w, err)
		return
	}
	name := req.Name
	if name == "" {
		name = "request"
	}
	// An empty problem is vacuously sat; answering that would mask a
	// client bug (wrong field name, empty body) as a real verdict.
	if strings.TrimSpace(req.Src) == "" {
		s.breaker.Record(true)
		WriteError(w, fault.Invalidf(`solve request has an empty "src" problem`))
		return
	}
	prob, err := solver.ParseProblem(name, req.Src)
	if err != nil {
		s.breaker.Record(true)
		WriteError(w, fault.Invalidf("parse problem: %v", err))
		return
	}
	p := concurrent.NewPortfolio()
	p.Opts = solver.Options{MaxSteps: s.cfg.SolveSteps, Certify: true}
	out := p.Solve(r.Context(), prob)
	s.breaker.Record(out.Decided)
	resp := SolveResponse{
		Verdict: out.Result.Verdict.String(),
		Winner:  out.Winner.String(),
		Steps:   out.Result.Steps,
	}
	if out.Result.Stop != nil {
		resp.Stopped = fault.StopLabel(out.Result.Stop)
	}
	WriteJSON(w, http.StatusOK, resp)
}

// HealthResponse is the /healthz body.
type HealthResponse struct {
	Status   string `json:"status"` // "ok", "degraded" (journal failed), "draining"
	Draining bool   `json:"draining"`
	Breaker  string `json:"breaker"`
	// Role is the node's current replication role.
	Role string `json:"role"`
	// JournalError is the sticky journal failure, if any.
	JournalError string `json:"journal_error,omitempty"`
	// Heal is the self-healing state when it is anything but healthy:
	// "quarantined", "resyncing", "catching-up" or "stuck".
	Heal string `json:"heal,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok", Draining: s.draining.Load(), Breaker: s.breaker.State(), Role: s.Role()}
	if resp.Draining {
		resp.Status = "draining"
	}
	st := s.st()
	if st.store != nil {
		if err := st.store.Err(); err != nil {
			resp.Status = "degraded"
			resp.JournalError = err.Error()
		}
	}
	if hs := s.HealStatus(); hs != nil && hs.State != replica.HealHealthy {
		resp.Heal = string(hs.State)
		// Catching-up keeps serving (the adopted state is certified and
		// complete up to the transfer point); the other states refuse.
		if hs.State != replica.HealCatchingUp {
			resp.Status = "healing"
		}
	}
	if err := s.integrityErr(); err != nil {
		resp.Status = "degraded"
		resp.JournalError = err.Error()
	}
	status := http.StatusOK
	if resp.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, resp)
}

// StatsResponse is the /v1/stats body.
type StatsResponse struct {
	UF         concurrent.Stats `json:"uf"`
	Assertions int              `json:"assertions"`
	Served     int64            `json:"served"`
	Shed       int64            `json:"shed"`
	// ShedByClass splits Shed by brownout class ("heavy", "read",
	// "write"): under sustained overload heavy counts grow first, write
	// counts last — the priority order made observable.
	ShedByClass map[string]int64 `json:"shed_by_class,omitempty"`
	// DeadlineRefused counts requests refused before admission because
	// their propagated X-Luf-Deadline budget could not cover even
	// MinDeadline — doomed work the server declined to start.
	DeadlineRefused int64 `json:"deadline_refused,omitempty"`
	// SessionWaits counts reads served after briefly waiting for this
	// node's durable state to catch up to the client's session token.
	SessionWaits int64 `json:"session_waits,omitempty"`
	// SessionRedirects counts reads 421-redirected because the session
	// token stayed uncovered past FollowerWaitMax.
	SessionRedirects int64  `json:"session_redirects,omitempty"`
	Breaker          string `json:"breaker"`
	Durable          bool   `json:"durable"`
	LastSeq          uint64 `json:"last_seq,omitempty"`
	SnapshotSeq      uint64 `json:"snapshot_seq,omitempty"`
	JournalSize      int64  `json:"journal_bytes,omitempty"`
	// Role is the node's current replication role.
	Role string `json:"role"`
	// Fence is the node's accepted fencing token (elections pick a
	// token above the cluster-wide maximum).
	Fence uint64 `json:"fence,omitempty"`
	// DurableSeq is the node's last fsynced sequence number (elections
	// promote the node with the highest).
	DurableSeq uint64 `json:"durable_seq,omitempty"`
	// Primary is the base URL of the node this one believes is primary.
	Primary string `json:"primary,omitempty"`
	// LeaseValid reports whether a replicating primary currently holds
	// its write lease.
	LeaseValid bool `json:"lease_valid,omitempty"`
	// Peers is each follower's replication status, on the primary. Each
	// entry carries the follower's acked durable watermark and its
	// current pipelined batch depth (in_flight).
	Peers map[string]replica.PeerStatus `json:"peers,omitempty"`
	// PipelineDepth is the configured per-peer replication pipeline
	// depth, on a shipping primary.
	PipelineDepth int `json:"pipeline_depth,omitempty"`
	// Heal is the self-healing state machine's status, on nodes with a
	// healer.
	Heal *replica.HealStatus `json:"heal,omitempty"`
	// Scrub is the background integrity scrubber's counters, on durable
	// nodes.
	Scrub *scrub.Stats `json:"scrub,omitempty"`
	// IntegrityError is the unrecoverable integrity failure pinning this
	// node in the degraded state, if any (primaries have no resync
	// source, so corruption there needs an operator).
	IntegrityError string `json:"integrity_error,omitempty"`
	// TwoPhase is the 2PC participant counter block, on nodes that have
	// taken part in cross-shard unions.
	TwoPhase *TwoPhaseStats `json:"two_phase,omitempty"`
	// Migration is the migration participant counter block, on nodes
	// that have held a freeze window or fence moved nodes.
	Migration *MigrationStats `json:"migration,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.st()
	resp := StatsResponse{
		UF:               st.uf.Stats(),
		Assertions:       st.journal.Len(),
		Served:           s.served.Load(),
		Shed:             s.shed.Load(),
		DeadlineRefused:  s.deadlineRefused.Load(),
		SessionWaits:     s.sessionWaits.Load(),
		SessionRedirects: s.sessionRedirects.Load(),
		Breaker:          s.breaker.State(),
		Durable:          st.store != nil,
		Role:             s.Role(),
	}
	for c := reqClass(0); c < numClasses; c++ {
		if n := s.classShed[c].Load(); n > 0 {
			if resp.ShedByClass == nil {
				resp.ShedByClass = make(map[string]int64, int(numClasses))
			}
			resp.ShedByClass[c.String()] = n
		}
	}
	if st.store != nil {
		resp.LastSeq = st.store.LastSeq()
		resp.SnapshotSeq = st.store.SnapshotSeq()
		resp.JournalSize = st.store.JournalSize()
		resp.Fence = st.store.Fence()
		resp.DurableSeq = st.store.DurableSeq()
	}
	resp.Heal = s.HealStatus()
	if s.scrubber != nil {
		sstats := s.scrubber.Stats()
		resp.Scrub = &sstats
	}
	if err := s.integrityErr(); err != nil {
		resp.IntegrityError = err.Error()
	}
	resp.TwoPhase, resp.Migration = s.windowStats()
	resp.Primary, _ = s.primaryHint.Load().(string)
	if s.lease != nil {
		resp.LeaseValid = s.lease.Valid()
	}
	s.repMu.Lock()
	sh := s.shipper
	s.repMu.Unlock()
	if sh != nil {
		resp.Peers = sh.Status()
		resp.PipelineDepth = sh.PipelineDepth()
	}
	WriteJSON(w, http.StatusOK, resp)
}
