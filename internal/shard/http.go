package shard

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"luf/internal/fault"
	"luf/internal/server"
)

// UnionPath is the coordinator's cross-shard union endpoint.
const UnionPath = "/v1/shard/union"

// UnionRequest is the POST /v1/shard/union body.
type UnionRequest struct {
	N      string `json:"n"`
	M      string `json:"m"`
	Label  int64  `json:"label"`
	Reason string `json:"reason,omitempty"`
}

// Handler is the coordinator's HTTP front: cross-shard union, routed
// relation/explain, intent status for participant probes, stats and
// health. It deliberately reuses the server package's wire types so a
// failover-aware client talks to a coordinator and a group primary with
// the same vocabulary.
type Handler struct {
	c   *Coordinator
	mux *http.ServeMux

	srvMu sync.Mutex
	srv   *httptest.Server
}

// NewHandler builds the coordinator HTTP front.
func NewHandler(c *Coordinator) *Handler {
	h := &Handler{c: c, mux: http.NewServeMux()}
	h.mux.HandleFunc("POST "+UnionPath, h.handleUnion)
	h.mux.HandleFunc("GET /v1/relation", h.handleRelation)
	h.mux.HandleFunc("GET /v1/explain", h.handleExplain)
	h.mux.HandleFunc("GET "+server.StatusPath, h.handleIntentStatus)
	h.mux.HandleFunc("GET /v1/stats", h.handleStats)
	h.mux.HandleFunc("GET /healthz", h.handleHealthz)
	h.mux.HandleFunc("GET "+MapPath, h.handleMapView)
	h.mux.HandleFunc("GET "+RebalancePath, h.handleRebalanceStatus)
	h.mux.HandleFunc("POST "+RebalancePath, h.handleMigrate)
	h.mux.HandleFunc("POST "+RebalanceAbortPath, h.handleRebalanceAbort)
	h.mux.HandleFunc("GET "+server.MigrateStatusPath, h.handleMigrationStatus)
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.c.dead() {
		h.writeErr(w, fault.Unavailablef("coordinator is down"))
		return
	}
	h.mux.ServeHTTP(w, r)
}

// Start serves the handler on an ephemeral localhost port and returns
// its base URL (tests and single-process deployments).
func (h *Handler) Start() string {
	h.srvMu.Lock()
	defer h.srvMu.Unlock()
	if h.srv == nil {
		h.srv = httptest.NewServer(h)
	}
	return h.srv.URL
}

// Stop shuts the ephemeral listener down.
func (h *Handler) Stop() {
	h.srvMu.Lock()
	defer h.srvMu.Unlock()
	if h.srv != nil {
		h.srv.Close()
		h.srv = nil
	}
}

// statusOf maps a coordinator error onto an HTTP status, passing a
// participant's original status through unchanged when the error still
// carries one (so 409 conflict certificates survive the extra hop).
func statusOf(err error) int {
	var se StatusError
	if errors.As(err, &se) {
		return se.HTTPStatus()
	}
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
	}
	return http.StatusInternalServerError
}

// writeErr writes the structured error body, preserving a passed-
// through participant detail (conflict cert included) when present and
// stamping Retry-After on the shed statuses.
func (h *Handler) writeErr(w http.ResponseWriter, err error) {
	status := statusOf(err)
	detail := server.ErrorDetail{Kind: fault.StopLabel(err), Message: err.Error()}
	var se StatusError
	if errors.As(err, &se) {
		d := se.Detail()
		if d.Kind != "" {
			detail.Kind = d.Kind
		}
		detail.ConflictCert = d.ConflictCert
	}
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable || status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: detail})
}

func (h *Handler) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// readBody decodes a JSON request body (at most 1 MiB) into v, writing
// the structured refusal and reporting false when it cannot.
func (h *Handler) readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		h.writeErr(w, fault.IOf("read body: %v", err))
		return false
	}
	if err := json.Unmarshal(body, v); err != nil {
		h.writeErr(w, fault.Invalidf("bad request body: %v", err))
		return false
	}
	return true
}

// queryID parses the decimal operation id in query parameter name (the
// participants' status probes), writing the refusal when it cannot.
func (h *Handler) queryID(w http.ResponseWriter, r *http.Request, name string) (uint64, bool) {
	id, err := strconv.ParseUint(r.URL.Query().Get(name), 10, 64)
	if err != nil {
		h.writeErr(w, fault.Invalidf("query parameter %s must be a decimal %s id", name, name))
	}
	return id, err == nil
}

func (h *Handler) handleUnion(w http.ResponseWriter, r *http.Request) {
	var req UnionRequest
	if !h.readBody(w, r, &req) {
		return
	}
	res, err := h.c.Union(r.Context(), req.N, req.M, req.Label, req.Reason)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	h.writeJSON(w, res)
}

func (h *Handler) handleRelation(w http.ResponseWriter, r *http.Request) {
	n, m := r.URL.Query().Get("n"), r.URL.Query().Get("m")
	if n == "" || m == "" {
		h.writeErr(w, fault.Invalidf("query parameters n and m are required"))
		return
	}
	label, ok, err := h.c.Relation(r.Context(), n, m)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	h.writeJSON(w, server.RelationResponse{Related: ok, Label: label})
}

func (h *Handler) handleExplain(w http.ResponseWriter, r *http.Request) {
	n, m := r.URL.Query().Get("n"), r.URL.Query().Get("m")
	if n == "" || m == "" {
		h.writeErr(w, fault.Invalidf("query parameters n and m are required"))
		return
	}
	crt, err := h.c.Explain(r.Context(), n, m)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	h.writeJSON(w, server.ExplainResponse{Cert: server.ToWire(crt)})
}

func (h *Handler) handleIntentStatus(w http.ResponseWriter, r *http.Request) {
	if id, ok := h.queryID(w, r, "intent"); ok {
		h.writeJSON(w, h.c.IntentStatus(id))
	}
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	h.writeJSON(w, h.c.StatsNow(r.Context(), 500*time.Millisecond))
}

func (h *Handler) handleMapView(w http.ResponseWriter, _ *http.Request) {
	h.writeJSON(w, h.c.MapView())
}

func (h *Handler) handleRebalanceStatus(w http.ResponseWriter, _ *http.Request) {
	h.writeJSON(w, h.c.RebalanceStatusNow())
}

func (h *Handler) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req MigrateRequest
	if !h.readBody(w, r, &req) {
		return
	}
	res, err := h.c.Migrate(r.Context(), req.Class, req.To, req.Reason)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	h.writeJSON(w, res)
}

func (h *Handler) handleRebalanceAbort(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Migration uint64 `json:"migration"`
	}
	if !h.readBody(w, r, &req) {
		return
	}
	res, err := h.c.RequestAbort(req.Migration)
	if err != nil {
		h.writeErr(w, err)
		return
	}
	h.writeJSON(w, res)
}

func (h *Handler) handleMigrationStatus(w http.ResponseWriter, r *http.Request) {
	if id, ok := h.queryID(w, r, "migration"); ok {
		h.writeJSON(w, h.c.MigrationStatus(id))
	}
}

func (h *Handler) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h.writeJSON(w, map[string]any{"ok": true, "epoch": h.c.Epoch()})
}
