package shard

import (
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
		server.WriteError(w, fault.Unavailablef("coordinator is down"))
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

// queryID parses the decimal operation id in query parameter name (the
// participants' status probes), writing the refusal when it cannot.
func (h *Handler) queryID(w http.ResponseWriter, r *http.Request, name string) (uint64, bool) {
	id, err := strconv.ParseUint(r.URL.Query().Get(name), 10, 64)
	if err != nil {
		server.WriteError(w, fault.Invalidf("query parameter %s must be a decimal %s id", name, name))
	}
	return id, err == nil
}

func (h *Handler) handleUnion(w http.ResponseWriter, r *http.Request) {
	var req UnionRequest
	if err := server.DecodeBody(r, &req); err != nil {
		server.WriteError(w, err)
		return
	}
	res, err := h.c.Union(r.Context(), req.N, req.M, req.Label, req.Reason)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, res)
}

func (h *Handler) handleRelation(w http.ResponseWriter, r *http.Request) {
	n, m := r.URL.Query().Get("n"), r.URL.Query().Get("m")
	if n == "" || m == "" {
		server.WriteError(w, fault.Invalidf("query parameters n and m are required"))
		return
	}
	label, ok, err := h.c.Relation(r.Context(), n, m)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, server.RelationResponse{Related: ok, Label: label})
}

func (h *Handler) handleExplain(w http.ResponseWriter, r *http.Request) {
	n, m := r.URL.Query().Get("n"), r.URL.Query().Get("m")
	if n == "" || m == "" {
		server.WriteError(w, fault.Invalidf("query parameters n and m are required"))
		return
	}
	crt, err := h.c.Explain(r.Context(), n, m)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, server.ExplainResponse{Cert: crt})
}

func (h *Handler) handleIntentStatus(w http.ResponseWriter, r *http.Request) {
	if id, ok := h.queryID(w, r, "intent"); ok {
		server.WriteJSON(w, http.StatusOK, h.c.IntentStatus(id))
	}
}

func (h *Handler) handleStats(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, h.c.StatsNow(r.Context(), 500*time.Millisecond))
}

func (h *Handler) handleMapView(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, h.c.MapView())
}

func (h *Handler) handleRebalanceStatus(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, h.c.RebalanceStatusNow())
}

func (h *Handler) handleMigrate(w http.ResponseWriter, r *http.Request) {
	var req MigrateRequest
	if err := server.DecodeBody(r, &req); err != nil {
		server.WriteError(w, err)
		return
	}
	res, err := h.c.Migrate(r.Context(), req.Class, req.To, req.Reason)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, res)
}

func (h *Handler) handleRebalanceAbort(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Migration uint64 `json:"migration"`
	}
	if err := server.DecodeBody(r, &req); err != nil {
		server.WriteError(w, err)
		return
	}
	res, err := h.c.RequestAbort(req.Migration)
	if err != nil {
		server.WriteError(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, res)
}

func (h *Handler) handleMigrationStatus(w http.ResponseWriter, r *http.Request) {
	if id, ok := h.queryID(w, r, "migration"); ok {
		server.WriteJSON(w, http.StatusOK, h.c.MigrationStatus(id))
	}
}

func (h *Handler) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{"ok": true, "epoch": h.c.Epoch()})
}
