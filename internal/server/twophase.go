package server

import (
	"net/http"

	"luf/internal/fault"
)

// Two-phase participant support: a shard-group primary votes on
// cross-shard union intents (POST /v1/2pc/prepare), holds a short
// prepare window (a class window, see window.go) that keeps conflicting
// client writes out until the decision, and applies the coordinator's
// bridge edge through the normal assert path — recognizable by its
// intent-tagged reason, which also carries the coordinator epoch for
// fencing.
//
// The participant never blocks on the coordinator: a prepare window
// whose TTL lapses re-probes the coordinator's /v1/2pc/status with
// backoff (crash recovery from the participant's side) and presumes
// abort when the coordinator stays unreachable or has forgotten the
// intent.

// Intent-tag plumbing shared by the coordinator, the participant gate
// and the bridge-edge reasons certificates carry.
const (
	// IntentTagPrefix opens every bridge-edge reason: the intent seq and
	// coordinator epoch ride inside the reason, so the journal itself
	// records which 2PC round produced the edge.
	IntentTagPrefix = "xshard#"
	// PreparePath is the participant's 2PC vote endpoint.
	PreparePath = "/v1/2pc/prepare"
	// AbortPath is the participant's 2PC abort endpoint (also the
	// operator escape hatch for a reservation stuck behind a dead
	// coordinator).
	AbortPath = "/v1/2pc/abort"
	// StatusPath is the coordinator's intent-status endpoint participants
	// re-probe after a reservation TTL lapses.
	StatusPath = "/v1/2pc/status"
)

// FormatIntentTag renders the bridge-edge reason tag for intent id
// under the given coordinator epoch.
func FormatIntentTag(id, epoch uint64) string { return formatTag(IntentTagPrefix, id, epoch) }

// ParseIntentTag extracts the intent id and coordinator epoch from a
// reason string starting with an intent tag; ok is false for untagged
// reasons.
func ParseIntentTag(reason string) (id, epoch uint64, ok bool) {
	return parseTag(IntentTagPrefix, reason)
}

// PrepareRequest is the /v1/2pc/prepare body: the coordinator asks this
// shard group to vote on asserting the bridge edge n --label--> m for
// the given intent.
type PrepareRequest struct {
	// Intent is the coordinator's durable intent sequence number.
	Intent uint64 `json:"intent"`
	// Epoch is the coordinator's fencing epoch; participants reject
	// prepares from epochs below the highest they have seen.
	Epoch uint64 `json:"epoch"`
	// Coordinator is the coordinator's base URL, which the participant
	// re-probes when the reservation TTL lapses.
	Coordinator string `json:"coordinator"`
	// N and M are the bridge edge's endpoints; Label its relation.
	N     string `json:"n"`
	M     string `json:"m"`
	Label int64  `json:"label"`
	// TTLMillis bounds the reservation before the participant starts
	// re-probing the coordinator; <= 0 means 1000.
	TTLMillis int64 `json:"ttl_ms,omitempty"`
}

// PrepareResponse is the /v1/2pc/prepare success body: a yes vote.
type PrepareResponse struct {
	OK bool `json:"ok"`
	// Fence is this node's accepted replication fencing token, for the
	// coordinator's records.
	Fence uint64 `json:"fence,omitempty"`
}

// AbortRequest is the /v1/2pc/abort body: release the reservation for
// an intent the coordinator decided to abort (or that an operator is
// clearing by hand).
type AbortRequest struct {
	Intent uint64 `json:"intent"`
	Epoch  uint64 `json:"epoch,omitempty"`
}

// AbortResponse is the /v1/2pc/abort success body.
type AbortResponse struct {
	OK bool `json:"ok"`
	// Released reports whether a reservation was actually held.
	Released bool `json:"released"`
}

// IntentStatusResponse is the coordinator's /v1/2pc/status body: the
// folded state of one intent. Unknown intents report "aborted" — the
// coordinator's log is never trimmed, so an id it has no record of was
// never durably begun and is presumed aborted.
type IntentStatusResponse struct {
	Intent uint64 `json:"intent"`
	State  string `json:"state"`
	Epoch  uint64 `json:"epoch"`
}

// TwoPhaseStats is the participant-side 2PC counter block in /v1/stats.
type TwoPhaseStats struct {
	// Reserved is the number of reservations currently held.
	Reserved int `json:"reserved"`
	// Prepared counts yes votes this process returned.
	Prepared int64 `json:"prepared"`
	// Aborted counts reservations released by an abort message.
	Aborted int64 `json:"aborted"`
	// Expired counts reservations dropped after probing presumed abort.
	Expired int64 `json:"expired"`
	// Fenced counts stale-epoch prepares and bridge asserts rejected.
	Fenced int64 `json:"fenced"`
	// MaxEpoch is the highest coordinator epoch this node has seen.
	MaxEpoch uint64 `json:"max_epoch,omitempty"`
}

// handlePrepare votes on a cross-shard union intent. Only a writable
// primary votes (followers 421 toward the primary); a stale coordinator
// epoch is fenced with 403; a conflicting existing relation votes no
// with 409 plus the machine-checkable conflict certificate. A yes vote
// registers the prepare-window reservation and starts the TTL probe.
func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req PrepareRequest
	if !s.windowRequest(w, r, &req) {
		return
	}
	if req.Intent == 0 || req.N == "" || req.M == "" {
		WriteError(w, fault.Invalidf("prepare requires intent, n and m"))
		return
	}
	if err := s.fence(windowPrepare, req.Epoch, "prepare", req.Intent); err != nil {
		WriteError(w, err)
		return
	}

	// Dry-run conflict check: the vote is a promise that the bridge
	// edge can be applied, so an existing contradicting relation is a
	// no vote carrying the UNSAT core.
	st := s.st()
	if l, ok := st.uf.GetRelation(req.N, req.M); ok && l != req.Label {
		err := fault.Conflictf("bridge %s -(%d)-> %s contradicts the existing relation (label %d)", req.N, req.Label, req.M, l)
		WriteError(w, newConflict(st.journal, err, req.N, req.M, req.Label, FormatIntentTag(req.Intent, req.Epoch)))
		return
	}
	// A class inside a migration freeze window votes no with a
	// retryable 503: the bridge edge would race the ownership flip.
	win := newWindow(windowPrepare, req.Intent, req.Coordinator, req.TTLMillis, req.N, req.M)
	if err := s.installWindow(win); err != nil {
		WriteError(w, err)
		return
	}
	s.ctlMu.Lock()
	s.prepared++
	s.ctlMu.Unlock()
	go s.probe(win)

	resp := PrepareResponse{OK: true}
	if st.store != nil {
		resp.Fence = st.store.Fence()
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleAbort2PC releases a reservation. The coordinator calls it on
// decided aborts; an operator calls it by hand to free a write path
// stuck behind a coordinator that will never come back (see
// OPERATIONS.md).
func (s *Server) handleAbort2PC(w http.ResponseWriter, r *http.Request) {
	var req AbortRequest
	if err := DecodeBody(r, &req); err != nil {
		WriteError(w, err)
		return
	}
	if req.Intent == 0 {
		WriteError(w, fault.Invalidf("abort requires an intent id"))
		return
	}
	released := s.releaseWindow(windowKey{kind: windowPrepare, id: req.Intent})
	if released {
		s.ctlMu.Lock()
		s.aborted++
		s.ctlMu.Unlock()
	}
	WriteJSON(w, http.StatusOK, AbortResponse{OK: true, Released: released})
}
