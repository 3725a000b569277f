package server

import (
	"errors"
	"net/http"
	"strconv"

	"luf/internal/fault"
	"luf/internal/replica"
	"luf/internal/wal"
)

// handleReplicate is the follower half of log shipping: it verifies
// and applies one fence-stamped batch of journal frames, acknowledging
// with this node's durable sequence number. A batch carrying a newer
// fencing token than this node has accepted demotes a still-running
// primary — the new primary's stream is how a replaced one learns it
// was superseded. Stale tokens are refused with 403 and the accepted
// token in the X-Luf-Fence response header. A batch that diverges from
// this node's history quarantines the node (triggering self-healing
// when enabled); a successful apply on a catching-up node confirms it
// has rejoined the live stream and marks it healthy.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	st := s.st()
	if st.applier == nil {
		WriteError(w, fault.Invalidf("this node has no durable store and cannot accept replication"))
		return
	}
	if s.draining.Load() {
		WriteError(w, fault.Unavailablef("server is draining"))
		return
	}
	b, err := replica.ReadBatch(r.Header, r.Body)
	if err != nil {
		WriteError(w, err)
		return
	}
	// Learn the primary hint even from batches we are about to refuse:
	// a quarantined follower needs it to know where to pull the resync
	// snapshot from.
	if b.Primary != "" {
		s.primaryHint.Store(b.Primary)
	}
	if err := s.healthyState(); err != nil {
		WriteError(w, err)
		return
	}
	if b.Fence > st.store.Fence() && !s.follower.Load() {
		s.demote(b.Fence)
	}
	ack, err := st.applier.Apply(b)
	if err != nil {
		if errors.Is(err, fault.ErrFenced) {
			w.Header().Set(replica.HeaderFence, strconv.FormatUint(st.store.Fence(), 10))
		}
		if errors.Is(err, wal.ErrDivergence) {
			// The histories split. Refuse the batch with the typed
			// divergence detail and quarantine: a self-healing follower
			// wipes and resyncs, anything else degrades for the operator.
			s.quarantine(err)
		}
		WriteError(w, err)
		return
	}
	if s.healer != nil {
		// Applying live batches again is the definition of healed: the
		// resync'd store anchored into the primary's stream.
		s.healer.MarkHealthy()
	}
	WriteJSON(w, http.StatusOK, ack)
}

// handleSnapshot is the source half of certified resync: it answers
// with a chunk of this node's journal history as the same anchored,
// fence-stamped batch (body and headers) live replication posts, plus
// X-Luf-Last-Seq, so the pulling node decodes it with replica.ReadBatch
// and verifies and re-proves it with the same applier machinery. Only
// a healthy node serves snapshots — shipping suspect history would
// propagate exactly the damage resync exists to repair.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	st := s.st()
	if st.store == nil {
		WriteError(w, fault.Invalidf("this node has no durable store and cannot serve snapshots"))
		return
	}
	if s.draining.Load() {
		WriteError(w, fault.Unavailablef("server is draining"))
		return
	}
	if err := s.healthyState(); err != nil {
		WriteError(w, err)
		return
	}
	if err := replica.ServeSnapshot(w, r, st.store, s.cfg.Advertise); err != nil {
		WriteError(w, err)
	}
}

// ResyncRequest is the optional /v1/resync request body.
type ResyncRequest struct {
	// Source, when non-empty, is the base URL of the node to pull
	// certified state from — for the case where the stuck node never
	// learned a primary hint (e.g. it has been partitioned since boot)
	// and the operator knows better.
	Source string `json:"source,omitempty"`
}

// ResyncResponse is the /v1/resync success body.
type ResyncResponse struct {
	// State is the healer's state right after the forced kick
	// ("quarantined": the resync is queued).
	State replica.HealState `json:"state"`
	// Attempts is the attempt counter, reset to zero by the force.
	Attempts int `json:"attempts"`
}

// handleResync is the operator escape hatch for a stuck node: it
// forces a fresh self-healing episode (attempt counter reset)
// regardless of the current state. It also works on a healthy follower
// — a deliberate full resync, e.g. after replacing a disk.
func (s *Server) handleResync(w http.ResponseWriter, r *http.Request) {
	if s.healer == nil {
		WriteError(w, fault.Invalidf("self-healing is not enabled on this node"))
		return
	}
	if !s.follower.Load() {
		WriteError(w, fault.Invalidf("a primary cannot resync (it has no source of truth to pull from); demote it first"))
		return
	}
	if r.ContentLength != 0 {
		var req ResyncRequest
		if err := DecodeBody(r, &req); err != nil {
			WriteError(w, err)
			return
		}
		if req.Source != "" {
			s.primaryHint.Store(req.Source)
		}
	}
	// The store being replaced must stop accepting work before the wipe.
	if st := s.st(); st.store != nil {
		_ = st.store.Close()
	}
	hs := s.healer.ForceResync(errors.New("operator-forced resync via POST /v1/resync"))
	WriteJSON(w, http.StatusOK, ResyncResponse{State: hs.State, Attempts: hs.Attempts})
}

// PromoteRequest is the /v1/promote request body.
type PromoteRequest struct {
	// Fence is the new epoch's fencing token; it must exceed every
	// token this node has accepted (pick max cluster fence + 1).
	Fence uint64 `json:"fence"`
}

// PromoteResponse is the /v1/promote success body.
type PromoteResponse struct {
	// Role is the node's role after the promotion ("primary").
	Role string `json:"role"`
	// Fence is the now-durable fencing token.
	Fence uint64 `json:"fence"`
	// LastSeq is the promoted node's journal tail — the history it
	// serves as the new primary.
	LastSeq uint64 `json:"last_seq"`
}

// handlePromote turns this node into the primary under a fencing token
// that must exceed every token it has accepted; see Server.Promote.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	var req PromoteRequest
	if err := DecodeBody(r, &req); err != nil {
		WriteError(w, err)
		return
	}
	if req.Fence == 0 {
		WriteError(w, fault.Invalidf("a promotion needs a non-zero fencing token"))
		return
	}
	if err := s.Promote(req.Fence); err != nil {
		if errors.Is(err, fault.ErrFenced) && s.st().store != nil {
			w.Header().Set(replica.HeaderFence, strconv.FormatUint(s.st().store.Fence(), 10))
		}
		WriteError(w, err)
		return
	}
	st := s.st()
	WriteJSON(w, http.StatusOK, PromoteResponse{Role: s.Role(), Fence: st.store.Fence(), LastSeq: st.store.LastSeq()})
}
