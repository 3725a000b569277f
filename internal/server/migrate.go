package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"luf/internal/cert"
	"luf/internal/fault"
	"luf/internal/wal"
)

// Migration participant support: a shard-group primary serves as the
// *source* of a class-ownership migration (freeze window, certified
// journal-slice windows served as wal frames, post-flip stale-write
// fencing) and as the *destination* (each window arrives as one batch
// assert with migration-tagged reasons, applied with one fsync, so
// every adopted record is re-proved exactly like any other write —
// trust is re-derived, never copied).
//
// Pre-decision, the source never blocks on the coordinator: a freeze
// window whose TTL lapses re-probes the coordinator's
// /v1/rebalance/status with backoff and presumes abort (thaws) when
// the coordinator stays unreachable or has forgotten the migration.
// Once a probe observes the flip the decision is durable, and the
// source must not unilaterally thaw: it installs a provisional
// moved-fence from the probe's flip material (or holds the window and
// keeps probing until the redriven complete lands). The post-flip fence is
// durable: completing a migration journals a marker entry between two
// synthetic namespaced nodes whose reason carries the moved node list,
// so a restarted source re-fences stale writers from its own journal
// (the same recovered-from-durable-history discipline as the 2PC
// epoch).

// Migration-tag plumbing shared by the coordinator, the participant
// gate and the copy-stream reasons certificates carry.
const (
	// MigrateTagPrefix opens every copy-stream reason: the migration id
	// and coordinator epoch ride inside the reason, so the destination's
	// journal itself records which migration adopted each record.
	MigrateTagPrefix = "xmigrate#"
	// MovedMarkerPrefix opens the reason of the durable post-flip fence
	// marker the source journals on completion.
	MovedMarkerPrefix = "xmigrate-moved "
	// MovedMarkerNode is the synthetic node-name prefix the fence marker
	// entries relate; it namespaces them away from client classes.
	MovedMarkerNode = markerNamespace + "moved:"
	// LiftMarkerPrefix opens the reason of the durable fence-lift marker
	// a destination journals when a copy-stream assert lifts a moved
	// fence (the class is migrating back here). The copy entry itself is
	// usually a redundant re-assert the wal dedups away, so the lift
	// needs its own journal trace or a restart would re-fence the class.
	LiftMarkerPrefix = "xmigrate-lifted "
	// LiftMarkerNode is the synthetic node-name prefix lift marker
	// entries relate.
	LiftMarkerNode = markerNamespace + "lift:"
	// FreezePath is the source owner's freeze-window endpoint.
	FreezePath = "/v1/migrate/freeze"
	// ReleasePath is the source owner's thaw endpoint (also the operator
	// escape hatch for a freeze stuck behind a dead coordinator).
	ReleasePath = "/v1/migrate/release"
	// CompletePath is the source owner's post-flip endpoint: install the
	// durable stale-write fence and release the freeze.
	CompletePath = "/v1/migrate/complete"
	// SlicePath is the source owner's certified journal-slice endpoint.
	SlicePath = "/v1/migrate/slice"
	// MigrateStatusPath is the coordinator's migration-status endpoint
	// participants re-probe after a freeze TTL lapses.
	MigrateStatusPath = "/v1/rebalance/status"
)

// FormatMigrateTag renders the copy-stream reason tag for migration id
// under the given coordinator epoch.
func FormatMigrateTag(id, epoch uint64) string { return formatTag(MigrateTagPrefix, id, epoch) }

// ParseMigrateTag extracts the migration id and coordinator epoch from
// a reason string starting with a migration tag; ok is false for
// untagged reasons.
func ParseMigrateTag(reason string) (id, epoch uint64, ok bool) {
	return parseTag(MigrateTagPrefix, reason)
}

// movedMarker is the JSON body of a durable post-flip fence marker's
// reason (after MovedMarkerPrefix).
type movedMarker struct {
	Migration uint64   `json:"migration"`
	Epoch     uint64   `json:"epoch"`
	MapEpoch  uint64   `json:"map_epoch"`
	To        string   `json:"to"`
	Nodes     []string `json:"nodes"`
}

// MigratedError is the structured refusal for a write addressing a
// node whose class ownership migrated away: a 403 fence carrying the
// new owner group and the map epoch that moved it, so a stale client
// can re-route instead of retrying blindly.
type MigratedError struct {
	// Node is the refused endpoint.
	Node string
	// Group names the new owner shard group.
	Group string
	// MapEpoch is the shard-map epoch of the flip that moved the class.
	MapEpoch uint64
}

// Error renders the refusal.
func (e *MigratedError) Error() string {
	return fmt.Sprintf("node %q migrated to shard group %q at map epoch %d; refresh the shard map", e.Node, e.Group, e.MapEpoch)
}

// Unwrap classifies the refusal as a fencing fault (HTTP 403).
func (e *MigratedError) Unwrap() error { return fault.ErrFenced }

// liftMarker is the JSON body of a durable fence-lift marker's reason
// (after LiftMarkerPrefix).
type liftMarker struct {
	Migration uint64 `json:"migration"`
	Epoch     uint64 `json:"epoch"`
	Node      string `json:"node"`
}

// migMoved records where a migrated node's class went.
type migMoved struct {
	group    string
	mapEpoch uint64
	// durable reports the fence is backed by a journaled marker entry.
	// A provisional fence installed from a flipped status probe is not:
	// the redriven complete must still journal its marker, or a restart
	// would forget the fence.
	durable bool
}

// MigrateFreezeRequest is the /v1/migrate/freeze body: the coordinator
// reserves a freeze window for the class of the given representative.
type MigrateFreezeRequest struct {
	// Migration is the coordinator's durable migration sequence number.
	Migration uint64 `json:"migration"`
	// Epoch is the coordinator's migration fencing epoch; participants
	// reject freezes from epochs below the highest they have seen.
	Epoch uint64 `json:"epoch"`
	// Coordinator is the coordinator's base URL, re-probed when the
	// freeze TTL lapses.
	Coordinator string `json:"coordinator"`
	// Class is the migrating class's representative node.
	Class string `json:"class"`
	// TTLMillis bounds the freeze before the participant starts
	// re-probing the coordinator; <= 0 means 1000.
	TTLMillis int64 `json:"ttl_ms,omitempty"`
}

// MigrateFreezeResponse is the /v1/migrate/freeze success body.
type MigrateFreezeResponse struct {
	OK bool `json:"ok"`
}

// MigrateReleaseRequest is the /v1/migrate/release body.
type MigrateReleaseRequest struct {
	Migration uint64 `json:"migration"`
	Epoch     uint64 `json:"epoch,omitempty"`
}

// MigrateReleaseResponse is the /v1/migrate/release success body.
type MigrateReleaseResponse struct {
	OK bool `json:"ok"`
	// Released reports whether a freeze was actually held.
	Released bool `json:"released"`
}

// MigrateCompleteRequest is the /v1/migrate/complete body: the flip is
// durable on the coordinator; install the stale-write fence for the
// moved nodes and release the freeze.
type MigrateCompleteRequest struct {
	Migration uint64 `json:"migration"`
	Epoch     uint64 `json:"epoch"`
	// MapEpoch is the shard-map epoch the flip established.
	MapEpoch uint64 `json:"map_epoch"`
	// To names the new owner group.
	To string `json:"to"`
	// Nodes are the moved class members to fence.
	Nodes []string `json:"nodes"`
}

// MigrateCompleteResponse is the /v1/migrate/complete success body.
type MigrateCompleteResponse struct {
	OK bool `json:"ok"`
	// Durable reports whether the fence marker was journaled (false on
	// in-memory servers, whose fences do not survive a restart).
	Durable bool `json:"durable"`
}

// MigrateSliceResponse is the /v1/migrate/slice success body: one
// window of the class's certified journal slice.
type MigrateSliceResponse struct {
	// Frames holds the window's records as journal frames
	// (wal.EncodeFrames), in sequence order. Each frame carries its own
	// CRC-32C, so a transport-corrupted window is refused at decode,
	// before any re-prove work.
	Frames []byte `json:"frames"`
	// Total is the slice's total record count (for cursor termination).
	Total int `json:"total"`
}

// MigrationStatusResponse is the coordinator's /v1/rebalance/status
// body: the folded state of one migration. Unknown migrations report
// "aborted" — the coordinator's log is never trimmed, so an id it has
// no record of was never durably begun and is presumed aborted.
type MigrationStatusResponse struct {
	Migration uint64 `json:"migration"`
	State     string `json:"state"`
	Epoch     uint64 `json:"epoch"`
	// To, MapEpoch and Nodes carry the flip decision for "flipped"
	// migrations: the new owner group, the map epoch that moved the
	// class, and the moved member list. A probing source uses them to
	// install a provisional moved-fence and thaw instead of holding its
	// freeze window for as long as the completion takes to redrive.
	To       string   `json:"to,omitempty"`
	MapEpoch uint64   `json:"map_epoch,omitempty"`
	Nodes    []string `json:"nodes,omitempty"`
}

// MigrationStats is the participant-side migration counter block in
// /v1/stats.
type MigrationStats struct {
	// Frozen is the number of freeze windows currently held.
	Frozen int `json:"frozen"`
	// Migrated is the number of nodes fenced as moved away.
	Migrated int `json:"migrated"`
	// Stalled counts client writes 503-stalled by a freeze window.
	Stalled int64 `json:"stalled"`
	// Fenced counts stale-map writes 403-refused post-flip plus
	// stale-epoch migration traffic rejected.
	Fenced int64 `json:"fenced"`
	// Expired counts freezes dropped after probing presumed abort.
	Expired int64 `json:"expired"`
	// MaxEpoch is the highest migration-coordinator epoch seen.
	MaxEpoch uint64 `json:"max_epoch,omitempty"`
}

// liftMarkers appends to es a durable trace of the fences the gate
// lifted for a copy-stream assert with the given reason: one lift
// marker per node, its synthetic node name keyed by migration, epoch
// and node so the wal's idempotent dedup cannot swallow a later
// migration's lift of the same node. Restore replays these in journal
// order against the moved markers, so a class that migrated away and
// back survives a restart writable.
func (s *Server) liftMarkers(es []cert.Entry[string, int64], reason string, lifted []string) []cert.Entry[string, int64] {
	id, epoch, _ := ParseMigrateTag(reason)
	for _, n := range lifted {
		mn := fmt.Sprintf("%s%d@e%d:%s", LiftMarkerNode, id, epoch, n)
		es = s.addMarker(es, mn, LiftMarkerPrefix, liftMarker{Migration: id, Epoch: epoch, Node: n})
	}
	return es
}

// addMarker applies a fence marker to the union-find and appends its
// journal entry to es, for commit: a fresh, trivially consistent
// relation between the synthetic node mn and its twin mn+":b", whose
// reason is prefix plus body's JSON — re-proved on replay like any
// other entry, and scanned by restoreFences on open. Markers exist to
// survive a restart, so an in-memory server adds none.
func (s *Server) addMarker(es []cert.Entry[string, int64], mn, prefix string, body any) []cert.Entry[string, int64] {
	st := s.st()
	if st.store == nil {
		return es
	}
	js, _ := json.Marshal(body) // marker bodies hold only strings and integers
	e := cert.Entry[string, int64]{N: mn, M: mn + ":b", Reason: prefix + string(js)}
	if !st.uf.AddRelationReason(e.N, e.M, 0, e.Reason) {
		return es
	}
	return append(es, e)
}

// installMovedFence records where a class's nodes migrated to, keeping
// the freshest map epoch per node. Shared by the durable complete path
// and the provisional probe path (a source that learned the flip from
// a status probe while the completion is still being redriven). A
// durable install upgrades a same-epoch provisional fence; a
// provisional install never downgrades a durable one.
func (s *Server) installMovedFence(to string, mapEpoch uint64, nodes []string, durable bool) {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	for _, n := range nodes {
		cur, ok := s.moved[n]
		if ok && (cur.mapEpoch > mapEpoch || (cur.mapEpoch == mapEpoch && cur.durable)) {
			continue
		}
		s.moved[n] = migMoved{group: to, mapEpoch: mapEpoch, durable: durable}
	}
}

// handleMigrateFreeze reserves a freeze window: writes to the class
// stall (503+Retry-After) while reads keep serving. Only a writable
// primary freezes; a stale coordinator epoch is fenced with 403. The
// freeze starts the TTL probe loop so an orphaned window thaws itself.
func (s *Server) handleMigrateFreeze(w http.ResponseWriter, r *http.Request) {
	var req MigrateFreezeRequest
	if !s.windowRequest(w, r, &req) {
		return
	}
	if req.Migration == 0 || req.Class == "" {
		WriteError(w, fault.Invalidf("freeze requires migration and class"))
		return
	}
	if err := s.fence(windowFreeze, req.Epoch, "freeze", req.Migration); err != nil {
		WriteError(w, err)
		return
	}
	// A held prepare window over the class refuses the freeze with a
	// retryable 503: the two windows never coexist, so a committed
	// bridge edge cannot chase a class that flips away between its
	// prepare vote and its apply.
	win := newWindow(windowFreeze, req.Migration, req.Coordinator, req.TTLMillis, req.Class)
	if err := s.installWindow(win); err != nil {
		WriteError(w, err)
		return
	}
	go s.probe(win)
	WriteJSON(w, http.StatusOK, MigrateFreezeResponse{OK: true})
}

// handleMigrateRelease thaws a freeze window. The coordinator calls it
// on aborts; an operator calls it by hand to free a class stuck behind
// a coordinator that will never come back (see OPERATIONS.md).
func (s *Server) handleMigrateRelease(w http.ResponseWriter, r *http.Request) {
	var req MigrateReleaseRequest
	if err := DecodeBody(r, &req); err != nil {
		WriteError(w, err)
		return
	}
	if req.Migration == 0 {
		WriteError(w, fault.Invalidf("release requires a migration id"))
		return
	}
	released := s.releaseWindow(windowKey{kind: windowFreeze, id: req.Migration})
	WriteJSON(w, http.StatusOK, MigrateReleaseResponse{OK: true, Released: released})
}

// handleMigrateComplete installs the post-flip stale-write fence: the
// moved nodes 403 ordinary writes from now on (with the new-owner
// hint), durably — the fence marker is journaled so a restart
// re-installs it — and the freeze window is released. Idempotent: the
// coordinator redrives it until acknowledged.
func (s *Server) handleMigrateComplete(w http.ResponseWriter, r *http.Request) {
	var req MigrateCompleteRequest
	if !s.writeRequest(w, r, &req) {
		return
	}
	if req.Migration == 0 || req.To == "" || len(req.Nodes) == 0 {
		WriteError(w, fault.Invalidf("complete requires migration, to and nodes"))
		return
	}
	s.ctlMu.Lock()
	if err := s.fenceLocked(windowFreeze, req.Epoch, "complete", req.Migration); err != nil {
		s.ctlMu.Unlock()
		WriteError(w, err)
		return
	}
	already := true
	for _, n := range req.Nodes {
		// A provisional fence from a flipped status probe does not count:
		// the marker must still reach the journal to survive a restart.
		if mv, ok := s.moved[n]; !ok || mv.mapEpoch < req.MapEpoch || !mv.durable {
			already = false
		}
	}
	s.ctlMu.Unlock()

	var es []cert.Entry[string, int64]
	if !already {
		// The marker's reason carries the moved node list.
		mn := fmt.Sprintf("%s%d@e%d", MovedMarkerNode, req.Migration, req.Epoch)
		es = s.addMarker(es, mn, MovedMarkerPrefix, movedMarker{
			Migration: req.Migration, Epoch: req.Epoch, MapEpoch: req.MapEpoch,
			To: req.To, Nodes: req.Nodes,
		})
	}
	if _, err := s.commit(r.Context(), es...); err != nil {
		WriteError(w, err)
		return
	}
	durable := s.st().store != nil
	s.installMovedFence(req.To, req.MapEpoch, req.Nodes, durable)
	s.releaseWindow(windowKey{kind: windowFreeze, id: req.Migration})
	WriteJSON(w, http.StatusOK, MigrateCompleteResponse{OK: true, Durable: durable})
}

// handleMigrateSlice serves one window of a class's certified journal
// slice: the records whose endpoints are in the class, in sequence
// order, from the cursor (after = records already taken) on, as wal
// frames. Read-only — it serves during the freeze, so the copy proceeds
// while writes stall. Requires a durable store: an in-memory source has
// no journal to certify a migration from.
func (s *Server) handleMigrateSlice(w http.ResponseWriter, r *http.Request) {
	if err := s.healthyState(); err != nil {
		WriteError(w, err)
		return
	}
	st := s.st()
	if st.store == nil {
		WriteError(w, fault.Unavailablef("journal-slice streaming requires a durable store"))
		return
	}
	q := r.URL.Query()
	class := q.Get("class")
	if class == "" {
		WriteError(w, fault.Invalidf("query parameter class is required"))
		return
	}
	after, limit := 0, 256
	if v := q.Get("after"); v != "" {
		var err error
		if after, err = strconv.Atoi(v); err != nil || after < 0 {
			WriteError(w, fault.Invalidf("bad after cursor %q", v))
			return
		}
	}
	if v := q.Get("limit"); v != "" {
		var err error
		if limit, err = strconv.Atoi(v); err != nil || limit <= 0 {
			WriteError(w, fault.Invalidf("bad limit %q", v))
			return
		}
	}
	var window []wal.SeqEntry[string, int64]
	total := 0
	for _, rec := range st.store.RecordsSince(0, 0) {
		if rec.Entry.N != class {
			if _, ok := st.uf.GetRelation(class, rec.Entry.N); !ok {
				continue
			}
		}
		total++
		if total > after && len(window) < limit {
			window = append(window, rec)
		}
	}
	WriteJSON(w, http.StatusOK, MigrateSliceResponse{Frames: wal.EncodeFrames(st.store.Codec(), window), Total: total})
}
