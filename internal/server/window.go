package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"luf/internal/cert"
	"luf/internal/concurrent"
	"luf/internal/fault"
)

// Class windows: a shard-group primary holds short windows over classes
// on behalf of a coordinator, of two kinds — a 2PC prepare reservation
// (twophase.go) from a yes vote until the decided bridge edge lands,
// and a migration freeze (migrate.go) from the freeze until the flip is
// completed or aborted. Both kinds live in one table under one mutex
// (Server.ctlMu), with the moved-node fences and each kind's
// coordinator fencing epoch:
//
//   - installing a window checks the table for a window of the other
//     kind over an overlapping class and inserts in the same critical
//     section, so a prepare window and a freeze window can never
//     coexist over one class, by construction;
//   - the write gate (gateWrite) reads the whole table once per assert;
//   - a window whose TTL lapses runs one probe loop, which re-asks the
//     coordinator's status endpoint with backoff and lets the kind's
//     verdict hold the window (within a probe budget), release it
//     (presumed abort), or turn it into a provisional moved-fence (a
//     flipped migration). The participant never blocks on the
//     coordinator, and never thaws past a durable flip.
//
// The two kinds keep separate coordinator epochs: they are fenced by
// two coordinator logs (intents.luf and migrations.luf), each bumping
// its own epoch on open.

// windowKind names a class window's protocol.
type windowKind uint8

const (
	// windowPrepare is a 2PC prepare reservation: it covers its bridge
	// edge's endpoints and 503s every untagged write while held.
	windowPrepare windowKind = iota
	// windowFreeze is a migration freeze: it covers the migrating class
	// and 503s writes to that class while held.
	windowFreeze
)

// noun names the coordinator operation behind a window kind; it is also
// the id parameter of that kind's status endpoint (?intent=, ?migration=).
func (k windowKind) noun() string {
	if k == windowFreeze {
		return "migration"
	}
	return "intent"
}

// windowKey identifies a window: intent and migration ids come from
// separate coordinator logs, so the kind is part of the key.
type windowKey struct {
	kind windowKind
	id   uint64
}

// classWindow is one held window.
type classWindow struct {
	windowKey
	// coordinator is the base URL the probe loop re-asks for status.
	coordinator string
	// classes are nodes whose whole classes the window covers.
	classes []string
	// ttl is the window's expiry: the probe loop first asks the
	// coordinator ttl after the install, then every ttl/2.
	ttl time.Duration
}

// newWindow builds a window with a ttlMillis expiry (<= 0 means 1s).
func newWindow(k windowKind, id uint64, coordinator string, ttlMillis int64, classes ...string) *classWindow {
	ttl := time.Duration(ttlMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = time.Second
	}
	return &classWindow{
		windowKey:   windowKey{kind: k, id: id},
		coordinator: coordinator,
		classes:     classes,
		ttl:         ttl,
	}
}

// covers returns the first of nodes whose class the window covers.
func (w *classWindow) covers(uf *concurrent.UF[string, int64], nodes ...string) (string, bool) {
	for _, c := range w.classes {
		for _, x := range nodes {
			if x == c {
				return x, true
			}
			if _, ok := uf.GetRelation(c, x); ok {
				return x, true
			}
		}
	}
	return "", false
}

// busy is the retryable refusal for touching x's class while w holds it.
func (w *classWindow) busy(x string) error {
	if w.kind == windowFreeze {
		return fault.Unavailablef("class of %q is migrating (migration %d); retry shortly", x, w.id)
	}
	return fault.Unavailablef("cross-shard union intent %d is in its prepare window over the class of %q; retry shortly", w.id, x)
}

// kindFence is one window kind's coordinator fence: the highest epoch
// seen and the counters both kinds keep.
type kindFence struct {
	epoch   uint64
	fenced  int64 // stale-epoch traffic refused (plus, for freezes, 403 moved-node refusals)
	expired int64 // windows released after probing presumed abort
}

// fenceLocked admits coordinator traffic of kind k at epoch, raising
// the kind's high-water epoch, or refuses it with 403 when a newer
// coordinator of that kind has been seen. what names the traffic in
// the refusal. Callers hold ctlMu.
func (s *Server) fenceLocked(k windowKind, epoch uint64, what string, id uint64) error {
	f := &s.fences[k]
	if epoch < f.epoch {
		f.fenced++
		return fault.Fencedf("%s for %s %d carries stale coordinator epoch %d (current %d)", what, k.noun(), id, epoch, f.epoch)
	}
	f.epoch = epoch
	return nil
}

// fence is fenceLocked taking ctlMu.
func (s *Server) fence(k windowKind, epoch uint64, what string, id uint64) error {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	return s.fenceLocked(k, epoch, what, id)
}

// windowRequest admits a request to open a class window: only a
// writable primary that is not draining opens one (followers 421
// toward the primary). It decodes the body into v, or writes the
// refusal and reports false.
func (s *Server) windowRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	if s.draining.Load() {
		writeError(w, fault.Unavailablef("node is draining"))
		return false
	}
	if err := s.writable(); err != nil {
		s.refuseWithHint(w, err)
		return false
	}
	if err := decodeBody(r, v); err != nil {
		writeError(w, err)
		return false
	}
	return true
}

// installWindow inserts w unless a held window of the other kind covers
// one of w's classes, which refuses it with a retryable 503: a bridge
// edge must not race an ownership flip, and a freeze must not let the
// copy miss a committed-but-unapplied bridge edge.
func (s *Server) installWindow(w *classWindow) error {
	uf := s.st().uf
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	for _, h := range s.windows {
		if h.kind == w.kind {
			continue
		}
		if x, ok := h.covers(uf, w.classes...); ok {
			return h.busy(x)
		}
	}
	s.windows[w.windowKey] = w
	return nil
}

// releaseWindow drops a window; it reports whether one was held.
func (s *Server) releaseWindow(k windowKey) bool {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	if _, ok := s.windows[k]; !ok {
		return false
	}
	delete(s.windows, k)
	return true
}

// windowStats snapshots the participant counter blocks for /v1/stats:
// 2PC and migration, each nil on a node that has never seen that kind
// of coordinator traffic.
func (s *Server) windowStats() (*TwoPhaseStats, *MigrationStats) {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	var held [2]int
	for k := range s.windows {
		held[k.kind]++
	}
	var tp *TwoPhaseStats
	if f := s.fences[windowPrepare]; f.epoch != 0 || held[windowPrepare] != 0 || s.prepared != 0 {
		tp = &TwoPhaseStats{
			Reserved: held[windowPrepare],
			Prepared: s.prepared,
			Aborted:  s.aborted,
			Expired:  f.expired,
			Fenced:   f.fenced,
			MaxEpoch: f.epoch,
		}
	}
	var mig *MigrationStats
	if f := s.fences[windowFreeze]; f.epoch != 0 || held[windowFreeze] != 0 || len(s.moved) != 0 || s.stalled != 0 {
		mig = &MigrationStats{
			Frozen:   held[windowFreeze],
			Migrated: len(s.moved),
			Stalled:  s.stalled,
			Fenced:   f.fenced,
			Expired:  f.expired,
			MaxEpoch: f.epoch,
		}
	}
	return tp, mig
}

// gateWrite is the write path's control-plane gate, checked before
// every assert.
//
//   - 2PC: coordinator bridge traffic (reasons carrying an intent tag)
//     passes whenever its epoch is current and is fenced with 403 when
//     stale; every other write is refused with a retryable 503 while any
//     prepare window is held, so no conflicting relation can slip
//     between a yes vote and the decided bridge edge.
//   - Migration: copy-stream traffic (reasons carrying a migration tag)
//     passes whenever its epoch is current — and lifts any moved-fence
//     on its endpoints, since current-epoch copy traffic means
//     ownership is arriving here — and is fenced with 403 when stale.
//     Other writes are refused with 403 plus the new-owner hint when an
//     endpoint's class migrated away, and with a retryable 503 while an
//     endpoint's class is inside a freeze window; writes to unrelated
//     classes pass.
//
// The returned list names the nodes whose fences this call lifted: the
// caller must make those lifts durable with journalFenceLifts, because
// the copy entry that caused them is usually a redundant re-assert the
// wal dedups away.
func (s *Server) gateWrite(n, m, reason string) ([]string, error) {
	iid, iepoch, intentTagged := ParseIntentTag(reason)
	mid, mepoch, migTagged := ParseMigrateTag(reason)
	uf := s.st().uf
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	if intentTagged {
		if err := s.fenceLocked(windowPrepare, iepoch, "bridge assert", iid); err != nil {
			return nil, err
		}
	} else {
		for k := range s.windows {
			if k.kind == windowPrepare {
				return nil, fault.Unavailablef("cross-shard union intent %d is in its prepare window; retry shortly", k.id)
			}
		}
	}
	if migTagged {
		if err := s.fenceLocked(windowFreeze, mepoch, "copy-stream assert", mid); err != nil {
			return nil, err
		}
		var lifted []string
		for _, x := range [2]string{n, m} {
			if _, ok := s.moved[x]; ok {
				lifted = append(lifted, x)
				delete(s.moved, x)
			}
		}
		return lifted, nil
	}
	for _, x := range [2]string{n, m} {
		if mv, ok := s.moved[x]; ok {
			s.fences[windowFreeze].fenced++
			return nil, &MigratedError{Node: x, Group: mv.group, MapEpoch: mv.mapEpoch}
		}
	}
	for _, w := range s.windows {
		if w.kind != windowFreeze {
			continue
		}
		if x, ok := w.covers(uf, n, m); ok {
			s.stalled++
			return nil, w.busy(x)
		}
	}
	return nil, nil
}

// probeClient is the participant's outbound client for coordinator
// status probes.
var probeClient = &http.Client{Timeout: 2 * time.Second}

// maxProbes bounds status probes for an undecided or unreachable
// coordinator before the participant presumes abort.
const maxProbes = 8

// windowStatus is what a probe reads of a coordinator status body
// (IntentStatusResponse or MigrationStatusResponse).
type windowStatus struct {
	State    string   `json:"state"`
	To       string   `json:"to"`
	MapEpoch uint64   `json:"map_epoch"`
	Nodes    []string `json:"nodes"`
}

// windowVerdict is one status probe's ruling on a held window.
type windowVerdict uint8

const (
	// verdictHold keeps the window, within the returned probe budget.
	verdictHold windowVerdict = iota
	// verdictRelease drops the window: nothing is left to protect.
	verdictRelease
	// verdictFence turns a freeze into a provisional moved-fence: the
	// flip decision is durable and the probe carries its material.
	verdictFence
)

// verdict is each kind's reading of its coordinator's status: what to
// do with the window, and how many probes a hold may take before the
// participant presumes abort (negative: never, the decision is
// durable).
func (k windowKind) verdict(st windowStatus) (windowVerdict, int) {
	switch {
	case k == windowPrepare && st.State == "pending":
		return verdictHold, maxProbes
	case k == windowPrepare && st.State == "committed":
		// The decision is durable on the coordinator; the bridge edge
		// is being redriven. Hold the window longer, but not forever:
		// dropping early only widens the conflict window.
		return verdictHold, 3 * maxProbes
	case k == windowFreeze && (st.State == "planned" || st.State == "frozen" ||
		st.State == "copying" || st.State == "verifying"):
		return verdictHold, maxProbes
	case k == windowFreeze && st.State == "flipped":
		if st.To != "" && len(st.Nodes) > 0 {
			return verdictFence, 0
		}
		// Past the decision point without the flip material: a
		// participant must never unilaterally thaw, so hold and keep
		// probing (the operator release endpoint stays the escape hatch).
		return verdictHold, -1
	}
	// aborted, done, or unknown: nothing left to protect.
	return verdictRelease, 0
}

// probe is the participant's crash-recovery loop for one window: sleep
// out the TTL, then re-probe the coordinator's status with backoff
// until the window is released, by the coordinator or by the kind's
// verdict. An unreachable coordinator presumes abort after maxProbes —
// unless a probe has already seen a durable decision, because thawing
// without a fence after a flip would accept writes the new owner never
// sees.
func (s *Server) probe(w *classWindow) {
	wait := w.ttl
	decided := false
	for probes := 0; ; probes++ {
		time.Sleep(wait)
		s.ctlMu.Lock()
		_, held := s.windows[w.windowKey]
		s.ctlMu.Unlock()
		if !held || s.draining.Load() {
			return
		}
		st, err := fetchStatus(w)
		v, budget := verdictHold, maxProbes
		if err == nil {
			v, budget = w.kind.verdict(st)
			decided = decided || budget < 0
		} else if decided {
			budget = -1
		}
		switch {
		case v == verdictFence:
			// Fence the moved nodes provisionally (stale writes 403 with
			// the new-owner hint instead of stalling) and thaw. The
			// redriven complete journals the durable marker when it lands.
			s.installMovedFence(st.To, st.MapEpoch, st.Nodes, false)
			s.releaseWindow(w.windowKey)
			return
		case v == verdictRelease || (budget >= 0 && probes >= budget):
			if s.releaseWindow(w.windowKey) {
				s.ctlMu.Lock()
				s.fences[w.kind].expired++
				s.ctlMu.Unlock()
			}
			return
		}
		wait = w.ttl / 2
		if wait <= 0 {
			wait = 50 * time.Millisecond
		}
	}
}

// fetchStatus asks a window's coordinator for its operation's folded
// state.
func fetchStatus(w *classWindow) (windowStatus, error) {
	var out windowStatus
	if w.coordinator == "" {
		return out, fault.Unavailablef("no coordinator address to probe")
	}
	path := StatusPath
	if w.kind == windowFreeze {
		path = MigrateStatusPath
	}
	u := fmt.Sprintf("%s%s?%s=%d", strings.TrimSuffix(w.coordinator, "/"), path, w.kind.noun(), w.id)
	if _, err := url.Parse(u); err != nil {
		return out, fault.Invalidf("coordinator url: %v", err)
	}
	resp, err := probeClient.Get(u)
	if err != nil {
		return out, fault.Unavailablef("probe coordinator: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fault.Unavailablef("probe coordinator: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fault.IOf("probe coordinator: %v", err)
	}
	return out, nil
}

// restoreFences re-establishes the participant's control-plane fences
// from durable history in one journal-order pass, so a restarted,
// promoted, or freshly resynced node starts from what its journal has
// accepted instead of forgetting and letting a stale coordinator or a
// stale writer back in:
//
//   - every bridge edge's reason carries the intent tag with the
//     coordinator epoch that produced it, which raises the 2PC epoch
//     (the replication fence guards primaries against each other; this
//     is its 2PC counterpart, recovered from the same journal);
//   - every completed migration journaled a moved marker whose reason
//     carries the moved node list, which installs those fences;
//   - a current-epoch migrate-tagged copy entry lifts the fence on its
//     endpoints (ownership arriving here), exactly as the live gate
//     does, and so does a lift marker (see journalFenceLifts). Without
//     the lift rules a class that migrated away and later back would
//     re-install the outbound fence on restart and 403 writes to a
//     class this node owns again.
func (s *Server) restoreFences(entries []cert.Entry[string, int64]) {
	s.ctlMu.Lock()
	defer s.ctlMu.Unlock()
	raise := func(k windowKind, epoch uint64) {
		if epoch > s.fences[k].epoch {
			s.fences[k].epoch = epoch
		}
	}
	for _, e := range entries {
		if _, epoch, ok := ParseIntentTag(e.Reason); ok {
			raise(windowPrepare, epoch)
			continue
		}
		if _, epoch, ok := ParseMigrateTag(e.Reason); ok {
			if epoch >= s.fences[windowFreeze].epoch {
				raise(windowFreeze, epoch)
				delete(s.moved, e.N)
				delete(s.moved, e.M)
			}
			continue
		}
		if strings.HasPrefix(e.Reason, LiftMarkerPrefix) {
			// A copy-stream assert lifted this fence live; the entry that
			// caused it was deduped (the class migrated back over relations
			// this journal already held), so the lift replays from its own
			// marker.
			var lm liftMarker
			if err := json.Unmarshal([]byte(e.Reason[len(LiftMarkerPrefix):]), &lm); err == nil {
				raise(windowFreeze, lm.Epoch)
				delete(s.moved, lm.Node)
			}
			continue
		}
		if !strings.HasPrefix(e.Reason, MovedMarkerPrefix) {
			continue
		}
		var m movedMarker
		if err := json.Unmarshal([]byte(e.Reason[len(MovedMarkerPrefix):]), &m); err != nil {
			continue
		}
		raise(windowFreeze, m.Epoch)
		for _, n := range m.Nodes {
			if cur, ok := s.moved[n]; !ok || m.MapEpoch > cur.mapEpoch {
				s.moved[n] = migMoved{group: m.To, mapEpoch: m.MapEpoch, durable: true}
			}
		}
	}
}

// formatTag renders a coordinator reason tag: prefix, operation id and
// coordinator epoch.
func formatTag(prefix string, id, epoch uint64) string {
	return fmt.Sprintf("%s%d@e%d", prefix, id, epoch)
}

// parseTag extracts the operation id and coordinator epoch from a
// reason string starting with prefix's tag; ok is false otherwise.
func parseTag(prefix, reason string) (id, epoch uint64, ok bool) {
	if !strings.HasPrefix(reason, prefix) {
		return 0, 0, false
	}
	rest := reason[len(prefix):]
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		rest = rest[:sp]
	}
	if n, _ := fmt.Sscanf(rest, "%d@e%d", &id, &epoch); n != 2 {
		return 0, 0, false
	}
	return id, epoch, true
}
