// Package replica implements lease-fenced primary/replica log
// shipping for the durable serving stack: a primary streams its
// write-ahead journal, frame for frame, to followers that *re-verify
// every record's certificate* before applying it to their own durable
// store — replication here does not copy trust, it re-derives it.
//
// # Protocol
//
// The primary POSTs batches of raw journal frames (wal.EncodeFrames)
// to each follower's /v1/replicate endpoint. Every batch carries:
//
//   - the primary's fencing token: a monotonic epoch number persisted
//     in the WAL on both ends. A follower holding a newer token
//     refuses the batch (HTTP 403, fault.ErrFenced) — a revived stale
//     primary's writes are provably rejected, and the refusal tells it
//     to step down;
//   - the sequence number and CRC-32C of the record *preceding* the
//     batch, computed from the sender's own copy. The follower
//     recomputes both from its copy before appending; any mismatch
//     means the histories diverged and the batch is refused with a
//     typed ErrDivergence, never merged. Resolution is automatic on
//     self-healing followers: the Healer quarantines the store, wipes
//     it and pulls a certified snapshot from the primary (see heal.go);
//   - the record count, so a truncated-in-transit body cannot pass as
//     a shorter batch.
//
// A follower applies each new record exactly the way certified
// recovery does: replay through the group operations, re-prove with
// the independent checker (cert.Check), cross-check the rebuilt
// structure's answer, and only then append to its own journal with the
// primary's sequence number. Batches are acknowledged with the
// follower's durable sequence number, which is also how anti-entropy
// works: a follower that was down reports where its journal ends and
// the primary ships the missing suffix from its in-memory record
// mirror.
//
// # One transport for shipping and resync
//
// Live shipping (push) and certified resync (pull) move the same
// anchored batch over the same transport. One function cuts it from the
// store's record mirror; Batch writes its five X-Luf-* headers; and
// ReadBatch parses them, both in a follower's /v1/replicate handler and
// in the Healer's pull. GET /v1/snapshot (ServeSnapshot) answers with
// exactly the batch, headers and body a /v1/replicate POST carries,
// plus X-Luf-Last-Seq. Both routes pass the simulated network hop,
// reconstruct a peer's refusal the same way, and retry with the same
// full-jitter backoff.
//
// # Pipelining
//
// Shipping is pipelined: the primary keeps up to Config.PipelineDepth
// batches in flight per peer, advancing its send position
// optimistically instead of waiting for each batch's reply. The
// acknowledgement is a cumulative durable *watermark* — the follower's
// last fsynced sequence number after its own group commit — so one
// reply can resolve every batch at or below it, replies may arrive in
// any order (the primary keeps the maximum), and duplicated deliveries
// are absorbed. Batches that overtake each other on the wire are
// reordered on the follower by a short anchor wait (Applier.WaitGap)
// before the log-matching check runs; nothing about fencing,
// anchoring, or per-record re-proving is relaxed. Any error collapses
// the pipeline back to a probe of the follower's durable position.
//
// Acknowledgements double as lease renewals: see Lease. With
// synchronous replication the primary acknowledges a client write only
// after a follower holds it durably; the sync gate (Shipper.WaitAcked)
// resolves every waiting write at or below the acked watermark at
// once, so killing the primary loses no acknowledged write.
package replica

import (
	"fmt"
	"sync"
	"time"

	"luf/internal/cert"
	"luf/internal/concurrent"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/wal"
)

// ErrDivergence aliases wal.ErrDivergence at the replication layer:
// every refusal to merge split histories — a mismatched batch anchor,
// a conflicting record at a held sequence number, a replay conflict —
// wraps it. Test with errors.Is; inspect the sequence number and both
// checksums with errors.As on *wal.DivergenceError.
var ErrDivergence = wal.ErrDivergence

// ReplicatePath is the HTTP path followers serve replication on.
const ReplicatePath = "/v1/replicate"

// Replication protocol headers.
const (
	// HeaderFence carries the sender's fencing token (decimal).
	HeaderFence = "X-Luf-Fence"
	// HeaderPrimary carries the sender's advertised client address, so
	// followers can redirect writes to the current primary.
	HeaderPrimary = "X-Luf-Primary"
	// HeaderPrevSeq carries the sequence number of the record
	// immediately before the batch (0 when the batch starts the
	// history).
	HeaderPrevSeq = "X-Luf-Prev-Seq"
	// HeaderPrevCRC carries the CRC-32C of that record's encoded
	// payload, computed from the sender's copy.
	HeaderPrevCRC = "X-Luf-Prev-Crc"
	// HeaderCount carries the number of records in the body.
	HeaderCount = "X-Luf-Count"
)

// Batch is one decoded replication request: a fence-stamped,
// history-anchored run of journal frames. An empty batch (Count 0) is
// a heartbeat — it checks the fence, renews the primary's lease via
// the acknowledgement, and reports the follower's durable sequence
// number without shipping anything.
type Batch struct {
	// Fence is the sender's fencing token.
	Fence uint64
	// Primary is the sender's advertised client address.
	Primary string
	// PrevSeq anchors the batch: the sequence number of the record
	// immediately before it, 0 for a batch starting the history.
	PrevSeq uint64
	// PrevCRC is the CRC-32C of the anchoring record's payload.
	PrevCRC uint32
	// Count is the number of records in Frames.
	Count int
	// Frames is the raw frame run (wal.EncodeFrames).
	Frames []byte
}

// Ack is the follower's reply to an applied batch.
type Ack struct {
	// Durable is the follower's last fsynced sequence number.
	Durable uint64 `json:"durable"`
	// Fence is the follower's current fencing token.
	Fence uint64 `json:"fence"`
}

// Applier is the follower half of replication: it verifies and applies
// shipped batches against a node's union-find, certificate journal and
// durable store. It is safe for concurrent use: a pipelining primary
// keeps several batches in flight, so batches can arrive concurrently
// and out of order — Apply serializes non-heartbeat batches on an
// internal mutex and briefly waits for a batch's predecessor (see
// WaitGap) before refusing a gap, so wire-level reordering costs a
// short wait instead of a pipeline collapse.
type Applier[N comparable, L any] struct {
	// G is the label group.
	G group.Group[L]
	// UF is the node's live union-find.
	UF *concurrent.UF[N, L]
	// Journal is the node's certificate journal.
	Journal *cert.SyncJournal[N, L]
	// Store is the node's durable store.
	Store *wal.Store[N, L]
	// WaitGap bounds how long Apply waits for a reordered batch's
	// predecessor to land before refusing the batch (which makes the
	// primary re-probe and resend); <= 0 means 250ms. A dropped
	// predecessor therefore costs one WaitGap, while mere reordering
	// costs only the microseconds until the earlier batch applies.
	WaitGap time.Duration

	// applyMu serializes batch application: certify-append-commit for
	// one batch must not interleave with another's. Heartbeats bypass
	// it, so lease renewal and fence checks stay responsive under a
	// full pipeline.
	applyMu sync.Mutex
}

// Apply verifies and applies one shipped batch, returning the
// follower's acknowledgement. The fence is checked first (stale
// senders get fault.ErrFenced and nothing else happens); then the
// batch's anchor record is cross-checked against this node's history;
// then every new record is certified exactly as recovery certifies
// journal records, appended with the primary's sequence number, and
// the whole batch is fsynced before the acknowledgement is returned.
// Records the follower already holds are skipped idempotently after a
// divergence check, so duplicated deliveries are harmless.
func (a *Applier[N, L]) Apply(b Batch) (Ack, error) {
	if cur := a.Store.Fence(); b.Fence < cur {
		return Ack{}, fault.Fencedf("batch carries fencing token %d, this replica has accepted %d", b.Fence, cur)
	} else if b.Fence > cur {
		// A newer epoch: persist the token before applying anything, so
		// even a crash mid-batch leaves the old primary fenced out.
		if err := a.Store.SetFence(b.Fence); err != nil {
			return Ack{}, err
		}
	}
	recs, err := wal.DecodeFrames(b.Frames, a.Store.Codec())
	if err != nil {
		return Ack{}, err
	}
	if len(recs) != b.Count {
		return Ack{}, fault.IOf("batch declares %d records, body holds %d", b.Count, len(recs))
	}
	if b.Count > 0 {
		a.waitForAnchor(b.PrevSeq)
		a.applyMu.Lock()
		defer a.applyMu.Unlock()
		if err := a.checkAnchor(b, recs); err != nil {
			return Ack{}, err
		}
		if err := a.applyRecords(recs); err != nil {
			return Ack{}, err
		}
		if err := a.Store.Commit(recs[len(recs)-1].Seq); err != nil {
			return Ack{}, err
		}
	}
	return Ack{Durable: a.Store.DurableSeq(), Fence: a.Store.Fence()}, nil
}

// waitForAnchor polls (without holding applyMu, so the predecessor can
// make progress) until this node's journal reaches the batch's anchor
// or WaitGap expires. Pipelined batches that overtake each other on
// the wire land here; the batch ahead usually applies within
// microseconds. Expiry is not an error by itself — the anchor check
// then produces the precise refusal.
func (a *Applier[N, L]) waitForAnchor(prevSeq uint64) {
	if a.Store.LastSeq() >= prevSeq {
		return
	}
	gap := a.WaitGap
	if gap <= 0 {
		gap = 250 * time.Millisecond
	}
	deadline := time.Now().Add(gap)
	for a.Store.LastSeq() < prevSeq && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// checkAnchor runs the log-matching check: the batch must start right
// after its anchor record, and the anchor must be byte-identical on
// both ends.
func (a *Applier[N, L]) checkAnchor(b Batch, recs []wal.SeqEntry[N, L]) error {
	if recs[0].Seq != b.PrevSeq+1 {
		return fault.Invariantf("batch starts at sequence %d but is anchored at %d", recs[0].Seq, b.PrevSeq)
	}
	if b.PrevSeq == 0 {
		return nil
	}
	anchor, ok := a.Store.RecordAt(b.PrevSeq)
	if !ok {
		return fault.Invariantf("batch is anchored at sequence %d, which this replica does not hold (journal ends at %d)", b.PrevSeq, a.Store.LastSeq())
	}
	if crc := wal.RecordCRC(a.Store.Codec(), anchor); crc != b.PrevCRC {
		return &wal.DivergenceError{
			Seq:       b.PrevSeq,
			LocalCRC:  crc,
			RemoteCRC: b.PrevCRC,
			Detail:    "the batch's anchor record differs between this replica and the primary",
		}
	}
	return nil
}

// applyRecords certifies and persists the batch's new records in
// order. Each record beyond this node's tail is replayed into the
// union-find, re-proved by the independent checker, cross-checked
// against the structure's answer, and appended durably; records at or
// below the tail only pass the store's divergence check.
func (a *Applier[N, L]) applyRecords(recs []wal.SeqEntry[N, L]) error {
	tail := a.Store.LastSeq()
	for _, r := range recs {
		if r.Seq <= tail {
			if err := a.Store.AppendReplicated(r.Seq, r.Entry); err != nil {
				return err
			}
			continue
		}
		if err := a.certifyOne(r); err != nil {
			return err
		}
		if err := a.Store.AppendReplicated(r.Seq, r.Entry); err != nil {
			return err
		}
	}
	return nil
}

// certifyOne replays one record into the union-find and re-proves it
// with wal.Reprove, as certified recovery (wal.Rebuild) does: a record
// that conflicts, cannot be derived, fails the independent checker, or
// is answered differently by the structure is refused with a
// structured error — corrupt or forged shipping can crash replication,
// never poison it.
func (a *Applier[N, L]) certifyOne(r wal.SeqEntry[N, L]) (err error) {
	// Corrupt labels can make group arithmetic panic (e.g. checked
	// overflow); classify instead of crashing the follower.
	defer fault.RecoverTo(&err)
	e := r.Entry
	if !a.UF.AddRelationReason(e.N, e.M, e.Label, e.Reason) {
		return &wal.DivergenceError{
			Seq: r.Seq,
			Detail: fmt.Sprintf(
				"shipped record (%v -> %v) conflicts with this replica's state — a stream of accepted assertions can never conflict, so the histories diverged", e.N, e.M),
		}
	}
	if err := wal.Reprove(a.G, a.UF, a.Journal, e); err != nil {
		return fmt.Errorf("shipped record %d: %w", r.Seq, err)
	}
	return nil
}
