package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"luf/internal/cert"
	"luf/internal/concurrent"
	"luf/internal/fault"
	"luf/internal/group"
)

// Store is a durable assertion store: a directory holding one live
// journal (journal.wal) and at most one snapshot (snapshot.wal), with
// an in-memory sequence-ordered mirror of every persisted record for
// snapshotting and log shipping. It is safe for concurrent use.
//
// Sequence numbers are global, not per-file: a record keeps the number
// it was first assigned through snapshots, journal trims and
// replication, so "the record at sequence 17" means the same assertion
// on every replica. A primary allocates numbers with Append; followers
// write the primary's numbers verbatim with AppendReplicated.
type Store[N comparable, L any] struct {
	dir   string
	g     group.Group[L]
	codec Codec[N, L]
	log   *Log

	mu          sync.Mutex
	seq         uint64 // last allocated sequence number
	fence       uint64 // highest accepted fencing token
	records     []SeqEntry[N, L]
	entries     []cert.Entry[N, L]
	seen        map[string]bool
	snapshotSeq uint64 // CoversSeq of the newest snapshot on disk

	snapMu sync.Mutex // serializes snapshot writes and trims
}

// Options configures Open.
type Options struct {
	// Inject, when non-nil, threads deterministic I/O faults (torn
	// writes, fsync failures, short reads) through the store.
	Inject *fault.Injector
}

// Recovered describes a completed certified recovery.
type Recovered[N comparable, L any] struct {
	// UF is the rebuilt concurrent union-find, recording into Journal.
	UF *concurrent.UF[N, L]
	// Journal is the certificate journal holding exactly the recovered
	// assertions; serving layers keep recording into it.
	Journal *cert.SyncJournal[N, L]
	// Entries is the number of distinct assertions recovered.
	Entries int
	// FromSnapshot is how many of them came from the snapshot file.
	FromSnapshot int
	// TailTruncated is the number of torn journal bytes repaired.
	TailTruncated int
	// LastSeq is the journal sequence number appends resume after.
	LastSeq uint64
	// Fence is the highest fencing token the store had accepted.
	Fence uint64
}

// Open opens (creating if needed) a durable store in dir and runs
// certified recovery: snapshot records plus the journal records beyond
// the snapshot's coverage are replayed through the group operations
// into a fresh concurrent union-find, and every replayed assertion is
// re-proved by the independent checker. A torn journal tail is
// truncated and counted; checksum damage anywhere else, a replay
// conflict, a certificate the checker rejects, or a trimmed journal
// whose covering snapshot is missing aborts with a structured error —
// recovery never silently accepts corrupt or shrunken state.
func Open[N comparable, L any](dir string, g group.Group[L], c Codec[N, L], opts Options) (*Store[N, L], *Recovered[N, L], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fault.IOf("store: mkdir %s: %v", dir, err)
	}
	snap, hasSnap, err := readSnapshot(dir, c, opts.Inject)
	if err != nil {
		return nil, nil, err
	}
	log, jres, err := openLogFile(filepath.Join(dir, journalName), c, opts.Inject)
	if err != nil {
		return nil, nil, err
	}
	covers := uint64(0)
	if hasSnap {
		covers = snap.Header.CoversSeq
	}
	if base := jres.Header.CoversSeq; base > covers {
		log.Close()
		return nil, nil, fault.IOf(
			"store %s: journal was trimmed to sequence %d but the snapshot covers only %d — the covering snapshot is missing or stale, so records are gone; restore the snapshot or resync from a replica", dir, base, covers)
	}
	var records []SeqEntry[N, L]
	for _, r := range snap.Records {
		records = append(records, SeqEntry[N, L]{Seq: r.Seq, Entry: r.Entry})
	}
	for _, r := range jres.Records {
		if r.Seq > covers {
			records = append(records, SeqEntry[N, L]{Seq: r.Seq, Entry: r.Entry})
		}
	}
	entries := make([]cert.Entry[N, L], 0, len(records))
	for _, r := range records {
		entries = append(entries, r.Entry)
	}
	uf, journal, err := Rebuild(g, entries)
	if err != nil {
		log.Close()
		return nil, nil, fmt.Errorf("recovery of %s: %w", dir, err)
	}
	s := &Store[N, L]{
		dir:         dir,
		g:           g,
		codec:       c,
		log:         log,
		records:     records,
		seen:        map[string]bool{},
		snapshotSeq: covers,
	}
	// The deduplicated journal, not the raw record list, seeds the
	// store's distinct-entry set (the record list may legitimately hold
	// the same relation more than once across a failover boundary).
	for _, e := range journal.Entries() {
		s.entries = append(s.entries, e)
		s.seen[s.key(e)] = true
	}
	// Appends must resume above both the journal tail and the snapshot
	// coverage (the journal file may have been truncated below the
	// snapshot by crash repair).
	if log.seq < covers {
		log.seq = covers
		log.durable = covers
	}
	s.seq = log.seq
	s.fence = snap.Fence
	if jres.Fence > s.fence {
		s.fence = jres.Fence
	}
	rec := &Recovered[N, L]{
		UF:            uf,
		Journal:       journal,
		Entries:       len(s.entries),
		FromSnapshot:  len(snap.Records),
		TailTruncated: jres.TornBytes,
		LastSeq:       s.seq,
		Fence:         s.fence,
	}
	return s, rec, nil
}

// Rebuild replays entries through the group operations into a fresh
// concurrent union-find with an attached certificate journal, then
// re-proves every entry with Reprove. Any divergence — a conflicting
// record, an unprovable record, a wrong structure answer — aborts with
// a structured error.
func Rebuild[N comparable, L any](g group.Group[L], entries []cert.Entry[N, L]) (*concurrent.UF[N, L], *cert.SyncJournal[N, L], error) {
	journal := cert.NewSyncJournal[N, L](g)
	uf := concurrent.New[N, L](g, concurrent.WithRecorder[N, L](journal.Record))
	replayOne := func(i int, e cert.Entry[N, L]) (err error) {
		// Corrupt labels can make group arithmetic panic (e.g. Delta's
		// checked overflow); classify instead of crashing recovery.
		defer fault.RecoverTo(&err)
		if !uf.AddRelationReason(e.N, e.M, e.Label, e.Reason) {
			return fault.Invariantf(
				"record %d (%v -> %v) conflicts with the records before it — a journal of accepted assertions can never conflict, so the file is corrupt", i, e.N, e.M)
		}
		return nil
	}
	for i, e := range entries {
		if err := replayOne(i, e); err != nil {
			return nil, nil, fmt.Errorf("replay: %w", err)
		}
	}
	for i, e := range entries {
		if err := Reprove(g, uf, journal, e); err != nil {
			return nil, nil, fmt.Errorf("certify: record %d: %w", i, err)
		}
	}
	return uf, journal, nil
}

// Reprove re-proves one logged assertion against a structure and the
// certificate journal recording it: the journal must derive it
// (Explain), the certificate carrying the logged label must pass the
// independent checker (cert.Check), and the structure must answer it
// identically (GetRelation). Recovery, replication and scrubbing all
// re-prove records this way. Failures, including panics from corrupt
// labels in group arithmetic, are returned as
// fault.ErrInvariantViolated; callers add which record it was.
func Reprove[N comparable, L any](g group.Group[L], uf *concurrent.UF[N, L], journal *cert.SyncJournal[N, L], e cert.Entry[N, L]) (err error) {
	defer fault.RecoverTo(&err)
	c, err := journal.Explain(e.N, e.M)
	if err != nil {
		return fault.Invariantf("assertion (%v -> %v): no derivation: %v", e.N, e.M, err)
	}
	c.Label = e.Label
	if err := cert.Check(c, g); err != nil {
		return fault.Invariantf("assertion (%v -> %v): certificate rejected: %v", e.N, e.M, err)
	}
	if ans, ok := uf.GetRelation(e.N, e.M); !ok || !g.Equal(ans, e.Label) {
		return fault.Invariantf("assertion (%v -> %v): structure answers %v, certificate proves %s", e.N, e.M, ok, g.Format(e.Label))
	}
	return nil
}

// key builds the deduplication key of an entry.
func (s *Store[N, L]) key(e cert.Entry[N, L]) string {
	return string(s.codec.EncodeNode(e.N)) + "\x00" + string(s.codec.EncodeNode(e.M)) + "\x00" + s.g.Key(e.Label)
}

// Append persists one accepted assertion under a freshly allocated
// sequence number and returns that number to pass to Commit. Duplicate
// assertions (same endpoints and label) are not rewritten; the
// returned sequence number still guarantees, once committed, that the
// assertion is durable. The in-memory mirror registers the record only
// after the journal write succeeds, so it never claims a sequence
// number the disk and the replicas will not see.
func (s *Store[N, L]) Append(e cert.Entry[N, L]) (uint64, error) {
	// s.mu stays held across the journal write: sequence allocation and
	// the file append must not interleave with a concurrent Trim
	// rewrite. The write is a page-cache copy; fsync concurrency lives
	// in Commit, which this does not serialize.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen[s.key(e)] {
		return s.seq, s.log.Err()
	}
	seq := s.seq + 1
	if err := appendRecordAt(s.log, s.codec, seq, e); err != nil {
		return 0, err
	}
	s.seq = seq
	s.seen[s.key(e)] = true
	s.entries = append(s.entries, e)
	s.records = append(s.records, SeqEntry[N, L]{Seq: seq, Entry: e})
	return seq, nil
}

// AppendReplicated persists one record shipped by the primary, keeping
// the primary's sequence number. Records at or below the store's tail
// are idempotent re-deliveries: they are skipped after a divergence
// check (a different assertion at an already-held sequence number
// means the histories split and is refused, never merged). A record
// that would leave a gap is likewise refused — shipping is contiguous
// by construction, so a gap means messages were lost or reordered
// beyond what the protocol tolerates.
func (s *Store[N, L]) AppendReplicated(seq uint64, e cert.Entry[N, L]) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq <= s.seq {
		if r, ok := s.recordAtLocked(seq); ok {
			if s.key(r.Entry) != s.key(e) || r.Entry.Reason != e.Reason {
				return &DivergenceError{
					Seq:       seq,
					LocalCRC:  RecordCRC(s.codec, r),
					RemoteCRC: RecordCRC(s.codec, SeqEntry[N, L]{Seq: seq, Entry: e}),
					Detail:    "this store holds a different assertion than the one shipped",
				}
			}
		}
		return nil
	}
	if seq != s.seq+1 {
		return fault.Invariantf("replicated record at sequence %d leaves a gap after %d", seq, s.seq)
	}
	if err := appendRecordAt(s.log, s.codec, seq, e); err != nil {
		return err
	}
	s.seq = seq
	if !s.seen[s.key(e)] {
		s.seen[s.key(e)] = true
		s.entries = append(s.entries, e)
	}
	s.records = append(s.records, SeqEntry[N, L]{Seq: seq, Entry: e})
	return nil
}

// recordAtLocked binary-searches the sequence-ordered record mirror.
// Callers hold s.mu.
func (s *Store[N, L]) recordAtLocked(seq uint64) (SeqEntry[N, L], bool) {
	i := sort.Search(len(s.records), func(i int) bool { return s.records[i].Seq >= seq })
	if i < len(s.records) && s.records[i].Seq == seq {
		return s.records[i], true
	}
	return SeqEntry[N, L]{}, false
}

// RecordAt returns the record holding sequence number seq, if the
// store has it (replication uses it to compute the prev-record
// checksum of the log-matching check).
func (s *Store[N, L]) RecordAt(seq uint64) (SeqEntry[N, L], bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recordAtLocked(seq)
}

// RecordsSince returns up to max records with sequence numbers
// strictly above after, in sequence order — the shipping read used by
// both steady-state replication and anti-entropy catch-up. The mirror
// keeps every record regardless of journal trims, so a follower can
// catch up from any point of the history.
func (s *Store[N, L]) RecordsSince(after uint64, max int) []SeqEntry[N, L] {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := sort.Search(len(s.records), func(i int) bool { return s.records[i].Seq > after })
	n := len(s.records) - i
	if max > 0 && n > max {
		n = max
	}
	out := make([]SeqEntry[N, L], n)
	copy(out, s.records[i:i+n])
	return out
}

// Fence returns the highest fencing token the store has accepted.
func (s *Store[N, L]) Fence() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fence
}

// SetFence durably raises the store's fencing token: the token is
// recorded in memory first (so stale traffic is refused even if the
// disk write then fails), appended to the journal as a fence record
// and fsynced. Tokens at or below the current fence are ignored —
// fences only move forward. A non-nil error means the new fence may
// not survive a restart; promotions must treat that as fatal.
func (s *Store[N, L]) SetFence(token uint64) error {
	s.mu.Lock()
	if token <= s.fence {
		s.mu.Unlock()
		return nil
	}
	s.fence = token
	s.mu.Unlock()
	if err := s.log.appendBare(encodeFence(token), "append fence"); err != nil {
		return err
	}
	return s.log.Sync()
}

// Commit blocks until sequence number seq is durable (group-commit
// fsync batching with concurrent callers).
func (s *Store[N, L]) Commit(seq uint64) error { return s.log.Commit(seq) }

// Sync makes every appended record durable.
func (s *Store[N, L]) Sync() error { return s.log.Sync() }

// Err returns the journal's sticky I/O error, or nil while healthy.
func (s *Store[N, L]) Err() error { return s.log.Err() }

// Len returns the number of distinct persisted assertions.
func (s *Store[N, L]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// LastSeq returns the last allocated journal sequence number.
func (s *Store[N, L]) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// DurableSeq returns the last sequence number known fsynced.
func (s *Store[N, L]) DurableSeq() uint64 {
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	return s.log.durable
}

// SnapshotSeq returns the CoversSeq of the newest snapshot on disk.
func (s *Store[N, L]) SnapshotSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotSeq
}

// JournalSize returns the live journal's size in bytes.
func (s *Store[N, L]) JournalSize() int64 { return s.log.Size() }

// Codec returns the codec the store serializes with (replication uses
// it to frame shipped records exactly as the journal stores them).
func (s *Store[N, L]) Codec() Codec[N, L] { return s.codec }

// Entries returns a copy of the distinct persisted assertions.
func (s *Store[N, L]) Entries() []cert.Entry[N, L] {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]cert.Entry[N, L], len(s.entries))
	copy(out, s.entries)
	return out
}

// EntryWindow returns a copy of at most n distinct persisted
// assertions: those from index start, taken modulo their count, on,
// wrapping around. It copies only the window, so Append, which waits on
// the same lock, waits for O(n) work, not O(store).
func (s *Store[N, L]) EntryWindow(start, n int) []cert.Entry[N, L] {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := len(s.entries)
	out := make([]cert.Entry[N, L], min(n, total))
	for i := range out {
		out[i] = s.entries[(start+i)%total]
	}
	return out
}

// Snapshot writes a snapshot covering every assertion appended so far
// and records its coverage; after it returns, recovery replays only
// journal records beyond the snapshot. Concurrent appends proceed —
// an assertion racing the snapshot lands in the journal suffix (and
// possibly, harmlessly, in both files; replay deduplicates by
// sequence number).
func (s *Store[N, L]) Snapshot() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.mu.Lock()
	recs := make([]SeqEntry[N, L], len(s.records))
	copy(recs, s.records)
	covers := s.seq
	fence := s.fence
	s.mu.Unlock()
	if err := writeSnapshot(s.dir, s.codec, recs, covers, fence); err != nil {
		return err
	}
	s.mu.Lock()
	s.snapshotSeq = covers
	s.mu.Unlock()
	return nil
}

// Trim atomically rewrites the journal down to the records the newest
// snapshot does not cover: the new file's header carries the trim base
// (the snapshot's CoversSeq) and the current fence, followed by the
// suffix records. Recovery refuses a trimmed journal without a
// snapshot covering its base, so a lost snapshot turns into a
// structured error, never a silently shrunken state. The in-memory
// record mirror is not trimmed — shipping can still serve any suffix
// of the history. A store with no snapshot has nothing to trim.
func (s *Store[N, L]) Trim() error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	// s.mu stays held across the rewrite: appends must not land in the
	// old file while the new image replaces it.
	s.mu.Lock()
	defer s.mu.Unlock()
	base := s.snapshotSeq
	if base == 0 {
		return nil
	}
	image := appendFrame(nil, encodeHeader(s.codec.GroupID(), base, s.fence))
	for _, r := range s.records {
		if r.Seq > base {
			image = appendFrame(image, encodeAssert(s.codec, r.Seq, r.Entry))
		}
	}
	return s.log.Rewrite(image, s.seq)
}

// Close syncs and closes the journal.
func (s *Store[N, L]) Close() error { return s.log.Close() }
