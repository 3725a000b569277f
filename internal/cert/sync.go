package cert

import (
	"sync"

	"luf/internal/group"
)

// SyncJournal is a Journal safe for concurrent use: a serving layer
// records accepted assertions from many goroutines while other
// goroutines run Explain for certificate endpoints. Recording takes the
// write lock; Explain, ExplainConflict and the accessors take the read
// lock, so explanations always see a consistent journal prefix. Explain
// holds it only for a proof-forest walk, not a class-sized search, so
// writers do not queue behind it for long.
//
// The plain Journal stays the right choice for single-owner engines
// (solver, analyzer, recovery replay); SyncJournal exists for the
// serving path, where the concurrent union-find's recorder hook and the
// HTTP explain handlers race.
type SyncJournal[N comparable, L any] struct {
	mu sync.RWMutex
	j  *Journal[N, L]
}

// NewSyncJournal returns an empty concurrency-safe journal wrapping
// NewJournal(g).
func NewSyncJournal[N comparable, L any](g group.Group[L]) *SyncJournal[N, L] {
	return &SyncJournal[N, L]{j: NewJournal[N, L](g)}
}

// Record appends an accepted assertion under the write lock. Its
// signature matches the recorder hooks of core.WithRecorder and
// concurrent.WithRecorder.
func (s *SyncJournal[N, L]) Record(n, m N, l L, reason string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.j.Record(n, m, l, reason)
}

// Len returns the number of recorded assertions.
func (s *SyncJournal[N, L]) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.j.Len()
}

// Entries returns a copy of the recorded assertions — unlike
// Journal.Entries the slice is the caller's to keep, since the journal
// may keep growing concurrently.
func (s *SyncJournal[N, L]) Entries() []Entry[N, L] {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry[N, L], s.j.Len())
	copy(out, s.j.Entries())
	return out
}

// Explain returns a Relation certificate for x and y under the read
// lock; see Journal.Explain.
func (s *SyncJournal[N, L]) Explain(x, y N) (Certificate[N, L], error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.j.Explain(x, y)
}

// ExplainConflict returns a Conflict certificate under the read lock;
// see Journal.ExplainConflict.
func (s *SyncJournal[N, L]) ExplainConflict(x, y N, newLabel L, reason string) (Certificate[N, L], error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.j.ExplainConflict(x, y, newLabel, reason)
}
