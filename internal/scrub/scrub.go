// Package scrub implements the background integrity scrubber of the
// durable serving stack: a low-priority loop that re-reads WAL frames
// from disk (length and CRC-32C re-checked against the same bytes
// recovery would read) and re-proves a sampled window of certificates
// against the live structure (derivation re-explained, certificate
// re-checked by the independent verifier, structure answer
// cross-checked). Any mismatch is an ErrIntegrity — bit-rot becomes a
// detected event that triggers the self-healing quarantine path,
// instead of a latent divergence discovered at the next failover.
package scrub

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"luf/internal/cert"
	"luf/internal/concurrent"
	"luf/internal/group"
	"luf/internal/wal"
)

// ErrIntegrity marks a failed integrity check. Every scrub failure
// wraps it together with the underlying taxonomy error (fault.ErrIO
// for damaged bytes on disk, fault.ErrInvariantViolated for a
// certificate or structure mismatch), so errors.Is works against
// either identity.
var ErrIntegrity = errors.New("integrity violation")

// Config configures a Scrubber.
type Config[N comparable, L any] struct {
	// Dir is the store directory whose files the disk pass re-reads.
	Dir string
	// G is the label group.
	G group.Group[L]
	// Codec decodes the on-disk frames.
	Codec wal.Codec[N, L]
	// State returns the node's current store, union-find and journal.
	// It is called at every tick (never cached) so a node that swaps
	// its state after a resync is scrubbed against the new state. May
	// be nil for a node with no store (a coordinator scrubbing only its
	// auxiliary logs).
	State func() (*wal.Store[N, L], *concurrent.UF[N, L], *cert.SyncJournal[N, L])
	// AuxLogs lists fenced auxiliary logs — 2PC intent logs and
	// migration logs — whose frames the disk pass re-reads and whose
	// folded state it re-derives every tick (wal.VerifyAuxLog). Without
	// this sweep a corrupt intent tail is found only at redrive time,
	// exactly when the log is needed most.
	AuxLogs []string
	// Gate, when non-nil, is consulted before each tick; a false
	// return skips it. Nodes gate scrubbing off while quarantined or
	// resyncing — the store under repair is gone from disk, and
	// flagging that as corruption would re-trigger the healing that
	// caused it.
	Gate func() bool
	// Sample is the number of certificates re-proved per tick, taken
	// as a rotating window over the store's distinct assertions so
	// successive ticks cover the whole set (default 32).
	Sample int
	// Interval is the background loop period; zero or negative
	// disables the loop (Tick still works on demand).
	Interval time.Duration
	// Seed seeds the window's starting offset (0 picks a fixed
	// default).
	Seed int64
	// OnCorruption, when non-nil, is called with the ErrIntegrity of
	// every failed tick — the hook that triggers quarantine.
	OnCorruption func(error)
}

// Stats is a snapshot of scrubber progress, surfaced in /v1/stats.
type Stats struct {
	// Ticks is the number of completed scrub passes.
	Ticks int64 `json:"ticks"`
	// Skipped is the number of gated-off passes.
	Skipped int64 `json:"skipped,omitempty"`
	// FramesChecked totals disk frames re-verified across all ticks.
	FramesChecked int64 `json:"frames_checked"`
	// CertsChecked totals certificates re-proved across all ticks.
	CertsChecked int64 `json:"certs_checked"`
	// AuxChecked totals intent/migration records re-verified across all
	// ticks of the auxiliary-log sweep.
	AuxChecked int64 `json:"aux_checked,omitempty"`
	// Corruptions is the number of ticks that found damage.
	Corruptions int64 `json:"corruptions,omitempty"`
	// LastError is the most recent integrity failure, empty if none.
	LastError string `json:"last_error,omitempty"`
}

// Scrubber runs integrity ticks, either on demand (Tick) or from a
// background loop (Start). It is safe for concurrent use.
type Scrubber[N comparable, L any] struct {
	cfg Config[N, L]

	mu     sync.Mutex
	stats  Stats
	cursor int

	stop    chan struct{}
	wg      sync.WaitGroup
	stopped bool
}

// New builds a scrubber; call Start for background operation.
func New[N comparable, L any](cfg Config[N, L]) *Scrubber[N, L] {
	if cfg.Sample <= 0 {
		cfg.Sample = 32
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Scrubber[N, L]{
		cfg:    cfg,
		cursor: int(rand.New(rand.NewSource(seed)).Int31()),
		stop:   make(chan struct{}),
	}
}

// Start launches the background loop; it is a no-op when Interval is
// not positive.
func (sc *Scrubber[N, L]) Start() {
	if sc.cfg.Interval <= 0 {
		return
	}
	sc.wg.Add(1)
	go sc.loop()
}

// Stop halts the background loop.
func (sc *Scrubber[N, L]) Stop() {
	sc.mu.Lock()
	if sc.stopped {
		sc.mu.Unlock()
		sc.wg.Wait()
		return
	}
	sc.stopped = true
	close(sc.stop)
	sc.mu.Unlock()
	sc.wg.Wait()
}

// Stats returns cumulative scrub counters.
func (sc *Scrubber[N, L]) Stats() Stats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.stats
}

// loop runs Tick every Interval until stopped. Failures do not stop
// the loop: the OnCorruption hook owns the reaction, and once healing
// finishes the next ticks watch the adopted state.
func (sc *Scrubber[N, L]) loop() {
	defer sc.wg.Done()
	for {
		select {
		case <-sc.stop:
			return
		case <-time.After(sc.cfg.Interval):
			_ = sc.Tick()
		}
	}
}

// Tick runs one integrity pass: the auxiliary-log sweep re-verifies
// the fenced intent/migration logs, the disk pass re-reads and
// re-checks every journal and snapshot frame, then the certificate
// pass re-proves the next Sample-sized window of assertions against
// the live structure. A failure is returned as an ErrIntegrity (and
// passed to OnCorruption); nil means the pass found nothing wrong or
// was gated off. The auxiliary sweep runs even without a store — a
// coordinator's scrubber has only aux logs to watch.
func (sc *Scrubber[N, L]) Tick() error {
	if sc.cfg.Gate != nil && !sc.cfg.Gate() {
		sc.mu.Lock()
		sc.stats.Skipped++
		sc.mu.Unlock()
		return nil
	}
	var store *wal.Store[N, L]
	var uf *concurrent.UF[N, L]
	var journal *cert.SyncJournal[N, L]
	if sc.cfg.State != nil {
		store, uf, journal = sc.cfg.State()
	}
	if store == nil && len(sc.cfg.AuxLogs) == 0 {
		sc.mu.Lock()
		sc.stats.Skipped++
		sc.mu.Unlock()
		return nil
	}
	aux, frames, certs := 0, 0, 0
	var err error
	for _, p := range sc.cfg.AuxLogs {
		n, verr := wal.VerifyAuxLog(p, sc.cfg.Codec)
		aux += n
		if verr != nil {
			err = verr
			break
		}
	}
	if err == nil && store != nil {
		frames, err = wal.VerifyDir(sc.cfg.Dir, sc.cfg.Codec)
		if err == nil {
			certs, err = sc.scrubCerts(store, uf, journal)
		}
	}
	sc.mu.Lock()
	sc.stats.Ticks++
	sc.stats.AuxChecked += int64(aux)
	sc.stats.FramesChecked += int64(frames)
	sc.stats.CertsChecked += int64(certs)
	if err != nil {
		err = fmt.Errorf("%w: %w", ErrIntegrity, err)
		sc.stats.Corruptions++
		sc.stats.LastError = err.Error()
	}
	sc.mu.Unlock()
	if err != nil && sc.cfg.OnCorruption != nil {
		sc.cfg.OnCorruption(err)
	}
	return err
}

// scrubCerts re-proves the current window of assertions with
// wal.Reprove, exactly as certified recovery proves records: each must
// still be derivable, its certificate must pass the independent checker
// with the logged label, and the live structure must answer it
// identically. It returns the number of certificates checked.
func (sc *Scrubber[N, L]) scrubCerts(store *wal.Store[N, L], uf *concurrent.UF[N, L], journal *cert.SyncJournal[N, L]) (int, error) {
	sc.mu.Lock()
	start := sc.cursor
	sc.cursor += sc.cfg.Sample
	sc.mu.Unlock()
	window := store.EntryWindow(start, sc.cfg.Sample)
	for i, e := range window {
		if err := wal.Reprove(sc.cfg.G, uf, journal, e); err != nil {
			return i, fmt.Errorf("scrub: %w", err)
		}
	}
	return len(window), nil
}
