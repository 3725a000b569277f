// Package luf is the public facade of the labeled union-find library, a Go
// implementation of "Relational Abstractions Based on Labeled Union-Find"
// (Lesbre, Lemerre, Ait-El-Hara, Bobot; PLDI 2025).
//
// The core data structure is a union-find whose parent edges carry labels
// from a group ⟨L, Compose, Inverse, Identity⟩; composing labels along find
// paths yields the relation between any two connected nodes, turning the
// transitive closure of injective relations (equalities, constant offsets,
// affine maps y = a·x + b, xor-rotations, permutations, …) into near-
// constant-time queries:
//
//	uf := luf.New[string](luf.TVPE{})
//	uf.AddRelation("x", "y", luf.AffineInt(3, 4)) // y = 3x + 4
//	uf.AddRelation("y", "z", luf.AffineInt(1, 2)) // z = y + 2
//	rel, ok := uf.GetRelation("x", "z")           // z = 3x + 6
//
// Sub-packages accessible through this facade:
//
//   - groups (Delta, QDiff, TVPE, ModTVPE, XorRot, Parity, MatGroup, Perm,
//     Free, Reloc) — the label groups of Section 4.2 of the paper;
//   - InfoUF — per-class information transported by a group action
//     (Section 3.3);
//   - PUF / Inter — the confluently persistent variant with the
//     abstract-join intersection (Appendix A);
//   - value domains (intervals, congruences, known bits and their reduced
//     products) with refine operators and exact group actions (Section 5);
//   - factorized maps and equality detection (Sections 5.2 and 6.1);
//   - a Shostak linear-arithmetic theory with canon_rel (Section 6.2);
//   - the evaluation substrates: a propagation-based constraint solver
//     (Section 7.1) and a mini-C abstract interpreter (Section 7.2).
package luf

import (
	"luf/internal/cert"
	"luf/internal/concurrent"
	"luf/internal/core"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/invariant"
	"luf/internal/solver"
	"luf/internal/wal"
)

// Group is the label-group descriptor interface (Assumption 2 of the
// paper); see package group for the laws implementations must satisfy.
type Group[L any] = group.Group[L]

// UF is the mutable labeled union-find (Figure 4 of the paper).
type UF[N comparable, L any] = core.UF[N, L]

// InfoUF extends UF with per-class information at representatives,
// transported by a group action (Figure 5).
type InfoUF[N comparable, L, I any] = core.InfoUF[N, L, I]

// Action is the group action interface used by InfoUF (Section 3.3).
type Action[L, I any] = core.Action[L, I]

// PUF is the confluently persistent labeled union-find (Appendix A).
type PUF[L any] = core.PUF[L]

// Edge is a labeled parent edge of UF, as exposed by ForEachEdge and
// the InjectEdge test hook.
type Edge[N comparable, L any] = core.Edge[N, L]

// PEdge is a labeled parent edge of PUF.
type PEdge[L any] = core.PEdge[L]

// Conflict describes an inconsistent AddRelation call (Section 3.2).
type Conflict[N comparable, L any] = core.Conflict[N, L]

// ConflictFunc handles conflicts.
type ConflictFunc[N comparable, L any] = core.ConflictFunc[N, L]

// Option configures a UF.
type Option[N comparable, L any] = core.Option[N, L]

// New returns an empty labeled union-find over nodes N with label group g.
func New[N comparable, L any](g Group[L], opts ...Option[N, L]) *UF[N, L] {
	return core.New[N, L](g, opts...)
}

// NewInfo attaches per-class information to a union-find via the action.
func NewInfo[N comparable, L, I any](u *UF[N, L], act Action[L, I]) *InfoUF[N, L, I] {
	return core.NewInfo[N, L, I](u, act)
}

// NewPersistent returns an empty persistent labeled union-find (nodes are
// non-negative ints).
func NewPersistent[L any](g Group[L]) PUF[L] { return core.NewPersistent[L](g) }

// Inter intersects two persistent union-finds: the most precise structure
// relating exactly the pairs both inputs relate with equal labels — the
// abstract join (Theorem A.1).
func Inter[L any](a, b PUF[L]) PUF[L] { return core.Inter[L](a, b) }

// PInfo is a persistent labeled union-find with a factorized per-class
// value map (the extension suggested at the end of Appendix A).
type PInfo[L, I any] = core.PInfo[L, I]

// JoinAction is the action interface PInfo's Join needs (Apply/Meet/Top
// plus Join/Eq on the information lattice).
type JoinAction[L, I any] = core.JoinAction[L, I]

// NewPersistentInfo pairs a persistent union-find with a factorized value
// map transported by the action.
func NewPersistentInfo[L, I any](u PUF[L], act JoinAction[L, I]) PInfo[L, I] {
	return core.NewPersistentInfo[L, I](u, act)
}

// Join computes the abstract join of two persistent factorized maps:
// relations are intersected and class values joined through the action.
func Join[L, I any](a, b PInfo[L, I]) PInfo[L, I] { return core.Join[L, I](a, b) }

// WithConflictHandler installs a conflict callback.
func WithConflictHandler[N comparable, L any](f ConflictFunc[N, L]) Option[N, L] {
	return core.WithConflictHandler[N, L](f)
}

// WithSeed seeds the randomized linking for reproducible tree shapes.
func WithSeed[N comparable, L any](seed int64) Option[N, L] {
	return core.WithSeed[N, L](seed)
}

// CheckGroupLaws verifies the group axioms on sample labels; use it to
// validate user-defined label groups.
func CheckGroupLaws[L any](g Group[L], samples []L) error {
	return group.CheckLaws[L](g, samples)
}

// Label groups of Section 4.2 (see package group for documentation).
type (
	// Delta is the constant-difference group over int64 (Example 2.1).
	Delta = group.Delta
	// QDiff is the constant-difference group over rationals.
	QDiff = group.QDiff
	// TVPE is the two-values-per-equality group y = a·x + b over ℚ
	// (Example 4.6).
	TVPE = group.TVPE
	// Affine is a TVPE label.
	Affine = group.Affine
	// ModTVPE is modular TVPE over ℤ/2ʷℤ with odd slopes (Example 4.8).
	ModTVPE = group.ModTVPE
	// XorRot is the xor-rotate bitvector group (Example 4.7).
	XorRot = group.XorRot
	// XorConst is the constant bitvector comparison group (Example 2.3).
	XorConst = group.XorConst
	// Parity is the parity-comparison group (Example 4.4).
	Parity = group.Parity
	// MatGroup is the invertible affine matrix group over ℚⁿ
	// (Example 4.9).
	MatGroup = group.MatGroup
	// Perm is the symmetric group on {0..n-1}.
	Perm = group.Perm
	// Free is the free group over integer generators (proof production).
	Free = group.Free
	// Reloc is the sequence-relocation group.
	Reloc = group.Reloc
)

// NewAffine returns the TVPE label y = a·x + b; it reports
// ErrInvalidLabel when a = 0.
var NewAffine = group.NewAffine

// MustAffine is NewAffine, panicking on invalid labels.
var MustAffine = group.MustAffine

// AffineInt returns the TVPE label with integer coefficients (panics
// on zero slope).
var AffineInt = group.AffineInt

// NewModTVPE returns the modular TVPE group of width w; it reports
// ErrInvalidLabel outside [1,64].
var NewModTVPE = group.NewModTVPE

// MustModTVPE is NewModTVPE, panicking on invalid widths.
var MustModTVPE = group.MustModTVPE

// NewXorRot returns the xor-rotate group of width w, or ErrInvalidLabel
// outside [1,64].
var NewXorRot = group.NewXorRot

// MustXorRot is NewXorRot, panicking on invalid widths.
var MustXorRot = group.MustXorRot

// NewXorConst returns the constant-xor group of width w, or
// ErrInvalidLabel outside [1,64].
var NewXorConst = group.NewXorConst

// MustXorConst is NewXorConst, panicking on invalid widths.
var MustXorConst = group.MustXorConst

// NewMatGroup returns the invertible affine map group on ℚⁿ, or
// ErrInvalidLabel for non-positive dimensions.
var NewMatGroup = group.NewMatGroup

// MustMatGroup is NewMatGroup, panicking on invalid dimensions.
var MustMatGroup = group.MustMatGroup

// NewPerm returns the symmetric group S_n, or ErrInvalidLabel for
// non-positive n.
var NewPerm = group.NewPerm

// MustPerm is NewPerm, panicking on invalid n.
var MustPerm = group.MustPerm

// ThroughPoints returns the affine label through two points (the
// "joining constants" rule of Section 7.2).
var ThroughPoints = group.ThroughPoints

// Intersect solves two conflicting affine relations to a point
// (Section 3.2's conflict handling).
var Intersect = group.Intersect

// Error taxonomy (package internal/fault). Every classified failure in
// the library wraps exactly one of these sentinels; test with
// errors.Is. Internal packages are unimportable from outside the
// module, so the sentinels are re-exported here.
var (
	// ErrBudgetExhausted: a step budget ran out; partial results are
	// still valid.
	ErrBudgetExhausted = fault.ErrBudgetExhausted
	// ErrDeadlineExceeded: a wall-clock deadline expired.
	ErrDeadlineExceeded = fault.ErrDeadlineExceeded
	// ErrCanceled: an attached context.Context was canceled.
	ErrCanceled = fault.ErrCanceled
	// ErrInvalidLabel: caller-supplied label or group parameters are
	// outside the group's domain.
	ErrInvalidLabel = fault.ErrInvalidLabel
	// ErrInvariantViolated: an internal invariant does not hold
	// (library bug or corrupted structure).
	ErrInvariantViolated = fault.ErrInvariantViolated
	// ErrOverflow: checked integer arithmetic overflowed.
	ErrOverflow = fault.ErrOverflow
	// ErrConflict: contradictory labels on one pair of nodes, or a
	// misused conflict callback.
	ErrConflict = fault.ErrConflict
	// ErrInjected: the failure was manufactured by fault injection
	// (testing only).
	ErrInjected = fault.ErrInjected
	// ErrIO: a durable-store I/O failure (torn journal write, fsync
	// error, corrupted record); the store degrades to read-only.
	ErrIO = fault.ErrIO
	// ErrUnavailable: the serving layer refused the request (shed load,
	// draining, or an open circuit breaker); safe to retry later.
	ErrUnavailable = fault.ErrUnavailable
)

// Protect runs f and converts any panic into a classified error:
// taxonomy-tagged panics (overflow in Delta composition, Must
// constructors, invariant violations) keep their sentinel; anything
// else maps to ErrInvariantViolated. It is the panic-free boundary for
// callers that cannot tolerate a crash:
//
//	err := luf.Protect(func() {
//	    uf.AddRelation(x, y, label) // may panic on label overflow
//	})
//	if errors.Is(err, luf.ErrOverflow) { ... }
func Protect(f func()) (err error) {
	defer fault.RecoverTo(&err)
	f()
	return nil
}

// StopLabel returns a short, stable label ("budget", "deadline",
// "conflict", ...) for a classified error, suitable for logging and
// aggregation; injected faults are prefixed "injected:".
var StopLabel = fault.StopLabel

// Certificate is a machine-checkable proof of one answer: a chain of
// asserted relations whose labels compose to the claimed relation
// (Section 8 / Nieuwenhuis–Oliveras proof production, generalized to
// any label group). Produced by Explain and checked — independently of
// any union-find internals — by CheckCertificate.
type Certificate[N comparable, L any] = cert.Certificate[N, L]

// CertStep is one link of a certificate chain.
type CertStep[N comparable, L any] = cert.Step[N, L]

// CertJournal records accepted assertions (with caller-supplied
// reasons) for certificate production; attach one to a union-find with
// WithJournal.
type CertJournal[N comparable, L any] = cert.Journal[N, L]

// NewCertJournal returns an empty assertion journal over g.
func NewCertJournal[N comparable, L any](g Group[L]) *CertJournal[N, L] {
	return cert.NewJournal[N, L](g)
}

// WithJournal puts the union-find in recording mode: every accepted
// AddRelation/AddRelationReason call is journaled (exactly as
// asserted, untouched by path compression), so Explain can later
// produce certificates for the structure's answers:
//
//	j := luf.NewCertJournal[string, int64](luf.Delta{})
//	uf := luf.New[string](luf.Delta{}, luf.WithJournal(j))
//	uf.AddRelationReason("x", "y", 2, "input-eq-7")
//	c, _ := luf.Explain(uf, j, "x", "y")
//	err := luf.CheckCertificate(c, luf.Delta{}) // nil: answer is proved
func WithJournal[N comparable, L any](j *CertJournal[N, L]) Option[N, L] {
	return core.WithRecorder[N, L](j.Record)
}

// Explain certifies the structure's answer about (x, y): the returned
// certificate claims exactly what GetRelation(x, y) reports, with a
// minimal evidence chain drawn from the journal. Unrelated nodes (or a
// journal that cannot justify the answer) yield a classified error.
// The certificate is self-contained: CheckCertificate replays it
// without consulting the union-find.
func Explain[N comparable, L any](u *UF[N, L], j *CertJournal[N, L], x, y N) (Certificate[N, L], error) {
	ans, ok := u.GetRelation(x, y)
	if !ok {
		return Certificate[N, L]{}, fault.Invalidf("Explain(%v, %v): nodes are not related", x, y)
	}
	c, err := j.Explain(x, y)
	if err != nil {
		return Certificate[N, L]{}, err
	}
	// The claim is the structure's answer; the chain is the journal's
	// evidence. If corruption made them disagree, CheckCertificate
	// rejects the certificate — that is the point.
	c.Label = ans
	return c, nil
}

// ExplainPersistent certifies a persistent union-find's answer about
// (x, y) from its own journal (the structure must have been built from
// a WithRecording() version with AddRelationReason calls).
func ExplainPersistent[L any](u PUF[L], x, y int) (Certificate[int, L], error) {
	ans, ok := u.GetRelation(x, y)
	if !ok {
		return Certificate[int, L]{}, fault.Invalidf("ExplainPersistent(%d, %d): nodes are not related", x, y)
	}
	j := cert.NewJournal[int, L](u.Group())
	u.ForEachJournalEntry(j.Record)
	c, err := j.Explain(x, y)
	if err != nil {
		return Certificate[int, L]{}, err
	}
	c.Label = ans
	return c, nil
}

// CheckCertificate replays a certificate against the label group: it
// composes labels along the chain, checks endpoints, and compares the
// result with the claim. It knows nothing about union-find internals,
// so a data-structure bug can never make a wrong answer check out.
func CheckCertificate[N comparable, L any](c Certificate[N, L], g Group[L]) error {
	return cert.Check(c, g)
}

// FormatCertificate renders a certificate for humans, one step per
// line with its reason.
func FormatCertificate[N comparable, L any](c Certificate[N, L], g Group[L]) string {
	return cert.Format(c, g)
}

// WithAudit makes the union-find record every accepted AddRelation call
// so CheckUF can brute-force-recompose each asserted relation
// (Theorem 3.1). It costs O(1) memory per accepted assertion.
func WithAudit[N comparable, L any]() Option[N, L] {
	return core.WithAudit[N, L]()
}

// CheckUF verifies the runtime invariants of a labeled union-find
// without mutating it: acyclic parent forest, consistent member lists,
// and — when the structure was built with WithAudit — that every
// recorded assertion is still derivable with the same label. It
// returns nil or an ErrInvariantViolated-classified error.
func CheckUF[N comparable, L any](u *UF[N, L]) error {
	return invariant.CheckUF[N, L](u)
}

// CheckInfoUF additionally verifies that per-class information lives
// only at representatives (Section 3.3's invariant).
func CheckInfoUF[N comparable, L, I any](u *InfoUF[N, L, I]) error {
	return invariant.CheckInfoUF[N, L, I](u)
}

// CheckPUF verifies the Appendix A invariants of a persistent
// union-find: eager collapse (every node points directly at its root),
// identity self-labels at roots, minimal representatives, and a class
// index consistent with the parent edges.
func CheckPUF[L any](u PUF[L]) error {
	return invariant.CheckPUF[L](u)
}

// Concurrent is the thread-safe labeled union-find: the same relational
// semantics as UF over a flat array of atomically published parent
// edges — lock-free reads, unions linearized at one compare-and-swap —
// safe for any mix of goroutines calling AddRelation, GetRelation,
// Find and the batch APIs. The soundness of its lock-free read path
// rests on relations being persistent facts — once asserted, they hold
// forever — so a parent edge, once read, can never be invalidated. See
// CONCURRENCY.md for the read/write protocol and its guarantees.
type Concurrent[N comparable, L any] = concurrent.UF[N, L]

// ConcurrentOption configures a Concurrent union-find.
type ConcurrentOption[N comparable, L any] = concurrent.Option[N, L]

// ConcurrentStats is a snapshot of a Concurrent structure's operation
// counters (finds, unions, conflicts, CAS retries, path-halving
// records published).
type ConcurrentStats = concurrent.Stats

// NewConcurrent returns an empty thread-safe labeled union-find over
// label group g:
//
//	uf := luf.NewConcurrent[string](luf.Delta{})
//	go uf.AddRelation("x", "y", 2)
//	go uf.GetRelation("x", "y")
func NewConcurrent[N comparable, L any](g Group[L], opts ...ConcurrentOption[N, L]) *Concurrent[N, L] {
	return concurrent.New[N, L](g, opts...)
}

// WithConcurrentJournal puts a Concurrent union-find in recording mode:
// each accepted assertion's link CAS and journal append happen in one
// critical section, so certificates drawn from the journal are
// consistent with every answer the structure has given. Use
// ExplainConcurrent to certify answers.
func WithConcurrentJournal[N comparable, L any](j *CertJournal[N, L]) ConcurrentOption[N, L] {
	return concurrent.WithJournal[N, L](j)
}

// ExplainConcurrent certifies a Concurrent structure's answer about
// (x, y), exactly as Explain does for the sequential UF.
func ExplainConcurrent[N comparable, L any](u *Concurrent[N, L], j *CertJournal[N, L], x, y N) (Certificate[N, L], error) {
	ans, ok := u.GetRelation(x, y)
	if !ok {
		return Certificate[N, L]{}, fault.Invalidf("ExplainConcurrent(%v, %v): nodes are not related", x, y)
	}
	c, err := j.Explain(x, y)
	if err != nil {
		return Certificate[N, L]{}, err
	}
	c.Label = ans
	return c, nil
}

// Assert is one relation assertion in a batch: n --label--> m, with an
// optional journal reason.
type Assert[N comparable, L any] = concurrent.Assert[N, L]

// AssertResult is the outcome of one batched assertion: OK reports
// acceptance (false = conflict), Err carries a classified budget or
// injected failure when the operation was skipped.
type AssertResult = concurrent.AssertResult

// BatchQuery is one relation query in a batch.
type BatchQuery[N comparable] = concurrent.Query[N]

// BatchQueryResult is the outcome of one batched query.
type BatchQueryResult[L any] = concurrent.QueryResult[L]

// BatchOptions sets the worker count and resource limits of a batch
// call; see Concurrent.AssertBatch and Concurrent.QueryBatch.
type BatchOptions = concurrent.BatchOptions

// Limits bounds a computation's resources: a step budget, a wall-clock
// deadline, and a context, checked on a configurable stride. Used by
// BatchOptions; exhausted batch operations come back with an
// ErrBudgetExhausted-classified error instead of aborting the batch.
type Limits = fault.Limits

// Portfolio races solver variants on one problem, first decisive answer
// wins; losers are canceled through a shared context.
type Portfolio = concurrent.Portfolio

// PortfolioOutcome reports a portfolio race: the winning variant, its
// result, and every variant's final state.
type PortfolioOutcome = concurrent.PortfolioOutcome

// NewPortfolio returns a portfolio over the given solver variants
// (default: all three of Section 7.1).
func NewPortfolio(variants ...SolveVariant) *Portfolio {
	return concurrent.NewPortfolio(variants...)
}

// SolveVariant names a solver variant of Section 7.1.
type SolveVariant = solver.Variant

// SolveBase is the propagation solver without union-find sharing.
const SolveBase = solver.Base

// SolveLabeledUF is the solver sharing relations through a labeled
// union-find.
const SolveLabeledUF = solver.LabeledUF

// SolveGroupAction is the solver transporting bounds through the group
// action.
const SolveGroupAction = solver.GroupAction

// SyncCertJournal is the concurrency-safe certificate journal: the
// recording backend of the serving layer, safe to share between a
// Concurrent union-find and explain/certify callers. Attach one with
// WithSyncCertJournal; certificates come from its Explain method.
type SyncCertJournal[N comparable, L any] = cert.SyncJournal[N, L]

// NewSyncCertJournal returns an empty concurrency-safe assertion
// journal over g.
func NewSyncCertJournal[N comparable, L any](g Group[L]) *SyncCertJournal[N, L] {
	return cert.NewSyncJournal[N, L](g)
}

// WithSyncCertJournal puts a Concurrent union-find in recording mode
// backed by a concurrency-safe journal, so assertions from any
// goroutine are captured for certificate production:
//
//	j := luf.NewSyncCertJournal[string](luf.Delta{})
//	uf := luf.NewConcurrent[string](luf.Delta{}, luf.WithSyncCertJournal(j))
func WithSyncCertJournal[N comparable, L any](j *SyncCertJournal[N, L]) ConcurrentOption[N, L] {
	return concurrent.WithRecorder[N, L](j.Record)
}

// WALStore is the crash-safe durable store of the serving layer: a
// length-prefixed, checksummed, fsync-batched write-ahead journal of
// accepted assertions with periodic snapshots. Recovery replays every
// entry through the group operations and re-proves it with the
// independent certificate checker; a torn tail (crash mid-append) is
// repaired, anything else corrupt aborts with an ErrIO-classified
// error. See OPERATIONS.md for the format and durability contract.
type WALStore[N comparable, L any] = wal.Store[N, L]

// WALCodec serializes nodes and labels for the write-ahead journal;
// WALDeltaCodec and WALTVPECodec cover the built-in instantiations.
type WALCodec[N comparable, L any] = wal.Codec[N, L]

// WALRecovered describes what a recovery restored: the rebuilt
// union-find, its certificate journal, and the entry/snapshot/torn-tail
// accounting.
type WALRecovered[N comparable, L any] = wal.Recovered[N, L]

// WALDeltaCodec is the serving-layer codec: string nodes,
// constant-difference int64 labels.
type WALDeltaCodec = wal.DeltaCodec

// WALTVPECodec is the analyzer codec: int SSA nodes, TVPE (affine over
// ℚ) labels.
type WALTVPECodec = wal.TVPECodec

// OpenWAL opens (or creates) a durable store in dir and runs certified
// recovery over whatever a previous process persisted:
//
//	st, rec, err := luf.OpenWAL(dir, luf.Delta{}, luf.WALDeltaCodec{})
//	// rec.UF serves; st.Append + st.Commit make new assertions durable
func OpenWAL[N comparable, L any](dir string, g Group[L], c WALCodec[N, L]) (*WALStore[N, L], *WALRecovered[N, L], error) {
	return wal.Open(dir, g, c, wal.Options{})
}
