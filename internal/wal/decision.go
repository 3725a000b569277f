package wal

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"luf/internal/fault"
)

// DecisionLog is a coordinator's durable decision log: a framed journal
// (same format and crash semantics as the assert journal) holding the
// lifecycle records of one kind of fenced cross-shard operation — a
// two-phase union intent (OpenIntents, intents.luf) or a class-ownership
// migration (OpenMigrations, migrations.luf). R is the kind's record
// type and S its lifecycle state.
//
// Protocol discipline, enforced here so the coordinator cannot get it
// wrong:
//
//   - Begin fsyncs the operation's opening record (a Pending intent, a
//     Planned migration) before the coordinator may send a single
//     message — the operation is on disk before any participant hears
//     about it.
//   - Transition fsyncs every later state. States only move forward
//     under the kind's predecessor table; re-recording the current state
//     is a no-op (except the kind's progress state, whose repeats carry
//     a watermark), and a backward or skipped move is an invariant
//     violation that appends nothing.
//   - The decision record (an intent's Committed or Aborted, a
//     migration's Flipped or Aborted) is what makes an outcome an
//     outcome. A crash before it is a presumed abort: recovery folds the
//     file and reports every undecided operation for rollback, and a
//     torn decision frame leaves its operation undecided. A crash after
//     it redrives the decided operation to Done; losing a Done record is
//     harmless, because the redrive is idempotent.
//
// Opening the log bumps its coordinator fencing epoch: the highest
// fence token in the file plus one is appended as a new fence record
// and fsynced before the open returns, so every restart is a new epoch
// and participants can reject a predecessor ("stale coordinator") by
// comparing epochs.
//
// A DecisionLog is safe for concurrent use. Like Log it fails sticky:
// after the first I/O error every mutation reports the same structured
// fault.ErrIO error and the coordinator degrades to refusing new
// operations of the kind.
type DecisionLog[R decision[R, S], S lifecycleState] struct {
	log     *Log
	payload func(R) []byte

	epoch uint64 // fixed at open

	mu     sync.Mutex
	nextID uint64
	recs   map[uint64]R
	// deciding holds the ids whose Transition is between its lifecycle
	// check and its fold; idle is signalled when one leaves, so a
	// second transition of the same id checks against the first's
	// outcome instead of racing it to disk.
	deciding map[uint64]bool
	idle     sync.Cond
}

// lifecycleState is a record kind's state type: one named byte.
type lifecycleState interface {
	~byte
	fmt.Stringer
}

// decision is what a record kind supplies to fold through a
// DecisionLog, besides its encoder and decoder.
type decision[R any, S lifecycleState] interface {
	// head returns the operation id and the recorded state.
	head() (id uint64, s S)
	// stamp returns the record with its id, writer epoch and state set.
	stamp(id, epoch uint64, s S) R
	// merge folds a later, lifecycle-legal record of the same operation
	// into this folded one.
	merge(next R) R
	// lifecycle returns the kind's transition table.
	lifecycle() *lifecycle[S]
}

// lifecycle is one record kind's forward-only state machine.
type lifecycle[S lifecycleState] struct {
	// kind names the operation in errors ("intent", "migration").
	kind string
	// begin is the state an operation opens in; only Begin records it.
	begin S
	// progress is a state whose repeats still append, because each one
	// carries a newer watermark; zero when the kind has none.
	progress S
	// preds lists, per later state, the folded states a record may
	// legally follow. Same-state repeats are listed everywhere: a crash
	// between append and ack can duplicate any transition.
	preds map[S][]S
}

// openDecisionLog opens (creating if missing) the decision log at path,
// repairs any torn tail, folds the surviving records into per-operation
// final states, and bumps the fencing epoch durably. Mid-file
// corruption aborts with a structured error; a torn final frame is
// truncated exactly as the assert journal does it.
func openDecisionLog[N comparable, L any, R decision[R, S], S lifecycleState](
	path string, c Codec[N, L], inj *fault.Injector,
	encode func(Codec[N, L], R) []byte, decoded func(DecodeResult[N, L]) []R,
) (*DecisionLog[R, S], error) {
	l, res, err := openLogFile(path, c, inj)
	if err != nil {
		return nil, err
	}
	recs, maxID, err := foldDecisions[R, S](decoded(res))
	if err != nil {
		l.f.Close()
		return nil, fault.IOf("decision log %s: %v", path, err)
	}
	dl := &DecisionLog[R, S]{
		log:      l,
		payload:  func(r R) []byte { return encode(c, r) },
		epoch:    res.Fence + 1,
		nextID:   maxID,
		recs:     recs,
		deciding: map[uint64]bool{},
	}
	dl.idle.L = &dl.mu
	if err := dl.appendDurable(encodeFence(dl.epoch), "append fence"); err != nil {
		l.f.Close()
		return nil, err
	}
	return dl, nil
}

// foldDecisions folds file-order records into per-operation final
// states and returns them with the highest operation id seen.
func foldDecisions[R decision[R, S], S lifecycleState](rs []R) (map[uint64]R, uint64, error) {
	recs := make(map[uint64]R, len(rs))
	var maxID uint64
	for _, r := range rs {
		if err := foldDecision(recs, r); err != nil {
			return nil, 0, err
		}
		if id, _ := r.head(); id > maxID {
			maxID = id
		}
	}
	return recs, maxID, nil
}

// foldDecision applies one file-order record to the folded operations,
// enforcing the kind's forward-only lifecycle.
func foldDecision[R decision[R, S], S lifecycleState](recs map[uint64]R, r R) error {
	id, s := r.head()
	lc := r.lifecycle()
	cur, ok := recs[id]
	if s == lc.begin {
		if ok {
			return fault.Invariantf("duplicate %v record for %s %d", s, lc.kind, id)
		}
		recs[id] = r
		return nil
	}
	allowed, known := lc.preds[s]
	if !known {
		return fault.Invariantf("unknown %s state %d", lc.kind, byte(s))
	}
	if !ok {
		return fault.Invariantf("%v record for unknown %s %d", s, lc.kind, id)
	}
	if _, cs := cur.head(); !slices.Contains(allowed, cs) {
		return fault.Invariantf("%v record for %s %d in state %v", s, lc.kind, id, cs)
	}
	recs[id] = cur.merge(r)
	return nil
}

// appendDurable appends one frame and fsyncs it.
func (dl *DecisionLog[R, S]) appendDurable(payload []byte, what string) error {
	if err := dl.log.appendBare(payload, what); err != nil {
		return err
	}
	return dl.log.Sync()
}

// Begin durably records a new operation in the kind's opening state and
// returns its id; r supplies the body (everything but id, epoch and
// state). When Begin returns, the record is fsynced and a crash at any
// later point is recoverable.
func (dl *DecisionLog[R, S]) Begin(r R) (uint64, error) {
	dl.mu.Lock()
	dl.nextID++
	id := dl.nextID
	r = r.stamp(id, dl.epoch, r.lifecycle().begin)
	dl.mu.Unlock()
	if err := dl.appendDurable(dl.payload(r), "append "+r.lifecycle().kind); err != nil {
		return 0, err
	}
	dl.mu.Lock()
	dl.recs[id] = r
	dl.mu.Unlock()
	return id, nil
}

// Transition durably records r's state, with the payload that state
// carries, for the operation r names by id. Re-recording the current
// state is a no-op except for the kind's progress state; a move the
// lifecycle does not allow (backward, skipped, contradicting a decision,
// or naming an unknown operation) is an invariant violation.
//
// The check, the fsynced append and the fold of one id act as one
// step: concurrent transitions of the same id run one at a time, so of
// two contradicting decisions the second sees the first and appends
// nothing. Transitions of different ids still overlap their fsyncs.
func (dl *DecisionLog[R, S]) Transition(r R) error {
	id, s := r.head()
	lc := r.lifecycle()
	allowed, later := lc.preds[s]
	if !later {
		return fault.Invariantf("%s %d: %v is not a transition", lc.kind, id, s)
	}
	dl.mu.Lock()
	defer dl.mu.Unlock()
	for dl.deciding[id] {
		dl.idle.Wait()
	}
	cur, ok := dl.recs[id]
	if !ok {
		return fault.Invariantf("%v unknown %s %d", s, lc.kind, id)
	}
	_, cs := cur.head()
	if cs == s && s != lc.progress {
		return nil
	}
	if !slices.Contains(allowed, cs) {
		return fault.Invariantf("%s %d: cannot move %v → %v", lc.kind, id, cs, s)
	}
	r = r.stamp(id, dl.epoch, s)
	dl.deciding[id] = true
	dl.mu.Unlock()
	err := dl.appendDurable(dl.payload(r), "append "+lc.kind)
	dl.mu.Lock()
	delete(dl.deciding, id)
	dl.idle.Broadcast()
	if err != nil {
		return err
	}
	return foldDecision(dl.recs, r)
}

// Epoch returns the coordinator fencing epoch this open established.
func (dl *DecisionLog[R, S]) Epoch() uint64 { return dl.epoch }

// Err returns the underlying log's sticky I/O error, or nil.
func (dl *DecisionLog[R, S]) Err() error { return dl.log.Err() }

// Get returns the folded state of operation id.
func (dl *DecisionLog[R, S]) Get(id uint64) (R, bool) {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	r, ok := dl.recs[id]
	return r, ok
}

// Records returns the folded operations sorted by id — what recovery
// walks to presume-abort the undecided ones and redrive the decided.
func (dl *DecisionLog[R, S]) Records() []R {
	dl.mu.Lock()
	defer dl.mu.Unlock()
	out := make([]R, 0, len(dl.recs))
	for _, r := range dl.recs {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		a, _ := out[i].head()
		b, _ := out[j].head()
		return a < b
	})
	return out
}

// Close syncs and closes the underlying log file.
func (dl *DecisionLog[R, S]) Close() error { return dl.log.Close() }

// OpenIntents opens the cross-shard union coordinator's two-phase
// intent log. An intent opens Pending (its full union body); Committed
// or Aborted is the decision; Done records that both bridge edges are
// applied, so recovery stops re-driving the intent.
func OpenIntents[N comparable, L any](path string, c Codec[N, L], inj *fault.Injector) (*DecisionLog[IntentRecord[N, L], IntentState], error) {
	return openDecisionLog(path, c, inj, encodeIntent[N, L],
		func(res DecodeResult[N, L]) []IntentRecord[N, L] { return res.Intents })
}

var intentLifecycle = lifecycle[IntentState]{
	kind:  "intent",
	begin: IntentPending,
	preds: map[IntentState][]IntentState{
		IntentCommitted: {IntentPending, IntentCommitted},
		IntentAborted:   {IntentPending, IntentAborted},
		IntentDone:      {IntentCommitted, IntentDone},
	},
}

func (r IntentRecord[N, L]) head() (uint64, IntentState) { return r.ID, r.State }

func (r IntentRecord[N, L]) stamp(id, epoch uint64, s IntentState) IntentRecord[N, L] {
	r.ID, r.Epoch, r.State = id, epoch, s
	return r
}

// merge keeps the Pending body and takes the later state: decision
// records carry nothing else.
func (r IntentRecord[N, L]) merge(next IntentRecord[N, L]) IntentRecord[N, L] {
	r.State = next.State
	return r
}

func (IntentRecord[N, L]) lifecycle() *lifecycle[IntentState] { return &intentLifecycle }

// OpenMigrations opens the rebalancing coordinator's class-ownership
// migration log. A migration opens Planned (class, source, destination,
// reason); Frozen, Copying (a re-proved-entry watermark) and Verifying
// precede the decision; Flipped is the fsynced ownership decision
// carrying the new map epoch and the class's member nodes, so recovery
// rebuilds the override table from Flipped records alone; Aborted is
// reachable from every pre-flip state; Done records that the source
// fenced the moved nodes and released its freeze.
func OpenMigrations[N comparable, L any](path string, c Codec[N, L], inj *fault.Injector) (*DecisionLog[MigrationRecord[N], MigrationState], error) {
	return openDecisionLog(path, c, inj, encodeMigration[N, L],
		func(res DecodeResult[N, L]) []MigrationRecord[N] { return res.Migrations })
}

var migrationLifecycle = lifecycle[MigrationState]{
	kind:     "migration",
	begin:    MigrationPlanned,
	progress: MigrationCopying,
	preds: map[MigrationState][]MigrationState{
		MigrationFrozen:    {MigrationPlanned, MigrationFrozen},
		MigrationCopying:   {MigrationFrozen, MigrationCopying},
		MigrationVerifying: {MigrationFrozen, MigrationCopying, MigrationVerifying},
		MigrationFlipped:   {MigrationVerifying, MigrationFlipped},
		MigrationDone:      {MigrationFlipped, MigrationDone},
		MigrationAborted:   {MigrationPlanned, MigrationFrozen, MigrationCopying, MigrationVerifying, MigrationAborted},
	},
}

func (r MigrationRecord[N]) head() (uint64, MigrationState) { return r.ID, r.State }

func (r MigrationRecord[N]) stamp(id, epoch uint64, s MigrationState) MigrationRecord[N] {
	r.ID, r.Epoch, r.State = id, epoch, s
	return r
}

// merge keeps the Planned body and takes the later state, holding the
// Copying watermark as a maximum (a resumed copy may re-record a lower
// one) and taking the Flipped decision's nodes and map epoch.
func (r MigrationRecord[N]) merge(next MigrationRecord[N]) MigrationRecord[N] {
	r.State = next.State
	switch next.State {
	case MigrationCopying:
		r.Copied = max(r.Copied, next.Copied)
	case MigrationFlipped:
		if len(next.Nodes) > 0 {
			r.Nodes = next.Nodes
		}
		r.MapEpoch = max(r.MapEpoch, next.MapEpoch)
	}
	return r
}

func (MigrationRecord[N]) lifecycle() *lifecycle[MigrationState] { return &migrationLifecycle }
