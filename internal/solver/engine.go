package solver

import (
	"context"
	"fmt"
	"time"

	"luf/internal/cert"
	"luf/internal/core"
	"luf/internal/domain"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/interval"
	"luf/internal/invariant"
	"luf/internal/rational"
	"luf/internal/shostak"
)

// Variant selects the solver configuration of the Section 7.1 comparison.
type Variant int

// Solver variants.
const (
	// Base is the original engine: Shostak detects only exact
	// equalities of canonized terms.
	Base Variant = iota
	// LabeledUF groups terms at constant difference in a labeled
	// union-find (Section 6.2) and propagates values pairwise across
	// each relational class.
	LabeledUF
	// GroupAction also stores one value per relational class,
	// transported by the constant-difference group action (Section 5.2).
	GroupAction
)

// String returns the variant's name as the paper's Table 1 prints it.
func (v Variant) String() string {
	switch v {
	case LabeledUF:
		return "LABELED-UF"
	case GroupAction:
		return "GROUP-ACTION"
	}
	return "BASE"
}

// Options bound the propagation effort (the paper's slow-convergence
// guards and the step budget standing in for the wall-clock timeout).
type Options struct {
	MaxSteps      int // total propagator executions; 0 = default
	MaxVarUpdates int // per-variable refinement budget; 0 = default
	MaxBoundWords int // interval bound storage limit in words; 0 = default (20)
	// Deadline, when non-zero, bounds wall-clock time instead of only
	// steps — the paper's actual timeout mechanism (60 s per problem).
	// Results then depend on the machine; the step budget is the
	// deterministic default.
	Deadline time.Duration
	// Ctx, when non-nil, allows external cancellation; checked on the
	// same stride as the deadline.
	Ctx context.Context
	// Inject, when non-nil, deterministically injects faults (failed
	// budget checks, rejected labels, forced conflicts) for robustness
	// testing; see internal/fault.
	Inject *fault.Injector
	// CheckInvariants audits the Shostak layer's labeled union-find on
	// exit (package invariant): the parent forest, class rings, and a
	// brute-force recomposition of every accepted relation, read from
	// the journal Certify also uses, and under GroupAction that class
	// values sit only at representatives. A detected violation
	// overrides the verdict with Unknown and a classified Stop. It emits
	// no certificates on its own.
	CheckInvariants bool
	// Certify runs the Shostak layer's union-find in recording mode and
	// attaches proof certificates to the result: one Relation
	// certificate per (member, representative) pair of the final
	// relational state, and a Conflict certificate (UNSAT core) when
	// unsatisfiability was detected relationally. Certificates replay
	// with cert.Check, independently of the solver.
	Certify bool
}

// Result is a solver run outcome.
type Result struct {
	Verdict Verdict
	Steps   int // propagator executions consumed
	// NumRelations is the number of constant-difference relations the
	// Shostak layer pushed into the labeled union-find.
	NumRelations int
	// Stop is nil when propagation ran to completion; otherwise it
	// classifies why the run stopped early (fault.ErrBudgetExhausted,
	// fault.ErrDeadlineExceeded, fault.ErrCanceled, an injected fault,
	// or an invariant violation), and Partial holds the best-known
	// state. errors.Is distinguishes the causes.
	Stop error
	// Partial is the structured degraded result of an early stop: the
	// abstract values reached so far are still a sound
	// over-approximation of the solution set.
	Partial *Partial
	// Certs holds the Relation certificates of the final relational
	// state (one per non-representative class member), when
	// Options.Certify was set. Verify with cert.Check(c, group.QDiff{}).
	Certs []cert.Certificate[int, rational.Q]
	// ConflictCert is the UNSAT core when the Unsat verdict came from a
	// relational contradiction (two different constant differences
	// between one pair of variables); nil for arithmetic-only
	// unsatisfiability, which leaves no relational evidence chain.
	ConflictCert *cert.Certificate[int, rational.Q]
}

// Partial is the best-known state of a run that stopped early.
type Partial struct {
	Values     []domain.IC // per-variable best-known abstract value
	Determined int         // variables pinned to a single rational
	Bounded    int         // variables with at least one finite interval bound
	Pending    int         // constraints still awaiting propagation
}

// Solve runs the given variant on the problem within the option budgets.
func Solve(p *Problem, variant Variant, opt Options) Result {
	if opt.MaxSteps == 0 {
		opt.MaxSteps = 200000
	}
	if opt.MaxVarUpdates == 0 {
		opt.MaxVarUpdates = 400
	}
	if opt.MaxBoundWords == 0 {
		opt.MaxBoundWords = 20
	}
	s := &engine{p: p, variant: variant, opt: opt}
	s.guard = fault.NewGuard(fault.Limits{
		MaxSteps: opt.MaxSteps,
		Deadline: opt.Deadline,
		Ctx:      opt.Ctx,
		Inject:   opt.Inject,
	})
	return s.run()
}

// engine is one solver run.
type engine struct {
	p       *Problem
	variant Variant
	opt     Options
	guard   *fault.Guard

	theory  *shostak.Theory
	journal *cert.Journal[int, rational.Q] // non-nil iff Options.Certify or CheckInvariants
	store   valueStore
	watch   [][]int // var -> constraint indices
	queue   []int
	inQueue []bool
	updates []int
	numRel  int
	bottom  bool
	stopErr error // first injected-fault stop, if any
	// changes counts store refinements that changed a value; propLinear
	// re-reads a cached interval only after it moved on.
	changes int
}

// valueStore abstracts where abstract values live: a plain array (Base,
// LabeledUF) or a factorized map at class representatives (GroupAction).
type valueStore interface {
	get(v int) domain.IC
	// refine meets v's value with val; it reports whether v's observable
	// value changed and whether ⊥ was reached.
	refine(v int, val domain.IC) (changed, bottom bool)
}

// arrayStore is the unfactored value map.
type arrayStore struct {
	vals     []domain.IC
	maxWords int
}

func (s *arrayStore) get(v int) domain.IC { return s.vals[v] }

func (s *arrayStore) refine(v int, val domain.IC) (bool, bool) {
	nv := s.vals[v].Meet(val)
	if nv.IsBottom() {
		s.vals[v] = nv
		return true, true
	}
	nv = nv.LimitWords(s.maxWords).Meet(s.vals[v])
	if nv.Eq(s.vals[v]) {
		return false, false
	}
	s.vals[v] = nv
	return true, false
}

// factorStore keeps one value per relational class at the representative
// (Section 5.2 map factorization) inside an InfoUF over the
// constant-difference action. The InfoUF hangs on the Shostak layer's Δ,
// so each union Δ performs merges the two classes' values.
type factorStore struct {
	info     *core.InfoUF[int, rational.Q, domain.IC]
	maxWords int
}

func (s *factorStore) get(v int) domain.IC { return s.info.GetInfo(v) }

func (s *factorStore) refine(v int, val domain.IC) (bool, bool) {
	// One find; val travels to the root once: v's value is cur - l.
	r, l, cur := s.info.RootInfo(v)
	nv := cur.Meet(val.AddConst(l))
	if nv.IsBottom() {
		s.info.AddInfo(v, val) // ⊥ ends the run; store what AddInfo always stored
		return true, true
	}
	if nv.Words()+l.Words()+1 > s.maxWords {
		// Shifting by l may push a bound of v's view past the word guard,
		// which applies in v's coordinates: refine there.
		old := cur.AddConst(l.Neg())
		nv = old.Meet(val).LimitWords(s.maxWords).Meet(old).AddConst(l)
	}
	if nv.Eq(cur) {
		return false, false
	}
	s.info.SetRoot(r, nv)
	return true, false
}

// result assembles a Result, attaching the degraded partial state when
// the run stopped early and running the opt-in invariant audit.
func (e *engine) result(v Verdict, stop error) Result {
	r := Result{Verdict: v, Steps: e.guard.Steps(), NumRelations: e.numRel, Stop: stop}
	if e.opt.CheckInvariants && e.theory != nil {
		var err error
		if fs, ok := e.store.(*factorStore); ok {
			err = invariant.CheckInfoUF(fs.info, e.journal.Entries()) // CheckUF plus values at roots only
		} else {
			err = invariant.CheckUF(e.theory.Delta, e.journal.Entries())
		}
		if err != nil {
			// A corrupted structure makes the verdict untrustworthy.
			r.Verdict = VerdictUnknown
			r.Stop = err
		}
	}
	if r.Stop != nil {
		r.Partial = e.partial()
	}
	if e.opt.Certify && e.journal != nil {
		r.Certs, r.ConflictCert = e.certificates()
	}
	return r
}

// certificates builds one Relation certificate per non-representative
// member of the final relational state — Label is the *structure's*
// answer, Steps the journal's evidence, so a corrupted structure emits
// certificates cert.Check rejects — plus the Conflict certificate when
// the theory hit a relational contradiction. Fault injection
// (CorruptCertAt) sabotages the chosen certificate before emission.
func (e *engine) certificates() ([]cert.Certificate[int, rational.Q], *cert.Certificate[int, rational.Q]) {
	g := group.QDiff{}
	var certs []cert.Certificate[int, rational.Q]
	emit := func(c cert.Certificate[int, rational.Q]) cert.Certificate[int, rational.Q] {
		if e.opt.Inject.ObserveCert() {
			cert.Sabotage(&c, g)
		}
		return c
	}
	delta := e.theory.Delta
	for root := range e.p.NumVars {
		if r, _ := delta.Find(root); r != root {
			continue // each class once, from its root
		}
		delta.ForClass(root, func(m int) {
			if m == root {
				return
			}
			ans, _ := delta.GetRelation(m, root) // m is in root's class
			c, err := e.journal.Explain(m, root)
			if err != nil {
				return // journal cannot derive it; nothing to certify
			}
			c.Label = ans
			certs = append(certs, emit(c))
		})
	}
	var conflict *cert.Certificate[int, rational.Q]
	if lc := e.theory.LastConflict; lc != nil {
		if c, err := e.journal.ExplainConflict(lc.N, lc.M, lc.New, lc.Reason); err == nil {
			c = emit(c)
			conflict = &c
		}
	}
	return certs, conflict
}

// partial snapshots the best-known abstract state; sound regardless of
// where propagation stopped (refinements only shrink value sets).
func (e *engine) partial() *Partial {
	if e.store == nil {
		return &Partial{}
	}
	p := &Partial{Values: make([]domain.IC, e.p.NumVars), Pending: len(e.queue)}
	for v := 0; v < e.p.NumVars; v++ {
		val := e.store.get(v)
		p.Values[v] = val
		if _, ok := val.IsConst(); ok {
			p.Determined++
		}
		if itv := val.I(); !itv.IsBottom() && (!itv.LoInf || !itv.HiInf) {
			p.Bounded++
		}
	}
	return p
}

// stopReason returns why the run must stop, or nil: injected faults
// take precedence (they fired first), then the guard's sticky error.
func (e *engine) stopReason() error {
	if e.stopErr != nil {
		return e.stopErr
	}
	return e.guard.Err()
}

func (e *engine) run() (res Result) {
	defer func() {
		if r := recover(); r != nil {
			// Panic-free boundary: internal failures surface as a
			// classified Stop with the partial state, never as a crash.
			res = e.result(VerdictUnknown, fault.Classify(r))
		}
	}()
	p := e.p
	// Shostak layer: all equalities go to the theory; the theory pushes
	// constant-difference relations (LabeledUF/GroupAction) or exact
	// equalities (Base) into Δ, and we react by transporting values.
	var ufOpts []core.Option[shostak.Var, rational.Q]
	if e.opt.Certify || e.opt.CheckInvariants {
		e.journal = cert.NewJournal[int, rational.Q](group.QDiff{})
		ufOpts = append(ufOpts, core.WithRecorder[shostak.Var, rational.Q](e.journal.Record))
	}
	e.theory = shostak.New(e.variant != Base, ufOpts...)
	e.theory.OnNewRelation = func(a, b int, k rational.Q) {
		e.numRel++
		if err := e.opt.Inject.ObserveLabel(); err != nil {
			// Injected label rejection: stop cleanly instead of
			// propagating a relation we pretend failed validation.
			if e.stopErr == nil {
				e.stopErr = err
			}
			return
		}
		e.onRelation(a, b, k)
	}
	// Value store.
	switch e.variant {
	case GroupAction:
		e.store = &factorStore{
			info:     core.NewInfo[int, rational.Q, domain.IC](e.theory.Delta, domain.QDiffAction{}),
			maxWords: e.opt.MaxBoundWords,
		}
	default:
		vals := make([]domain.IC, p.NumVars)
		for i := range vals {
			vals[i] = domain.Top()
		}
		e.store = &arrayStore{vals: vals, maxWords: e.opt.MaxBoundWords}
	}
	// Integer typing.
	for v := 0; v < p.NumVars; v++ {
		if p.IntVar[v] {
			if _, bot := e.store.refine(v, domain.Integers()); bot {
				return e.result(VerdictUnsat, nil)
			}
		}
	}
	// Watch lists and initial queue.
	e.watch = make([][]int, p.NumVars)
	e.inQueue = make([]bool, len(p.Cons))
	e.updates = make([]int, p.NumVars)
	for ci, c := range p.Cons {
		for _, v := range c.vars() {
			e.watch[v] = append(e.watch[v], ci)
		}
		e.enqueue(ci)
	}
	for ci, c := range p.Cons {
		if c.Kind == ConEq {
			// Reasons tag every relation the theory derives with the
			// asserting constraint's id, so certificate chains cite the
			// exact input constraints that support each answer.
			e.theory.Reason = fmt.Sprintf("eq#%d", ci)
			if !e.theory.AssertEq(c.Lin, shostak.NewLinExp(rational.Q{})) {
				return e.result(VerdictUnsat, nil)
			}
			if e.stopErr != nil {
				return e.result(VerdictUnknown, e.stopReason())
			}
		}
	}
	if e.bottom {
		return e.result(VerdictUnsat, nil)
	}
	// Propagate to fixpoint, or stop gracefully on budget exhaustion,
	// deadline, cancellation, or injected fault.
	for len(e.queue) > 0 && e.stopErr == nil {
		if err := e.guard.Step(1); err != nil {
			break
		}
		if err := e.opt.Inject.ObserveConflict(); err != nil {
			// A forced conflict is an injected fault, not evidence of
			// unsatisfiability: the verdict stays Unknown.
			e.stopErr = err
			break
		}
		ci := e.queue[0]
		e.queue = e.queue[1:]
		e.inQueue[ci] = false
		e.propagate(p.Cons[ci])
		if e.bottom {
			return e.result(VerdictUnsat, nil)
		}
	}
	if stop := e.stopReason(); stop != nil {
		return e.result(VerdictUnknown, stop)
	}
	// Fixpoint reached: try to extract a concrete witness.
	if sigma, ok := e.witness(); ok && p.CheckWitness(sigma) {
		return e.result(VerdictSat, nil)
	}
	return e.result(VerdictUnknown, nil)
}

// vars returns the variables a constraint watches.
func (c Constraint) vars() []int {
	switch c.Kind {
	case ConMul:
		if c.X == c.Y {
			return []int{c.Z, c.X}
		}
		return []int{c.Z, c.X, c.Y}
	default:
		return c.Lin.Vars()
	}
}

func (e *engine) enqueue(ci int) {
	if !e.inQueue[ci] {
		e.inQueue[ci] = true
		e.queue = append(e.queue, ci)
	}
}

// refineVar applies a refinement, honouring the per-variable update budget,
// and propagates consequences (class transport for LabeledUF, watcher
// wake-ups for every changed variable).
func (e *engine) refineVar(v int, val domain.IC) {
	if e.bottom || e.guard.Err() != nil || e.stopErr != nil {
		return
	}
	if e.updates[v] >= e.opt.MaxVarUpdates {
		return // slow-convergence guard: freeze this variable
	}
	changed, bot := e.store.refine(v, val)
	if bot {
		e.bottom = true
		return
	}
	if !changed {
		return
	}
	e.changes++
	delta := e.theory.Delta
	switch e.variant {
	case GroupAction:
		// The factorized store updates the whole class at once; every
		// member's view changes and must be re-read through the group
		// action — the per-member bookkeeping the paper's GROUP-ACTION
		// variant pays ("its implementation is more complex").
		members := 0
		delta.ForClass(v, func(w int) { e.touch(w); members++ })
		e.guard.Step(members - 1)
	case LabeledUF:
		e.touch(v)
		// Pairwise propagation across the relational class (Section 6.1
		// integration): every member at constant difference k from v gets
		// the shifted value. Each transport costs a step.
		delta.ForClass(v, func(m int) {
			if m == v || e.bottom || e.guard.Err() != nil {
				return // ⊥ or a spent budget ends the transport
			}
			k, ok := delta.GetRelation(v, m)
			if !ok || e.guard.Step(1) != nil {
				return
			}
			shifted := e.store.get(v).AddConst(k) // σ(m) = σ(v) + k
			changed, bot := e.store.refine(m, shifted)
			e.bottom = bot
			if changed && !bot {
				e.changes++
				e.touch(m)
			}
		})
	default:
		e.touch(v)
	}
}

// touch counts an update of w, whose value changed, and wakes the
// constraints watching it. A change counts once in e.changes, however
// many variables it touches.
func (e *engine) touch(w int) {
	e.updates[w]++
	e.wake(w)
}

// wake enqueues the constraints watching w.
func (e *engine) wake(w int) {
	for _, ci := range e.watch[w] {
		e.enqueue(ci)
	}
}

// onRelation reacts to a new σ(b) = σ(a) + k relation from the Shostak
// layer.
func (e *engine) onRelation(a, b int, k rational.Q) {
	switch e.variant {
	case GroupAction:
		// Δ's union has already merged the two classes' values (the
		// factorized store hangs on Δ); every member's view changed.
		members := 0
		e.theory.Delta.ForClass(a, func(w int) { e.wake(w); members++ })
		e.guard.Step(members - 1)
		if e.store.get(a).IsBottom() {
			e.bottom = true
		}
	default:
		// Base (k = 0 only) and LabeledUF: transport values both ways.
		e.guard.Step(1)
		e.refineVar(b, e.store.get(a).AddConst(k))
		e.refineVar(a, e.store.get(b).AddConst(k.Neg()))
	}
}

// propagate runs one constraint's propagator (HC4 for linear constraints,
// forward/backward for multiplication).
func (e *engine) propagate(c Constraint) {
	switch c.Kind {
	case ConEq:
		e.propLinear(c.Lin, true)
	case ConLe:
		e.propLinear(c.Lin, false)
	case ConMul:
		e.propMul(c)
	}
}

// propLinear propagates Σ ci·xi + c0 = 0 (eq) or <= 0: for each variable,
// evaluate the rest of the expression with intervals and project. Each
// variable's interval is read once, and read again only when a
// refinement changed the store since (e.changes).
func (e *engine) propLinear(lin shostak.LinExp, isEq bool) {
	n := lin.Len()
	var itvBuf [8]interval.Itv
	var atBuf [8]int
	itvs, readAt := itvBuf[:], atBuf[:]
	if n > len(itvBuf) {
		itvs, readAt = make([]interval.Itv, n), make([]int, n)
	}
	for j := range n {
		readAt[j] = -1 // unread
	}
	// narrow refines the i-th variable v to target. Store values are
	// reduced, so a target that contains v's interval would leave v as it
	// is: it is skipped before a domain value is built for it.
	narrow := func(i, v int, target interval.Itv) {
		if readAt[i] != e.changes {
			itvs[i], readAt[i] = e.store.get(v).I(), e.changes
		}
		if itvs[i].IsBottom() || !itvs[i].Leq(target) {
			e.refineVar(v, domain.FromInterval(target))
		}
	}
	for i := range n {
		v, cv := lin.Term(i)
		// rest = c0 + Σ_{j≠i} cj·xj as an interval.
		rest := interval.Const(lin.Const)
		for j := range n {
			if j == i {
				continue
			}
			w, cw := lin.Term(j)
			if readAt[j] != e.changes {
				itvs[j], readAt[j] = e.store.get(w).I(), e.changes
			}
			rest = rest.Add(itvs[j].MulConst(cw))
		}
		// cv·xv + rest (= or <=) 0.
		if isEq {
			// xv = -rest / cv.
			narrow(i, v, rest.Neg().MulConst(cv.Inv()))
		} else {
			// cv·xv <= -rest ⟹ xv <= max(-rest)/cv (cv>0), xv >= min/cv (cv<0).
			bound := rest.Neg()
			if cv.Sign() > 0 {
				if !bound.HiInf && !bound.IsBottom() {
					narrow(i, v, interval.AtMost(bound.Hi.Div(cv)))
				} else if bound.IsBottom() {
					e.bottom = true
				}
			} else {
				if !bound.HiInf && !bound.IsBottom() {
					// cv < 0: xv >= -rest/cv with the max of -rest.
					narrow(i, v, interval.AtLeast(bound.Hi.Div(cv)))
				} else if bound.IsBottom() {
					e.bottom = true
				}
			}
		}
		if e.bottom {
			return
		}
	}
}

// propMul propagates z = x·y forward and backward.
func (e *engine) propMul(c Constraint) {
	z, x, y := e.store.get(c.Z), e.store.get(c.X), e.store.get(c.Y)
	if c.X == c.Y {
		// Square: z = x².
		e.refineVar(c.Z, x.Square())
		if e.bottom {
			return
		}
		z = e.store.get(c.Z)
		e.refineVar(c.X, domain.FromInterval(z.I().SqrtRange()))
		return
	}
	e.refineVar(c.Z, x.Mul(y))
	if e.bottom {
		return
	}
	z = e.store.get(c.Z)
	if q, ok := z.I().Div(y.I()); ok {
		e.refineVar(c.X, domain.FromInterval(q))
	}
	if e.bottom {
		return
	}
	if q, ok := z.I().Div(e.store.get(c.X).I()); ok {
		e.refineVar(c.Y, domain.FromInterval(q))
	}
}

// witness attempts to extract a concrete model from the final abstract
// values: constants stay, bounded variables take their lower bound,
// congruence-only variables take their representative, free variables 0.
func (e *engine) witness() (map[int]rational.Q, bool) {
	sigma := make(map[int]rational.Q, e.p.NumVars)
	for v := 0; v < e.p.NumVars; v++ {
		val := e.store.get(v)
		if val.IsBottom() {
			return nil, false
		}
		switch itv := val.I(); {
		case !itv.LoInf:
			sigma[v] = itv.Lo
		case !itv.HiInf:
			sigma[v] = itv.Hi
		default:
			if _, r, ok := val.C().Mod(); ok {
				sigma[v] = r
			} else {
				sigma[v] = rational.Q{}
			}
		}
	}
	return sigma, true
}
