package analyzer

import (
	"context"
	"fmt"
	"time"

	"luf/internal/cert"
	"luf/internal/cfg"
	"luf/internal/core"
	"luf/internal/domain"
	"luf/internal/factor"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/invariant"
	"luf/internal/rational"
)

// Config selects the analyzer variant, mirroring the Section 7.2
// experiment axes.
type Config struct {
	// UseLUF enables the TVPE labeled union-find domain with map
	// factorization (the paper's extension); false is the plain
	// non-relational baseline.
	UseLUF bool
	// PropagationDepth bounds the up/down constraint propagation
	// (default 1000; the paper's second experiment uses 2).
	PropagationDepth int
	// MaxSteps bounds the total analysis work (block interpretations
	// plus propagation refinements) across all restarts; 0 = unlimited.
	// Exhaustion degrades the result soundly to ⊤ with a classified
	// Stop, never a wrong verdict.
	MaxSteps int
	// Deadline, when non-zero, bounds wall-clock time (checked on a
	// stride, like the solver).
	Deadline time.Duration
	// Ctx, when non-nil, allows external cancellation.
	Ctx context.Context
	// Inject, when non-nil, deterministically injects faults for
	// robustness testing; see internal/fault.
	Inject *fault.Injector
	// CheckInvariants audits the TVPE union-find after the run
	// (package invariant), including brute-force recomposition of every
	// accepted relation, read from the journal Certify also uses. A
	// violation degrades the result to ⊤. It emits no certificates on
	// its own.
	CheckInvariants bool
	// Certify runs the TVPE union-find in recording mode and attaches
	// proof certificates to the result: one Relation certificate per
	// (member, representative) pair of the final relational state —
	// every relation the §7.2 proofs rest on becomes a checkable
	// artifact — plus a Conflict certificate when parallel relations
	// proved unsatisfiability. Requires UseLUF; verify with
	// cert.Check(c, group.TVPE{}).
	Certify bool
}

// DefaultConfig mirrors the paper's main configuration.
func DefaultConfig(useLUF bool) Config {
	return Config{UseLUF: useLUF, PropagationDepth: 1000}
}

// widenDelay is the number of joins at a loop head before widening.
const widenDelay = 2

// maxRestarts bounds relation-retraction restarts.
const maxRestarts = 8

// AssertOutcome is the analyzer's judgement on one assertion.
type AssertOutcome int

// Assertion outcomes.
const (
	// AssertUnknown is an alarm: the analysis could not prove the
	// assertion.
	AssertUnknown AssertOutcome = iota
	// AssertProved means the assertion holds on every reachable
	// execution.
	AssertProved
	// AssertUnreachable means no execution reaches the assertion.
	AssertUnreachable
)

// Stats mirrors the Section 7.2 measurements.
type Stats struct {
	SSAValues        int
	AddRelationCalls int
	Unions           int
	MaxClassSize     int
	ValuesInUnions   int // SSA values that are in a non-singleton class
	Restarts         int
	ImprovedValues   int // values tightened by the final factorized reduction
}

// Result is the analysis outcome.
type Result struct {
	Asserts []AssertOutcome
	// Values holds the final flow-insensitive value of each SSA value
	// (the value at its definition point), after the factorized reduction
	// when LUF is enabled.
	Values []domain.IC
	Stats  Stats
	// Stop is nil when the analysis ran to completion; otherwise it
	// classifies why it stopped early (fault.ErrBudgetExhausted,
	// fault.ErrDeadlineExceeded, fault.ErrCanceled, an injected fault,
	// or an invariant violation). A non-nil Stop means the results were
	// degraded to the sound ⊤ fallback.
	Stop error
	// Certificates holds the Relation certificates of the final
	// relational state (one per non-representative class member) when
	// Config.Certify was set. Verify with cert.Check(c, group.TVPE{}).
	Certificates []cert.Certificate[int, group.Affine]
	// ConflictCert is the evidence chain when parallel relations made
	// the relational state unsatisfiable; nil otherwise.
	ConflictCert *cert.Certificate[int, group.Affine]
}

// analysis is the per-run state.
type analysis struct {
	g       *cfg.Graph
	dom     *cfg.DomInfo
	cfgConf Config
	luf     *factor.TVPEMap[int]
	journal *cert.Journal[int, group.Affine] // non-nil iff Certify or CheckInvariants (fresh per restart)
	defs    []cfg.Expr                       // SSA value -> defining expression (IDefs only; nil: none)
	users   [][]int                          // SSA value -> values whose def uses it
	defBlk  []int                            // SSA value -> block of its definition (-1: none)
	// widenDelay is the const widenDelay; only the allocation test
	// raises it, to add block interpretations to one program.
	widenDelay int
	// inferred φ relations: pair -> relation; banned: pairs proven wrong.
	inferred map[[2]int]group.Affine
	banned   map[[2]int]bool
	needBan  bool
	stats    Stats
	guard    *fault.Guard
	visits   visitLog // this run's change tracking (see run)
	// interpreted counts the fixpoint's processBlock calls across restarts;
	// its value during a call identifies that interpretation.
	interpreted int
	// seen holds, per assertion ID, its outcome at the last fixpoint
	// interpretation that reached it.
	seen []assertSeen
	// finalRuns lists the blocks the last run's final stage interpreted
	// again instead of reading them (see run).
	finalRuns []int
	succs     []int // feasibleSuccs' reused result
}

// assertSeen is an assertion's outcome at one interpretation.
type assertSeen struct {
	at     int // the interpretation (a value of analysis.interpreted)
	proved bool
}

// visitLog makes the fixpoint change-driven. processBlock reads the
// predecessors' out-states and reachability, the widen flag, under
// widening the block's own out-state, and the union-find's relations;
// relations and classes change only on a union. clock counts the
// changes to out-states and reachability; each change stamps its block
// with the new count, and every interpretation of a block records the
// count it started at, its widen flag and the union count it saw. A
// block none of whose inputs moved since would re-run the same
// refinements to the same out-state and side effects, so the fixpoint
// skips it.
type visitLog struct {
	clock     int
	changedAt []int  // block -> clock after its last out-state or reachability change
	startedAt []int  // block -> clock when its last interpretation started (-1: never)
	widened   []bool // block -> widen flag of that interpretation
	unions    []int  // block -> union count that interpretation saw
	last      []int  // block -> that interpretation (a value of analysis.interpreted)
	reached   []bool // block -> whether that interpretation reached the block's end
}

func newVisitLog(n int) visitLog {
	l := visitLog{changedAt: make([]int, n), startedAt: make([]int, n), widened: make([]bool, n),
		unions: make([]int, n), last: make([]int, n), reached: make([]bool, n)}
	for b := range l.startedAt {
		l.startedAt[b] = -1
	}
	return l
}

// changed records a change to b's out-state or reachability.
func (l *visitLog) changed(b int) {
	l.clock++
	l.changedAt[b] = l.clock
}

// start records the inputs of interpretation id of b.
func (l *visitLog) start(b int, widen bool, unions, id int) {
	l.startedAt[b], l.widened[b], l.unions[b], l.last[b] = l.clock, widen, unions, id
}

// idle reports whether b's last interpretation saw exactly the inputs it
// would see now.
func (l *visitLog) idle(b int, preds []int, widen bool, unions int) bool {
	t := l.startedAt[b]
	if t < 0 || l.widened[b] != widen || l.unions[b] != unions || widen && l.changedAt[b] > t {
		return false
	}
	for _, p := range preds {
		if l.changedAt[p] > t {
			return false
		}
	}
	return true
}

// settled reports whether b's last interpretation ran without widening to
// the block's end and b is idle: that interpretation saw the inputs the
// final stage would, so b's out-state and recorded assertion outcomes are
// what interpreting b again would produce. A feasible interpretation
// always leaves out[b] set to its out-state.
func (l *visitLog) settled(b int, preds []int, unions int) bool {
	return l.reached[b] && l.idle(b, preds, false, unions)
}

// unions is the union-find's union count (0 without the LUF domain).
func (a *analysis) unions() int {
	if a.luf == nil {
		return 0
	}
	return a.luf.Info.Stats().Unions
}

// Analyze runs the abstract interpreter on an SSA graph.
func Analyze(g *cfg.Graph, dom *cfg.DomInfo, conf Config) *Result {
	return newAnalysis(g, dom, conf).analyze()
}

// newAnalysis fills in conf's defaults and indexes g's definitions.
func newAnalysis(g *cfg.Graph, dom *cfg.DomInfo, conf Config) *analysis {
	if conf.PropagationDepth == 0 {
		conf.PropagationDepth = 1000
	}
	a := &analysis{g: g, dom: dom, cfgConf: conf, widenDelay: widenDelay, banned: map[[2]int]bool{}, seen: make([]assertSeen, g.NumAsserts)}
	// One guard for the whole analysis: the budget covers all restarts.
	a.guard = fault.NewGuard(fault.Limits{
		MaxSteps: conf.MaxSteps,
		Deadline: conf.Deadline,
		Ctx:      conf.Ctx,
		Inject:   conf.Inject,
	})
	a.indexDefs()
	return a
}

// analyze runs the fixpoint, restarting it while φ relations get banned,
// and attaches the audit verdict and the certificates.
func (a *analysis) analyze() *Result {
	g, conf := a.g, a.cfgConf
	var res *Result
	for restart := 0; ; restart++ {
		a.stats = Stats{SSAValues: g.NumVars - 1, Restarts: restart}
		a.luf = nil
		a.inferred = map[[2]int]group.Affine{}
		a.needBan = false
		if conf.UseLUF {
			var opts []core.Option[int, group.Affine]
			if conf.Certify || conf.CheckInvariants {
				// A fresh journal per restart: retracted (banned) relations
				// of earlier rounds must not serve as evidence, nor be
				// recomposed against this round's structure.
				a.journal = cert.NewJournal[int, group.Affine](group.TVPE{})
				opts = append(opts, core.WithRecorder[int, group.Affine](a.journal.Record))
			}
			a.luf = factor.NewTVPEMap[int](opts...)
		}
		res = a.run()
		if a.guard.Err() != nil || !a.needBan || restart >= maxRestarts {
			break
		}
	}
	if conf.CheckInvariants && a.luf != nil && res.Stop == nil {
		if err := invariant.CheckInfoUF(a.luf.Info, a.journal.Entries()); err != nil {
			// A corrupted structure makes the results untrustworthy:
			// degrade them soundly and report the violation.
			res = a.degraded(err)
		}
	}
	if conf.Certify && a.luf != nil {
		res.Certificates, res.ConflictCert = a.certificates()
	}
	return res
}

// certificates builds one Relation certificate per non-representative
// member of the final relational state, in ascending SSA id — Label is
// the structure's answer, Steps the journal's evidence — plus the
// Conflict certificate when parallel relations proved unsatisfiability.
// Fault injection (CorruptCertAt) sabotages the chosen certificate
// before emission.
func (a *analysis) certificates() ([]cert.Certificate[int, group.Affine], *cert.Certificate[int, group.Affine]) {
	g := group.TVPE{}
	var certs []cert.Certificate[int, group.Affine]
	emit := func(c cert.Certificate[int, group.Affine]) cert.Certificate[int, group.Affine] {
		if a.cfgConf.Inject.ObserveCert() {
			cert.Sabotage(&c, g)
		}
		return c
	}
	// Ascending SSA id, so the emission order is fixed by construction.
	for v := 0; v < a.g.NumVars; v++ {
		root, ans := a.luf.Info.Find(v) // v --ans--> root
		if root == v {
			continue
		}
		c, err := a.journal.Explain(v, root)
		if err != nil {
			continue // not derivable from this restart's journal
		}
		c.Label = ans
		certs = append(certs, emit(c))
	}
	var conflict *cert.Certificate[int, group.Affine]
	if lc := a.luf.LastConflict; lc != nil {
		if c, err := a.journal.ExplainConflict(lc.N, lc.M, lc.New, lc.Reason); err == nil {
			c = emit(c)
			conflict = &c
		}
	}
	return certs, conflict
}

// degraded is the sound ⊤ fallback of an early stop or detected
// corruption: every assertion is an alarm, every value is unknown.
func (a *analysis) degraded(stop error) *Result {
	res := &Result{
		Asserts: make([]AssertOutcome, a.g.NumAsserts),
		Values:  make([]domain.IC, a.g.NumVars),
		Stop:    stop,
	}
	for i := range res.Values {
		res.Values[i] = domain.Integers()
	}
	res.Stats = a.stats
	return res
}

// indexDefs builds def and use maps for the up/down propagation, and the
// definition block of every SSA value. Relations and def equations are
// only *applied* between values defined in the same block: such values
// share execution instances, so transporting a refinement between their
// state cells is sound, whereas e.g. a loop-body value is one iteration
// behind the loop-head φ it is defined from at the loop exit.
func (a *analysis) indexDefs() {
	a.defs = make([]cfg.Expr, a.g.NumVars)
	a.users = make([][]int, a.g.NumVars)
	a.defBlk = make([]int, a.g.NumVars)
	for i := range a.defBlk {
		a.defBlk[i] = -1
	}
	var uses func(e cfg.Expr, by int)
	uses = func(e cfg.Expr, by int) {
		switch e := e.(type) {
		case cfg.EVar:
			a.users[e.ID] = append(a.users[e.ID], by)
		case cfg.EBin:
			uses(e.L, by)
			uses(e.R, by)
		case cfg.EUn:
			uses(e.E, by)
		}
	}
	for _, b := range a.g.Blocks {
		for _, in := range b.Instrs {
			switch in := in.(type) {
			case cfg.IDef:
				a.defs[in.Var] = in.E
				uses(in.E, in.Var)
				a.defBlk[in.Var] = b.ID
			case cfg.IPhi:
				a.defBlk[in.Var] = b.ID
			}
		}
	}
}

// aligned reports whether two SSA values share execution instances (same
// definition block), making relation application between their state
// cells sound.
func (a *analysis) aligned(u, w int) bool {
	return a.defBlk[u] != -1 && a.defBlk[u] == a.defBlk[w]
}

// run performs one complete fixpoint (ascending with widening, then a
// descending narrowing pass) and the final reductions. The fixpoint
// passes skip the blocks a.visits finds idle. The final stage reads each
// settled block's values from its out-state and its assertion outcomes
// from a.seen, and interprets every other reachable block again with
// relations frozen. Every state is allocated
// here once and reused: inState[b] and out[b] point into per-block
// buffers (out[b] is nil while b has no feasible out-state), and blocks
// are interpreted on a copy of their entry state in work.
func (a *analysis) run() *Result {
	g := a.g
	n := len(g.Blocks)
	slots := make([]slot, (2*n+1)*g.NumVars)
	buf := func(i int) state { return slots[i*g.NumVars : (i+1)*g.NumVars : (i+1)*g.NumVars] }
	inBuf, outBuf := make([]state, n), make([]state, n)
	for b := range n {
		inBuf[b], outBuf[b] = buf(2*b), buf(2*b+1)
	}
	work := buf(2 * n)
	out := make([]state, n)
	reachable := make([]bool, n)
	joins := make([]int, n) // visit count per block (for widening delay)
	inState := make([]state, n)

	// Loop heads: blocks with a predecessor that appears later in RPO.
	isLoopHead := make([]bool, n)
	for _, b := range a.dom.RPO {
		for _, p := range g.Blocks[b].Preds {
			if a.dom.RPONum[p] >= a.dom.RPONum[b] {
				isLoopHead[b] = true
			}
		}
	}

	// entry sets inState[b] to the join of the reachable predecessors'
	// out-states (φs are handled inside processBlock using pred out-states
	// directly); block 0 starts empty. It reports false, leaving
	// inState[b] as it was, when no predecessor has an out-state.
	entry := func(b int) bool {
		in := inBuf[b]
		if b == 0 {
			clear(in)
			inState[b] = in
			return true
		}
		first := true
		for _, p := range g.Blocks[b].Preds {
			if !reachable[p] || out[p] == nil {
				continue
			}
			if first {
				copy(in, out[p])
				first = false
			} else {
				in.join(out[p])
			}
		}
		if first {
			return false
		}
		inState[b] = in
		return true
	}

	reachable[0] = true
	a.visits = newVisitLog(n)
	// idle reports, for a block about to be visited, whether its inputs
	// are those of its last interpretation (see visitLog).
	idle := func(b int, widen bool) bool {
		return a.visits.idle(b, g.Blocks[b].Preds, widen, a.unions())
	}
	// interpret runs processBlock on a copy of b's entry state, leaving
	// the out-state in work.
	interpret := func(b int, widen bool) bool {
		a.interpreted++
		a.visits.start(b, widen, a.unions(), a.interpreted)
		copy(work, inState[b])
		ok := a.processBlock(b, work, out, reachable, widen, nil)
		a.visits.reached[b] = ok
		return ok
	}

	// Ascending iterations in RPO round-robin, re-interpreting only the
	// blocks whose inputs moved; widening kicks in at loop-head φs after
	// widenDelay visits, idle ones included. diverged is a sound
	// fallback: if the cap is ever reached (it should not be, widening
	// guarantees termination), all results degrade to ⊤.
	diverged := true
	for iter := 0; iter < 50*n+200; iter++ {
		round := a.visits.clock
		for _, b := range a.dom.RPO {
			if a.guard.Step(1) != nil {
				// Budget, deadline, cancellation or injected fault:
				// degrade soundly through the diverged path below.
				return a.degraded(a.guard.Err())
			}
			if !reachable[b] {
				continue
			}
			widen := isLoopHead[b] && joins[b] >= a.widenDelay
			skip := idle(b, widen)
			if !skip && !entry(b) {
				continue
			}
			joins[b]++
			if skip {
				continue
			}
			if !interpret(b, widen) {
				if out[b] != nil {
					a.visits.changed(b)
				}
				out[b] = nil
				continue
			}
			if out[b] == nil || !statesEq(out[b], work) {
				out[b] = outBuf[b]
				copy(out[b], work)
				a.visits.changed(b)
			}
			// Mark successors reachable if the branch is feasible.
			for _, s := range a.feasibleSuccs(b, work) {
				if !reachable[s] {
					reachable[s] = true
					a.visits.changed(s)
				}
			}
		}
		if a.visits.clock == round {
			diverged = false
			break
		}
	}
	if diverged {
		// Sound degradation: unknown everything.
		return a.degraded(nil)
	}

	// Narrowing: two descending passes without widening, again only over
	// the blocks whose inputs moved.
	for pass := 0; pass < 2; pass++ {
		for _, b := range a.dom.RPO {
			if a.guard.Step(1) != nil {
				return a.degraded(a.guard.Err())
			}
			if !reachable[b] || idle(b, false) || !entry(b) {
				continue
			}
			if interpret(b, false) && (out[b] == nil || !statesEq(out[b], work)) {
				out[b] = outBuf[b]
				copy(out[b], work)
				a.visits.changed(b)
			}
		}
	}

	if a.guard.Err() != nil {
		return a.degraded(a.guard.Err())
	}

	// Final stage: judge assertions with the stabilized states and record
	// every value's final value (see processBlock).
	res := &Result{
		Asserts: make([]AssertOutcome, g.NumAsserts),
		Values:  make([]domain.IC, g.NumVars),
	}
	for i := range res.Asserts {
		res.Asserts[i] = AssertUnreachable
	}
	for i := range res.Values {
		res.Values[i] = domain.Bottom() // unreachable definitions stay ⊥
	}
	a.finalRuns = a.finalRuns[:0]
	for _, b := range a.dom.RPO {
		if !reachable[b] || inState[b] == nil {
			continue
		}
		if a.visits.settled(b, g.Blocks[b].Preds, a.unions()) {
			a.readSettled(b, out[b], res)
			continue
		}
		if a.guard.Step(1) != nil {
			return a.degraded(a.guard.Err())
		}
		a.finalRuns = append(a.finalRuns, b)
		copy(work, inState[b])
		a.processBlock(b, work, out, reachable, false, res)
	}

	// Factorized reduction (Section 5.2): push the flow-insensitive
	// values into the TVPE map and read back the class-refined values.
	if a.cfgConf.UseLUF && a.luf != nil && !a.luf.IsBottom() {
		// Reduce each value by its aligned class members: meet of the
		// relation-transported values of same-block members (instance-
		// aligned factorized reduction; Section 5.2 restricted to sound
		// pairs).
		reduced := make([]domain.IC, g.NumVars)
		for v := 1; v < g.NumVars; v++ {
			reduced[v] = res.Values[v]
			if res.Values[v].IsBottom() {
				continue
			}
			a.luf.Info.ForClass(v, func(w int) {
				if w == v || !a.aligned(v, w) || res.Values[w].IsBottom() {
					return
				}
				if rel, ok := a.luf.Relation(w, v); ok {
					reduced[v] = reduced[v].Meet(res.Values[w].ApplyAffine(rel))
				}
			})
		}
		for v := 1; v < g.NumVars; v++ {
			if !res.Values[v].IsBottom() && !reduced[v].Eq(res.Values[v]) && reduced[v].Leq(res.Values[v]) {
				res.Values[v] = reduced[v]
				a.stats.ImprovedValues++
			}
		}
		ufStats := a.luf.Info.Stats()
		a.stats.AddRelationCalls = ufStats.AddCalls
		a.stats.Unions = ufStats.Unions
		a.stats.MaxClassSize = a.luf.Info.MaxClassSize()
		for v := 1; v < g.NumVars; v++ {
			if a.luf.Info.ClassSize(v) > 1 {
				a.stats.ValuesInUnions++
			}
		}
	}
	res.Stats = a.stats
	return res
}

// feasibleSuccs returns the successors whose branch condition is not
// definitely false under the block's out state, in a buffer the next call
// reuses.
func (a *analysis) feasibleSuccs(b int, s state) []int {
	blk := a.g.Blocks[b]
	a.succs = a.succs[:0]
	switch blk.Term.Kind {
	case cfg.TermJump:
		a.succs = append(a.succs, blk.Term.To)
	case cfg.TermBranch:
		switch a.evalCond(s, blk.Term.Cond) {
		case kTrue:
			a.succs = append(a.succs, blk.Term.To)
		case kFalse:
			a.succs = append(a.succs, blk.Term.Else)
		default:
			a.succs = append(a.succs, blk.Term.To, blk.Term.Else)
		}
	}
	return a.succs
}

// readSettled records a settled block's results without interpreting it:
// every φ and definition takes its value in the block's out-state (the
// block-end value processBlock records for a feasible block), and every
// assertion the outcome its last interpretation recorded.
func (a *analysis) readSettled(b int, out state, res *Result) {
	instrs := a.g.Blocks[b].Instrs
	res.recordEnd(instrs, out)
	for _, in := range instrs {
		if as, ok := in.(cfg.IAssert); ok {
			res.judge(as.ID, a.seen[as.ID].proved)
		}
	}
}

// recordEnd records every φ and definition of a block at its value in
// the block's end state s.
func (r *Result) recordEnd(instrs []cfg.Instr, s state) {
	for _, in := range instrs {
		switch in := in.(type) {
		case cfg.IPhi:
			r.Values[in.Var] = s.get(in.Var)
		case cfg.IDef:
			r.Values[in.Var] = s.get(in.Var)
		}
	}
}

// judge folds one reached instance of assertion id into its outcome: an
// instance that may fail makes it an alarm, and one that holds proves it
// unless an alarm was already raised.
func (r *Result) judge(id int, proved bool) {
	if !proved {
		r.Asserts[id] = AssertUnknown
	} else if r.Asserts[id] == AssertUnreachable {
		r.Asserts[id] = AssertProved
	}
}

// processBlock interprets a block's instructions over s in place, reading
// φ inputs from predecessor out-states. φ destinations are the only values
// that recur through cycles in SSA, so widening applies exactly there
// (against the block's previous out-state) when widen is set. It reports
// false on infeasibility (⊥ reached).
//
// The fixpoint passes res nil, infers relations, and records each
// assertion's outcome in a.seen. The final stage passes the result it
// fills: relations are frozen, every assertion is judged, and every φ and
// definition records its value as it is computed. If the block stays
// feasible, each then records its value at the END of the block (after
// the block's assumes): the invariant every complete execution's
// instances satisfy, and the granularity at which same-block relation
// application is exact.
func (a *analysis) processBlock(b int, s state, out []state, reachable []bool, widen bool, res *Result) bool {
	instrs := a.g.Blocks[b].Instrs
	infer := a.cfgConf.UseLUF && res == nil
	// φs first: join incoming values edge-wise; then relation inference.
	nphi := 0
	for _, in := range instrs {
		phi, ok := in.(cfg.IPhi)
		if !ok {
			break
		}
		nphi++
		v := domain.Bottom()
		for _, arg := range phi.Args {
			if !reachable[arg.Pred] || out[arg.Pred] == nil {
				continue
			}
			if arg.Var == 0 {
				// Undef: a variable declared inside the region, on the
				// edge from before its declaration. Any value.
				v = v.Join(domain.Integers())
				continue
			}
			v = v.Join(out[arg.Pred].get(arg.Var))
		}
		if widen && out[b] != nil {
			if old, ok := out[b].lookup(phi.Var); ok {
				v = old.Widen(v)
			}
		}
		s.set(phi.Var, v)
		if res != nil {
			res.Values[phi.Var] = v
		}
	}
	if infer && nphi >= 1 {
		a.phiRelations(b, instrs[:nphi], out, reachable)
	}
	for _, in := range instrs[nphi:] {
		switch in := in.(type) {
		case cfg.IDef:
			val := a.evalExpr(s, in.E)
			s.set(in.Var, val)
			if infer {
				a.defRelation(in)
			}
			if res != nil {
				res.Values[in.Var] = val
			}
			// The state already holds val, so pushing it into the new
			// def's class would refine nothing (ROADMAP item 9); only a ⊥
			// value cuts the LUF pass's block.
			if a.cfgConf.UseLUF && val.IsBottom() {
				return false
			}
		case cfg.IAssume:
			if !a.refineCond(s, in.E, true) {
				return false
			}
		case cfg.IAssert:
			// Assertions do not constrain executions in the analysis.
			proved := a.evalCond(s, in.E) == kTrue
			if res == nil {
				a.seen[in.ID] = assertSeen{at: a.interpreted, proved: proved}
			} else {
				res.judge(in.ID, proved)
			}
		}
	}
	if res != nil {
		res.recordEnd(instrs, s)
	}
	return true
}

// relate pushes a TVPE relation into the union-find, honouring label
// injection: an injected rejection stops the analysis (through the
// guard's sticky error) instead of silently dropping the relation. The
// reason (a program point) tags the journal entry in recording mode and
// is empty otherwise.
func (a *analysis) relate(n, m int, l group.Affine, reason string) {
	if err := a.cfgConf.Inject.ObserveLabel(); err != nil {
		a.guard.Stop(err)
		return
	}
	a.luf.RelateReason(n, m, l, reason)
}

// defRelation adds the TVPE relation implied by a definition v := a·w + b
// (the "variable definitions" rule of Section 7.2).
func (a *analysis) defRelation(def cfg.IDef) {
	w, coef, off, ok := affineOf(def.E)
	if !ok || w < 0 || coef.Sign() == 0 {
		return
	}
	// σ(def.Var) = coef·σ(w) + off: edge w --(coef,off)--> def.Var.
	var reason string
	if a.journal != nil {
		reason = fmt.Sprintf("def v%d (block %d)", def.Var, a.defBlk[def.Var])
	}
	a.relate(w, def.Var, group.Affine{A: coef, B: off}, reason)
}

// phiRelations applies the φ rules of Section 7.2 to every pair of φs in
// a block: relate destinations when every reachable predecessor justifies
// the same affine relation between the corresponding arguments — via an
// existing labeled-union-find relation or constant argument pairs
// ("joining related variables" and "joining constants"). phis is the
// block's leading run of cfg.IPhi instructions.
func (a *analysis) phiRelations(b int, phis []cfg.Instr, out []state, reachable []bool) {
	type fact struct {
		rel          group.Affine
		hasR         bool
		c1, c2       rational.Q // constants of args p and q
		hasC1, hasC2 bool       // whether c1 / c2 are known
	}
	g := group.TVPE{}
	for i := 0; i < len(phis); i++ {
		for j := 0; j < len(phis); j++ {
			if i == j {
				continue
			}
			p, q := phis[i].(cfg.IPhi), phis[j].(cfg.IPhi)
			key := [2]int{p.Var, q.Var}
			// Collect per-predecessor facts.
			var facts []fact
			ok := true
			for k := range p.Args {
				pr := p.Args[k].Pred
				if !reachable[pr] || out[pr] == nil {
					continue
				}
				av, bv := p.Args[k].Var, argFor(q, pr)
				if av == 0 || bv == 0 {
					ok = false
					break
				}
				f := fact{}
				if rel, has := a.luf.Relation(av, bv); has {
					f.rel, f.hasR = rel, true
				}
				f.c1, f.hasC1 = out[pr].get(av).IsConst()
				f.c2, f.hasC2 = out[pr].get(bv).IsConst()
				if !f.hasR && (!f.hasC1 || !f.hasC2) {
					ok = false
					break
				}
				facts = append(facts, f)
			}
			if !ok || len(facts) == 0 {
				a.checkInferred(key)
				continue
			}
			// Candidate relation: an existing relation, or a line through
			// two distinct constant pairs.
			var cand group.Affine
			found := false
			for _, f := range facts {
				if f.hasR {
					cand, found = f.rel, true
					break
				}
			}
			if !found {
				for x := 0; x < len(facts) && !found; x++ {
					for y := x + 1; y < len(facts) && !found; y++ {
						f1, f2 := facts[x], facts[y]
						if l, okL := group.ThroughPoints(f1.c1, f1.c2, f2.c1, f2.c2); okL {
							cand, found = l, true
						}
					}
				}
			}
			if !found {
				a.checkInferred(key)
				continue
			}
			// Verify the candidate against every predecessor.
			valid := true
			for _, f := range facts {
				switch {
				case f.hasR:
					if !g.Equal(f.rel, cand) {
						valid = false
					}
				case f.hasC1 && f.hasC2:
					if !f.c2.Eq(cand.Apply(f.c1)) {
						valid = false
					}
				default:
					valid = false
				}
			}
			if !valid {
				a.checkInferred(key)
				continue
			}
			if a.banned[key] {
				continue
			}
			// Relate dst_p --cand--> dst_q.
			var reason string
			if a.journal != nil {
				reason = fmt.Sprintf("phi join v%d~v%d (block %d)", p.Var, q.Var, b)
			}
			a.relate(p.Var, q.Var, cand, reason)
			a.inferred[key] = cand
		}
	}
}

// checkInferred bans a previously inferred φ relation whose justification
// no longer holds, forcing a restart (mutable union-find cannot retract).
func (a *analysis) checkInferred(key [2]int) {
	if _, was := a.inferred[key]; was && !a.banned[key] {
		a.banned[key] = true
		a.needBan = true
	}
}

// argFor returns the argument of φ q for predecessor pr (0 if missing).
func argFor(q cfg.IPhi, pr int) int {
	for _, arg := range q.Args {
		if arg.Pred == pr {
			return arg.Var
		}
	}
	return 0
}
