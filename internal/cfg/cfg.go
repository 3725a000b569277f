// Package cfg lowers mini-C programs to a control-flow graph in SSA form —
// the program representation on which the Section 7.2 analyzer runs (CODEX
// "performs the numerical analysis after SSA translation"). The language
// has only if and while, so every graph is structured and every block
// reachable, and the parser has already resolved each variable to its
// declaration: Build numbers the SSA values while it lowers, reading the
// φ positions off the syntax (Braun et al., "Simple and Efficient
// Construction of Static Single Assignment Form", CC 2013: SSA needs no
// dominance computation and no renaming pass when the structure is known
// during lowering). ToSSA only orders the blocks; its doc says why the
// name stays.
package cfg

import (
	"fmt"
	"slices"
	"strings"

	"luf/internal/lang"
)

// Expr is an expression over SSA values.
type Expr interface {
	exprNode()
	String() string
}

// EConst is an integer literal.
type EConst struct{ V int64 }

// EVar references an SSA value; every use has a reaching definition, so
// ID is never 0 (undef).
type EVar struct{ ID int }

// ENondet is an unknown input; Site identifies the syntactic call.
type ENondet struct{ Site int }

// EBin is a binary operation (lang.Op).
type EBin struct {
	Op   lang.Op
	L, R Expr
}

// EUn is a unary operation.
type EUn struct {
	Op lang.Op
	E  Expr
}

func (EConst) exprNode()  {}
func (EVar) exprNode()    {}
func (ENondet) exprNode() {}
func (EBin) exprNode()    {}
func (EUn) exprNode()     {}

func (e EConst) String() string  { return fmt.Sprintf("%d", e.V) }
func (e EVar) String() string    { return fmt.Sprintf("v%d", e.ID) }
func (e ENondet) String() string { return fmt.Sprintf("nondet#%d", e.Site) }
func (e EBin) String() string    { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }
func (e EUn) String() string     { return fmt.Sprintf("%s%s", e.Op, e.E) }

// Instr is a block instruction.
type Instr interface {
	instrNode()
	String() string
}

// IDef defines Var := E. FromSource marks definitions originating from a
// source assignment (traced by the interpreters).
type IDef struct {
	Var        int
	E          Expr
	FromSource bool
}

// IAssume constrains the path; FromBranch marks assumes synthesized from
// branch conditions (implied, skipped by the concrete interpreter).
type IAssume struct {
	E          Expr
	FromBranch bool
}

// IAssert is a source assertion.
type IAssert struct {
	E   Expr
	ID  int
	Pos lang.Pos
}

// IPhi is an SSA φ: Var := φ(Args), one argument per predecessor. An
// argument may be value 0 (undef): the φ of a variable declared inside
// the region, on the edge from before its declaration.
type IPhi struct {
	Var  int
	Args []PhiArg
}

// PhiArg pairs a predecessor block with the incoming variable.
type PhiArg struct {
	Pred int
	Var  int
}

func (IDef) instrNode()    {}
func (IAssume) instrNode() {}
func (IAssert) instrNode() {}
func (IPhi) instrNode()    {}

func (i IDef) String() string { return fmt.Sprintf("v%d := %s", i.Var, i.E) }
func (i IAssume) String() string {
	if i.FromBranch {
		return fmt.Sprintf("assume-branch %s", i.E)
	}
	return fmt.Sprintf("assume %s", i.E)
}
func (i IAssert) String() string { return fmt.Sprintf("assert#%d %s", i.ID, i.E) }
func (i IPhi) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "v%d := φ(", i.Var)
	for k, a := range i.Args {
		if k > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "b%d:v%d", a.Pred, a.Var)
	}
	sb.WriteString(")")
	return sb.String()
}

// TermKind discriminates terminators.
type TermKind int

// Terminator kinds.
const (
	TermJump TermKind = iota
	TermBranch
	TermHalt
)

// Term is a block terminator.
type Term struct {
	Kind TermKind
	Cond Expr // TermBranch
	To   int  // TermJump target / TermBranch then-target
	Else int  // TermBranch else-target
}

// Block is a basic block.
type Block struct {
	ID     int
	Instrs []Instr
	Term   Term
	Preds  []int
}

// Graph is a control-flow graph in SSA form. Block 0 is the entry.
type Graph struct {
	Blocks []*Block
	// NumVars is the number of SSA values, value 0 (undef) included.
	NumVars int
	// VarName maps SSA values to the source names they are versions of
	// ("undef" for value 0); several values share a name.
	VarName []string
	// NumAsserts is copied from the program.
	NumAsserts int
}

// String renders the graph.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "b%d: (preds %v)\n", b.ID, b.Preds)
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", in)
		}
		switch b.Term.Kind {
		case TermJump:
			fmt.Fprintf(&sb, "  jump b%d\n", b.Term.To)
		case TermBranch:
			fmt.Fprintf(&sb, "  branch %s ? b%d : b%d\n", b.Term.Cond, b.Term.To, b.Term.Else)
		case TermHalt:
			sb.WriteString("  halt\n")
		}
	}
	return sb.String()
}

// Succs returns the successors of a block.
func (b *Block) Succs() []int {
	switch b.Term.Kind {
	case TermJump:
		return []int{b.Term.To}
	case TermBranch:
		if b.Term.To == b.Term.Else {
			return []int{b.Term.To}
		}
		return []int{b.Term.To, b.Term.Else}
	}
	return nil
}

// builder lowers an AST to a CFG in SSA form.
type builder struct {
	g    *Graph
	cur  *Block
	vars []string // the program's declared names, by declaration index
	// val[v] is the SSA value declaration v holds at the current point
	// of lowering (0, undef, before the declaration is reached).
	val []int
}

// Build lowers a parsed program to a control-flow graph in SSA form, in
// one pass. Value 0 is reserved for undef. The syntax fixes the φs: an
// if-join gets one for each variable defined in either branch, a loop
// header one for each variable defined in the body — minimal SSA, the
// iterated dominance frontiers of the definitions. Values are numbered
// in lowering order, which is a preorder of the dominator tree (a branch
// block dominates its then, else and join blocks, a loop's pre-header its
// header, and the header its body and exit), and each block's φs come in
// descending declaration order.
func Build(p *lang.Program) *Graph {
	b := &builder{
		g:    &Graph{NumVars: 1, VarName: []string{"undef"}, NumAsserts: p.NumAsserts},
		vars: p.Vars,
		val:  make([]int, len(p.Vars)),
	}
	b.cur = b.newBlock()
	b.stmts(p.Stmts)
	b.cur.Term = Term{Kind: TermHalt}
	b.computePreds()
	return b.g
}

func (b *builder) newBlock() *Block {
	blk := &Block{ID: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// newValue numbers a fresh SSA value for declaration v and makes it v's
// current value.
func (b *builder) newValue(v int) int {
	id := b.g.NumVars
	b.g.NumVars++
	b.g.VarName = append(b.g.VarName, b.vars[v])
	b.val[v] = id
	return id
}

func (b *builder) expr(e lang.Expr) Expr {
	switch e := e.(type) {
	case *lang.NumExpr:
		return EConst{V: e.Value}
	case *lang.VarExpr:
		return EVar{ID: b.val[e.Var]}
	case *lang.NondetExpr:
		return ENondet{Site: e.Site}
	case *lang.BinExpr:
		return EBin{Op: e.Op, L: b.expr(e.L), R: b.expr(e.R)}
	case *lang.UnExpr:
		return EUn{Op: e.Op, E: b.expr(e.E)}
	}
	panic(fmt.Sprintf("cfg: unknown expression %T", e))
}

func (b *builder) stmts(ss []lang.Stmt) {
	for _, s := range ss {
		b.stmt(s)
	}
}

// negate builds the logical negation of a condition.
func negate(e Expr) Expr { return EUn{Op: lang.OpNot, E: e} }

func (b *builder) stmt(s lang.Stmt) {
	switch s := s.(type) {
	case *lang.DeclStmt:
		b.def(s.Var, b.expr(s.Init))
	case *lang.AssignStmt:
		b.def(s.Var, b.expr(s.E))
	case *lang.AssertStmt:
		b.cur.Instrs = append(b.cur.Instrs, IAssert{E: b.expr(s.Cond), ID: s.ID, Pos: s.Pos})
	case *lang.AssumeStmt:
		b.cur.Instrs = append(b.cur.Instrs, IAssume{E: b.expr(s.Cond)})
	case *lang.IfStmt:
		cond := b.expr(s.Cond)
		thenB := b.newBlock()
		elseB := b.newBlock()
		joinB := b.newBlock()
		b.cur.Term = Term{Kind: TermBranch, Cond: cond, To: thenB.ID, Else: elseB.ID}
		phis := defined(s.Then, s.Else)
		// args[2i:2i+2] are phis[i]'s arguments, from the then-branch's
		// end and the else-branch's. Until the else-branch is lowered,
		// args[2i+1] holds the value at the branch, where it starts.
		args := make([]PhiArg, 2*len(phis))
		for i, v := range phis {
			args[2*i+1].Var = b.val[v]
		}

		thenB.Instrs = append(thenB.Instrs, IAssume{E: cond, FromBranch: true})
		b.cur = thenB
		b.stmts(s.Then)
		b.cur.Term = Term{Kind: TermJump, To: joinB.ID}
		for i, v := range phis {
			args[2*i] = PhiArg{Pred: b.cur.ID, Var: b.val[v]}
			b.val[v] = args[2*i+1].Var
		}

		elseB.Instrs = append(elseB.Instrs, IAssume{E: negate(cond), FromBranch: true})
		b.cur = elseB
		b.stmts(s.Else)
		b.cur.Term = Term{Kind: TermJump, To: joinB.ID}
		for i, v := range phis {
			args[2*i+1] = PhiArg{Pred: b.cur.ID, Var: b.val[v]}
			joinB.Instrs = append(joinB.Instrs, IPhi{Var: b.newValue(v), Args: args[2*i : 2*i+2 : 2*i+2]})
		}
		b.cur = joinB
	case *lang.WhileStmt:
		headB := b.newBlock()
		bodyB := b.newBlock()
		exitB := b.newBlock()
		b.cur.Term = Term{Kind: TermJump, To: headB.ID}
		// The header's φs are numbered before the body's values, each
		// with its pre-header argument; the back-edge argument is
		// appended in place once the body is lowered.
		phis := defined(s.Body)
		args := make([]PhiArg, 2*len(phis))
		for i, v := range phis {
			args[2*i] = PhiArg{Pred: b.cur.ID, Var: b.val[v]}
			headB.Instrs = append(headB.Instrs, IPhi{Var: b.newValue(v), Args: args[2*i : 2*i+1 : 2*i+2]})
		}

		cond := b.expr(s.Cond)
		headB.Term = Term{Kind: TermBranch, Cond: cond, To: bodyB.ID, Else: exitB.ID}

		bodyB.Instrs = append(bodyB.Instrs, IAssume{E: cond, FromBranch: true})
		b.cur = bodyB
		b.stmts(s.Body)
		b.cur.Term = Term{Kind: TermJump, To: headB.ID}
		for i, v := range phis {
			phi := headB.Instrs[i].(IPhi)
			phi.Args = append(phi.Args, PhiArg{Pred: b.cur.ID, Var: b.val[v]})
			headB.Instrs[i] = phi
			b.val[v] = phi.Var
		}

		exitB.Instrs = append(exitB.Instrs, IAssume{E: negate(cond), FromBranch: true})
		b.cur = exitB
	default:
		panic(fmt.Sprintf("cfg: unknown statement %T", s))
	}
}

// def appends the source definition of a new value for declaration v.
func (b *builder) def(v int, e Expr) {
	b.cur.Instrs = append(b.cur.Instrs, IDef{Var: b.newValue(v), E: e, FromSource: true})
}

// defined returns the declarations that the regions' statements define,
// nested regions included, in descending order: the variables that get a
// φ where the regions' paths meet.
func defined(regions ...[]lang.Stmt) []int {
	var vs []int
	var walk func([]lang.Stmt)
	walk = func(ss []lang.Stmt) {
		for _, s := range ss {
			switch s := s.(type) {
			case *lang.DeclStmt:
				vs = append(vs, s.Var)
			case *lang.AssignStmt:
				vs = append(vs, s.Var)
			case *lang.IfStmt:
				walk(s.Then)
				walk(s.Else)
			case *lang.WhileStmt:
				walk(s.Body)
			}
		}
	}
	for _, r := range regions {
		walk(r)
	}
	slices.Sort(vs)
	vs = slices.Compact(vs)
	slices.Reverse(vs)
	return vs
}

func (b *builder) computePreds() {
	for _, blk := range b.g.Blocks {
		for _, s := range blk.Succs() {
			b.g.Blocks[s].Preds = append(b.g.Blocks[s].Preds, blk.ID)
		}
	}
}
