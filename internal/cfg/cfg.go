// Package cfg lowers mini-C programs to a control-flow graph and converts
// it to SSA form — the program representation on which the Section 7.2
// analyzer runs (CODEX "performs the numerical analysis after SSA
// translation"). The language has only if and while, so every graph is
// structured and every block reachable: Build reads the φ positions and
// the dominator tree off the syntax, and ToSSA only orders the blocks and
// renames (Braun et al., "Simple and Efficient Construction of Static
// Single Assignment Form", CC 2013: SSA needs no dominance computation
// when the structure is known during lowering).
package cfg

import (
	"fmt"
	"slices"
	"strings"

	"luf/internal/lang"
)

// Expr is an expression over variables (pre-SSA: source-variable ids;
// post-SSA: SSA value ids).
type Expr interface {
	exprNode()
	String() string
}

// EConst is an integer literal.
type EConst struct{ V int64 }

// EVar references a variable (or SSA value after renaming).
type EVar struct{ ID int }

// ENondet is an unknown input; Site identifies the syntactic call.
type ENondet struct{ Site int }

// EUndef is the value of a variable with no reaching definition (only
// reachable through dead φs of scoped-out variables).
type EUndef struct{}

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
func (EUndef) exprNode()  {}
func (EBin) exprNode()    {}
func (EUn) exprNode()     {}

func (e EConst) String() string  { return fmt.Sprintf("%d", e.V) }
func (e EVar) String() string    { return fmt.Sprintf("v%d", e.ID) }
func (e ENondet) String() string { return fmt.Sprintf("nondet#%d", e.Site) }
func (EUndef) String() string    { return "undef" }
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

// IPhi is an SSA φ: Var := φ(Args), one argument per predecessor.
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

// Graph is a control-flow graph. Block 0 is the entry.
type Graph struct {
	Blocks []*Block
	// NumVars is the number of variables (source variables before SSA,
	// SSA values after).
	NumVars int
	// VarName maps variable ids to source names (several ids may share a
	// name: shadowing pre-SSA, versions post-SSA).
	VarName []string
	// InSSA records whether Rename has run.
	InSSA bool
	// NumAsserts is copied from the program.
	NumAsserts int
	// children[b] are b's dominator-tree children in ascending id, as
	// the program's structure fixes them (see Build).
	children [][]int
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

// builder lowers an AST to a CFG.
type builder struct {
	g      *Graph
	cur    *Block
	scopes []map[string]int
	// defs is the stack of open regions (an if's two branches, a loop
	// body); each lists the source variables defined in it so far,
	// nested regions included.
	defs [][]int
}

// Build lowers a parsed program to a pre-SSA control-flow graph whose φs
// are placed but have no arguments yet. The syntax fixes both the φs and
// the dominator tree:
//   - an if-join gets a φ for each variable defined in either branch, a
//     loop header one for each variable defined in the body — minimal
//     SSA, the iterated dominance frontiers of the definitions;
//   - a branch block dominates its then, else and join blocks, a loop's
//     pre-header its header, and the header its body and exit.
func Build(p *lang.Program) *Graph {
	b := &builder{g: &Graph{NumAsserts: p.NumAsserts}, scopes: []map[string]int{{}}}
	b.cur = b.newBlock()
	b.stmts(p.Stmts)
	b.cur.Term = Term{Kind: TermHalt}
	b.computePreds()
	return b.g
}

func (b *builder) newBlock() *Block {
	blk := &Block{ID: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	b.g.children = append(b.g.children, nil)
	return blk
}

func (b *builder) newVar(name string) int {
	id := b.g.NumVars
	b.g.NumVars++
	b.g.VarName = append(b.g.VarName, name)
	return id
}

func (b *builder) lookup(name string) int {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		if id, ok := b.scopes[i][name]; ok {
			return id
		}
	}
	panic("cfg: undeclared variable " + name + " (parser should have rejected)")
}

func (b *builder) expr(e lang.Expr) Expr {
	switch e := e.(type) {
	case *lang.NumExpr:
		return EConst{V: e.Value}
	case *lang.VarExpr:
		return EVar{ID: b.lookup(e.Name)}
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
		e := b.expr(s.Init) // evaluate before the name is in scope
		id := b.newVar(s.Name)
		b.scopes[len(b.scopes)-1][s.Name] = id
		b.def(id, e)
	case *lang.AssignStmt:
		b.def(b.lookup(s.Name), b.expr(s.E))
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
		b.g.children[b.cur.ID] = []int{thenB.ID, elseB.ID, joinB.ID}
		b.defs = append(b.defs, nil)

		thenB.Instrs = append(thenB.Instrs, IAssume{E: cond, FromBranch: true})
		b.cur = thenB
		b.pushScope()
		b.stmts(s.Then)
		b.popScope()
		b.cur.Term = Term{Kind: TermJump, To: joinB.ID}

		elseB.Instrs = append(elseB.Instrs, IAssume{E: negate(cond), FromBranch: true})
		b.cur = elseB
		b.pushScope()
		b.stmts(s.Else)
		b.popScope()
		b.cur.Term = Term{Kind: TermJump, To: joinB.ID}

		joinB.Instrs = b.phis()
		b.cur = joinB
	case *lang.WhileStmt:
		headB := b.newBlock()
		bodyB := b.newBlock()
		exitB := b.newBlock()
		b.cur.Term = Term{Kind: TermJump, To: headB.ID}
		b.g.children[b.cur.ID] = []int{headB.ID}
		b.g.children[headB.ID] = []int{bodyB.ID, exitB.ID}

		cond := b.expr(s.Cond)
		headB.Term = Term{Kind: TermBranch, Cond: cond, To: bodyB.ID, Else: exitB.ID}

		bodyB.Instrs = append(bodyB.Instrs, IAssume{E: cond, FromBranch: true})
		b.cur = bodyB
		b.defs = append(b.defs, nil)
		b.pushScope()
		b.stmts(s.Body)
		b.popScope()
		b.cur.Term = Term{Kind: TermJump, To: headB.ID}
		headB.Instrs = b.phis()

		exitB.Instrs = append(exitB.Instrs, IAssume{E: negate(cond), FromBranch: true})
		b.cur = exitB
	default:
		panic(fmt.Sprintf("cfg: unknown statement %T", s))
	}
}

// def appends the source definition id := e to the current block.
func (b *builder) def(id int, e Expr) {
	b.cur.Instrs = append(b.cur.Instrs, IDef{Var: id, E: e, FromSource: true})
	if n := len(b.defs); n > 0 {
		b.defs[n-1] = append(b.defs[n-1], id)
	}
}

// phis closes the innermost region and returns an argument-less φ for
// each variable defined in it, in descending variable order. The φs
// define those variables in the enclosing region.
func (b *builder) phis() []Instr {
	n := len(b.defs) - 1
	vs := b.defs[n]
	b.defs = b.defs[:n]
	slices.Sort(vs)
	vs = slices.Compact(vs)
	out := make([]Instr, len(vs))
	for i, v := range vs {
		out[len(vs)-1-i] = IPhi{Var: v}
	}
	if n > 0 {
		b.defs[n-1] = append(b.defs[n-1], vs...)
	}
	return out
}

func (b *builder) pushScope() { b.scopes = append(b.scopes, map[string]int{}) }
func (b *builder) popScope()  { b.scopes = b.scopes[:len(b.scopes)-1] }

func (b *builder) computePreds() {
	for _, blk := range b.g.Blocks {
		blk.Preds = nil
	}
	for _, blk := range b.g.Blocks {
		for _, s := range blk.Succs() {
			b.g.Blocks[s].Preds = append(b.g.Blocks[s].Preds, blk.ID)
		}
	}
}
