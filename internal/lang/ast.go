package lang

import (
	"fmt"
	"strings"
)

// Op is an expression operator.
type Op int

// Expression operators.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNeg // unary minus
	OpNot // unary logical not
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "==", OpNeq: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "&&", OpOr: "||", OpNeg: "-", OpNot: "!",
}

func (o Op) String() string { return opNames[o] }

// IsComparison reports whether the operator yields a boolean from two
// integers.
func (o Op) IsComparison() bool {
	switch o {
	case OpEq, OpNeq, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// Expr is an expression node.
type Expr interface {
	exprNode()
	String() string
}

// NumExpr is an integer literal.
type NumExpr struct {
	Value int64
	Pos   Pos
}

// VarExpr is a variable reference.
type VarExpr struct {
	Name string
	Pos  Pos
	// Var is the declaration index of the declaration Name refers to,
	// resolved by the parser (see Program.Vars).
	Var int
}

// NondetExpr is a call to the nondet() input intrinsic.
type NondetExpr struct {
	Pos Pos
	// Site is filled during parsing: the index of this nondet call, used
	// to pair concrete runs with input streams.
	Site int
}

// BinExpr is a binary operation.
type BinExpr struct {
	Op   Op
	L, R Expr
	Pos  Pos
}

// UnExpr is a unary operation.
type UnExpr struct {
	Op  Op
	E   Expr
	Pos Pos
}

func (*NumExpr) exprNode()    {}
func (*VarExpr) exprNode()    {}
func (*NondetExpr) exprNode() {}
func (*BinExpr) exprNode()    {}
func (*UnExpr) exprNode()     {}

func (e *NumExpr) String() string    { return fmt.Sprintf("%d", e.Value) }
func (e *VarExpr) String() string    { return e.Name }
func (e *NondetExpr) String() string { return "nondet()" }
func (e *BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}
func (e *UnExpr) String() string { return fmt.Sprintf("%s%s", e.Op, e.E) }

// Stmt is a statement node.
type Stmt interface {
	stmtNode()
	str(indent int, sb *strings.Builder)
}

// DeclStmt declares and initializes a variable.
type DeclStmt struct {
	Name string
	Init Expr
	Pos  Pos
	// Var is the declaration index of this declaration (see Program.Vars).
	Var int
}

// AssignStmt assigns to an existing variable.
type AssignStmt struct {
	Name string
	E    Expr
	Pos  Pos
	// Var is the declaration index of the declaration Name refers to,
	// resolved by the parser (see Program.Vars).
	Var int
}

// IfStmt is a conditional with optional else.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Pos  Pos
}

// WhileStmt is a loop.
type WhileStmt struct {
	Cond Expr
	Body []Stmt
	Pos  Pos
}

// AssertStmt checks a condition; the analyzer tries to prove it.
type AssertStmt struct {
	Cond Expr
	Pos  Pos
	// ID is the assertion index within the program, filled by the parser.
	ID int
}

// AssumeStmt constrains executions (blocks those violating it).
type AssumeStmt struct {
	Cond Expr
	Pos  Pos
}

func (*DeclStmt) stmtNode()   {}
func (*AssignStmt) stmtNode() {}
func (*IfStmt) stmtNode()     {}
func (*WhileStmt) stmtNode()  {}
func (*AssertStmt) stmtNode() {}
func (*AssumeStmt) stmtNode() {}

// Program is a parsed mini-C program.
type Program struct {
	Stmts []Stmt
	// Vars holds the declared names in declaration order: a variable's
	// declaration index is its position here. A name declared twice (in
	// nested scopes) appears twice, and each use carries the index of the
	// declaration it resolves to, so later passes need no scopes.
	Vars       []string
	NumAsserts int
	NumNondets int
}

func ind(n int, sb *strings.Builder) {
	for i := 0; i < n; i++ {
		sb.WriteString("  ")
	}
}

func (s *DeclStmt) str(n int, sb *strings.Builder) {
	ind(n, sb)
	fmt.Fprintf(sb, "int %s = %s;\n", s.Name, s.Init)
}
func (s *AssignStmt) str(n int, sb *strings.Builder) {
	ind(n, sb)
	fmt.Fprintf(sb, "%s = %s;\n", s.Name, s.E)
}
func (s *IfStmt) str(n int, sb *strings.Builder) {
	ind(n, sb)
	fmt.Fprintf(sb, "if (%s) {\n", s.Cond)
	for _, t := range s.Then {
		t.str(n+1, sb)
	}
	if len(s.Else) > 0 {
		ind(n, sb)
		sb.WriteString("} else {\n")
		for _, t := range s.Else {
			t.str(n+1, sb)
		}
	}
	ind(n, sb)
	sb.WriteString("}\n")
}
func (s *WhileStmt) str(n int, sb *strings.Builder) {
	ind(n, sb)
	fmt.Fprintf(sb, "while (%s) {\n", s.Cond)
	for _, t := range s.Body {
		t.str(n+1, sb)
	}
	ind(n, sb)
	sb.WriteString("}\n")
}
func (s *AssertStmt) str(n int, sb *strings.Builder) {
	ind(n, sb)
	fmt.Fprintf(sb, "assert(%s);\n", s.Cond)
}
func (s *AssumeStmt) str(n int, sb *strings.Builder) {
	ind(n, sb)
	fmt.Fprintf(sb, "assume(%s);\n", s.Cond)
}

// String pretty-prints the program.
func (p *Program) String() string {
	var sb strings.Builder
	for _, s := range p.Stmts {
		s.str(0, &sb)
	}
	return sb.String()
}
