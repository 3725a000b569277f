package lang

import (
	"fmt"

	"luf/internal/fault"
)

// Parser is a recursive-descent parser for mini-C.
type Parser struct {
	lex        *Lexer
	tok        Token // the current token
	lexErr     error // first lexical error; the token stream ends there
	numAsserts int
	numNondets int
	vars       []string         // declared names, by declaration index
	scopes     []map[string]int // name -> declaration index, innermost last
}

// Parse parses a full program. No panic escapes: a parser bug that
// panics (e.g. an index past the token slice) is recovered and
// reported as a fault.ErrInvariantViolated-wrapped error, so callers
// feeding untrusted sources always get (nil, error) — FuzzParse
// enforces this.
func Parse(src string) (prog *Program, err error) {
	defer fault.RecoverTo(&err)
	p := &Parser{lex: NewLexer(src), scopes: []map[string]int{{}}}
	p.advance()
	prog, err = p.program()
	// A lexical error anywhere outranks a syntax error before it, as if
	// the whole input had been lexed first: lex on to the end.
	for p.lexErr == nil && p.tok.Kind != EOF {
		p.advance()
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return prog, err
}

func (p *Parser) program() (*Program, error) {
	var stmts []Stmt
	for p.cur().Kind != EOF {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	return &Program{Stmts: stmts, Vars: p.vars, NumAsserts: p.numAsserts, NumNondets: p.numNondets}, nil
}

// MustParse parses or panics with the classified parse error; for
// tests and embedded corpora.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(fault.Invalidf("lang.MustParse: %v", err))
	}
	return prog
}

// advance pulls the next token from the lexer; after a lexical error the
// stream reads as EOF.
func (p *Parser) advance() {
	if p.lexErr != nil {
		return
	}
	if p.tok, p.lexErr = p.lex.Next(); p.lexErr != nil {
		p.tok = Token{Kind: EOF}
	}
}

func (p *Parser) cur() Token  { return p.tok }
func (p *Parser) next() Token { t := p.tok; p.advance(); return t }

func (p *Parser) expect(k Kind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, fmt.Errorf("%s: expected %s, found %s", t.Pos, k, t.Kind)
	}
	p.advance()
	return t, nil
}

func (p *Parser) pushScope() { p.scopes = append(p.scopes, map[string]int{}) }
func (p *Parser) popScope()  { p.scopes = p.scopes[:len(p.scopes)-1] }

// declare puts name in the innermost scope and returns its declaration
// index.
func (p *Parser) declare(name string, at Pos) (int, error) {
	top := p.scopes[len(p.scopes)-1]
	if _, dup := top[name]; dup {
		return 0, fmt.Errorf("%s: redeclaration of %q", at, name)
	}
	v := len(p.vars)
	top[name] = v
	p.vars = append(p.vars, name)
	return v, nil
}

// lookup returns the declaration index of the innermost declaration of
// the identifier t in scope.
func (p *Parser) lookup(t Token) (int, error) {
	for i := len(p.scopes) - 1; i >= 0; i-- {
		if v, ok := p.scopes[i][t.Text]; ok {
			return v, nil
		}
	}
	return 0, fmt.Errorf("%s: undeclared variable %q", t.Pos, t.Text)
}

func (p *Parser) block() ([]Stmt, error) {
	if _, err := p.expect(LBrace); err != nil {
		return nil, err
	}
	p.pushScope()
	defer p.popScope()
	var out []Stmt
	for p.cur().Kind != RBrace {
		if p.cur().Kind == EOF {
			return nil, fmt.Errorf("%s: unexpected end of file in block", p.cur().Pos)
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	p.advance() // consume '}'
	return out, nil
}

func (p *Parser) stmt() (Stmt, error) {
	t := p.cur()
	switch t.Kind {
	case KwInt:
		p.advance()
		name, err := p.expect(Ident)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Assign); err != nil {
			return nil, err
		}
		// The initializer is parsed before the name is in scope, as in
		// C: "int i = i;" uses an outer i or none.
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		v, err := p.declare(name.Text, name.Pos)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &DeclStmt{Name: name.Text, Init: e, Pos: t.Pos, Var: v}, nil
	case Ident:
		p.advance()
		v, err := p.lookup(t)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Assign); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &AssignStmt{Name: t.Text, E: e, Pos: t.Pos, Var: v}, nil
	case KwIf:
		p.advance()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		then, err := p.block()
		if err != nil {
			return nil, err
		}
		var els []Stmt
		if p.cur().Kind == KwElse {
			p.advance()
			els, err = p.block()
			if err != nil {
				return nil, err
			}
		}
		return &IfStmt{Cond: cond, Then: then, Else: els, Pos: t.Pos}, nil
	case KwWhile:
		p.advance()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Pos: t.Pos}, nil
	case KwAssert, KwAssume:
		p.advance()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		if t.Kind == KwAssert {
			s := &AssertStmt{Cond: cond, Pos: t.Pos, ID: p.numAsserts}
			p.numAsserts++
			return s, nil
		}
		return &AssumeStmt{Cond: cond, Pos: t.Pos}, nil
	}
	return nil, fmt.Errorf("%s: unexpected %s at statement start", t.Pos, t.Kind)
}

// Expression grammar (loosest to tightest):
//
//	expr   := orExp
//	orExp  := andExp ('||' andExp)*
//	andExp := cmpExp ('&&' cmpExp)*
//	cmpExp := addExp (('=='|'!='|'<'|'<='|'>'|'>=') addExp)?
//	addExp := mulExp (('+'|'-') mulExp)*
//	mulExp := unary (('*'|'/'|'%') unary)*
//	unary  := ('-'|'!') unary | primary
//	primary:= number | ident | nondet '(' ')' | '(' expr ')'
func (p *Parser) expr() (Expr, error) { return p.orExp() }

func (p *Parser) orExp() (Expr, error) {
	l, err := p.andExp()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == OrOr {
		pos := p.next().Pos
		r, err := p.andExp()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: OpOr, L: l, R: r, Pos: pos}
	}
	return l, nil
}

func (p *Parser) andExp() (Expr, error) {
	l, err := p.cmpExp()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == AndAnd {
		pos := p.next().Pos
		r, err := p.cmpExp()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: OpAnd, L: l, R: r, Pos: pos}
	}
	return l, nil
}

var cmpOps = map[Kind]Op{Eq: OpEq, Neq: OpNeq, Lt: OpLt, Le: OpLe, Gt: OpGt, Ge: OpGe}

func (p *Parser) cmpExp() (Expr, error) {
	l, err := p.addExp()
	if err != nil {
		return nil, err
	}
	if op, ok := cmpOps[p.cur().Kind]; ok {
		pos := p.next().Pos
		r, err := p.addExp()
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: op, L: l, R: r, Pos: pos}, nil
	}
	return l, nil
}

func (p *Parser) addExp() (Expr, error) {
	l, err := p.mulExp()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == Plus || p.cur().Kind == Minus {
		t := p.next()
		r, err := p.mulExp()
		if err != nil {
			return nil, err
		}
		op := OpAdd
		if t.Kind == Minus {
			op = OpSub
		}
		l = &BinExpr{Op: op, L: l, R: r, Pos: t.Pos}
	}
	return l, nil
}

func (p *Parser) mulExp() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == Star || p.cur().Kind == Slash || p.cur().Kind == Percent {
		t := p.next()
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		op := OpMul
		switch t.Kind {
		case Slash:
			op = OpDiv
		case Percent:
			op = OpMod
		}
		l = &BinExpr{Op: op, L: l, R: r, Pos: t.Pos}
	}
	return l, nil
}

func (p *Parser) unary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case Minus:
		p.advance()
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: OpNeg, E: e, Pos: t.Pos}, nil
	case Not:
		p.advance()
		e, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: OpNot, E: e, Pos: t.Pos}, nil
	}
	return p.primary()
}

func (p *Parser) primary() (Expr, error) {
	t := p.next()
	switch t.Kind {
	case Number:
		var v int64
		for _, c := range t.Text {
			v = v*10 + int64(c-'0')
		}
		return &NumExpr{Value: v, Pos: t.Pos}, nil
	case Ident:
		v, err := p.lookup(t)
		if err != nil {
			return nil, err
		}
		return &VarExpr{Name: t.Text, Pos: t.Pos, Var: v}, nil
	case KwNondet:
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		e := &NondetExpr{Pos: t.Pos, Site: p.numNondets}
		p.numNondets++
		return e, nil
	case LParen:
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, fmt.Errorf("%s: unexpected %s in expression", t.Pos, t.Kind)
}
