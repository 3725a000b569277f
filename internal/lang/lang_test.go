package lang

import (
	"strings"
	"testing"
)

func TestLexBasic(t *testing.T) {
	toks, err := Lex("int x = 42; // comment\nwhile (x <= 10) { x = x + 1; } /* block */ assert(x != 0);")
	if err != nil {
		t.Fatal(err)
	}
	kinds := []Kind{KwInt, Ident, Assign, Number, Semi, KwWhile, LParen, Ident, Le, Number,
		RParen, LBrace, Ident, Assign, Ident, Plus, Number, Semi, RBrace, KwAssert,
		LParen, Ident, Neq, Number, RParen, Semi, EOF}
	if len(toks) != len(kinds) {
		t.Fatalf("got %d tokens, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d: got %s want %s", i, toks[i].Kind, k)
		}
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"x & y", "x | y", "@", "/* unterminated"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q) should fail", src)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("int x = 1;\n  x = 2;")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("first token pos = %s", toks[0].Pos)
	}
	// "x" on line 2 column 3.
	var found bool
	for _, tk := range toks {
		if tk.Kind == Ident && tk.Pos.Line == 2 && tk.Pos.Col == 3 {
			found = true
		}
	}
	if !found {
		t.Error("position tracking wrong across newline")
	}
}

func TestParseFigure8(t *testing.T) {
	src := `
int i = 0;
int j = 4;
while (i < 10) {
  i = i + 1;
  j = j + 3;
}
assert(j == 34);
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumAsserts != 1 {
		t.Errorf("NumAsserts = %d", prog.NumAsserts)
	}
	if len(prog.Stmts) != 4 {
		t.Errorf("Stmts = %d", len(prog.Stmts))
	}
	// Round-trip through the pretty printer and re-parse.
	again, err := Parse(prog.String())
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, prog.String())
	}
	if again.String() != prog.String() {
		t.Error("pretty print not stable")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"x = 1;",                       // undeclared
		"int x = 1; int x = 2;",        // redeclaration
		"int x = ;",                    // missing expr
		"if (1) { int y = 1; } y = 2;", // out of scope
		"int x = 1; x = 1",             // missing semicolon
		"while (1) {",                  // unterminated block
		"int x = nondet;",              // nondet needs ()
		"else {}",                      // stray else
		"int i = i;",                   // initializer sees only outer names
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseScopes(t *testing.T) {
	// Shadowing in an inner scope is allowed; outer var visible inside.
	src := `
int x = 1;
if (x > 0) {
  int y = x + 1;
  x = y;
}
x = x + 1;
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestPrecedence(t *testing.T) {
	prog := MustParse("int x = 1 + 2 * 3; assert(x == 7 && x != 0 || x < 0);")
	s := prog.Stmts[0].(*DeclStmt)
	if s.Init.String() != "(1 + (2 * 3))" {
		t.Errorf("precedence: %s", s.Init)
	}
	a := prog.Stmts[1].(*AssertStmt)
	if a.Cond.String() != "(((x == 7) && (x != 0)) || (x < 0))" {
		t.Errorf("bool precedence: %s", a.Cond)
	}
}

func TestRunFigure8(t *testing.T) {
	prog := MustParse(`
int i = 0;
int j = 4;
while (i < 10) {
  i = i + 1;
  j = j + 3;
}
assert(j == 34);
`)
	res := Run(prog, nil, 10000)
	if res.FailedAssert != -1 || res.Blocked || res.OutOfFuel {
		t.Fatalf("run failed: %+v", res)
	}
	if res.Env["i"] != 10 || res.Env["j"] != 34 {
		t.Errorf("final i=%d j=%d", res.Env["i"], res.Env["j"])
	}
}

func TestRunAssertFailure(t *testing.T) {
	prog := MustParse("int x = 1; assert(x == 1); assert(x == 2); assert(x == 3);")
	res := Run(prog, nil, 100)
	if res.FailedAssert != 1 {
		t.Errorf("FailedAssert = %d, want 1", res.FailedAssert)
	}
}

func TestRunNondetAndAssume(t *testing.T) {
	prog := MustParse(`
int x = nondet();
assume(x > 0);
int y = x * 2;
assert(y > x);
`)
	res := Run(prog, []int64{5}, 100)
	if res.FailedAssert != -1 || res.Blocked {
		t.Errorf("positive input: %+v", res)
	}
	res = Run(prog, []int64{-3}, 100)
	if !res.Blocked {
		t.Error("assume should block negative input")
	}
	// Exhausted input stream defaults to 0, also blocked here.
	res = Run(prog, nil, 100)
	if !res.Blocked {
		t.Error("zero default should be blocked")
	}
}

func TestRunDivMod(t *testing.T) {
	prog := MustParse("int a = 7 / 2; int b = -7 / 2; int c = 7 % 3; int d = -7 % 3;")
	res := Run(prog, nil, 100)
	if res.Env["a"] != 3 || res.Env["b"] != -3 || res.Env["c"] != 1 || res.Env["d"] != -1 {
		t.Errorf("div/mod: %+v", res.Env)
	}
	// Division by zero blocks.
	prog2 := MustParse("int z = 0; int a = 1 / z;")
	if res := Run(prog2, nil, 100); !res.Blocked {
		t.Error("division by zero must block")
	}
}

func TestRunShortCircuit(t *testing.T) {
	// RHS division by zero must not be evaluated when short-circuited.
	prog := MustParse("int z = 0; int ok = 1; if (z != 0 && 1 / z > 0) { ok = 0; }")
	res := Run(prog, nil, 100)
	if res.Blocked || res.Env["ok"] != 1 {
		t.Errorf("short circuit: %+v", res)
	}
}

func TestRunOutOfFuel(t *testing.T) {
	prog := MustParse("int x = 0; while (x < 10) { x = x; }")
	res := Run(prog, nil, 100)
	if !res.OutOfFuel {
		t.Error("infinite loop must exhaust fuel")
	}
}

func TestStringOutput(t *testing.T) {
	prog := MustParse("int x = 0; if (x < 1) { x = 1; } else { x = 2; } assume(x > 0);")
	out := prog.String()
	for _, want := range []string{"int x = 0;", "if ((x < 1))", "else", "assume((x > 0));"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q:\n%s", want, out)
		}
	}
}
