package solver_test

import (
	"strings"
	"testing"

	"luf/internal/solver"
)

func TestParseProblem(t *testing.T) {
	src := `
# comment line
var x int
var y rat     # trailing comment
var z rat
eq 2*x + -3/2*y - 1 = 0
le 1*x - 10 <= 0
le -x <= 0
mul z = x * y
`
	p, err := solver.ParseProblem("test", src)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumVars != 3 {
		t.Errorf("NumVars = %d", p.NumVars)
	}
	if !p.IntVar[0] || p.IntVar[1] || p.IntVar[2] {
		t.Errorf("typing = %v", p.IntVar)
	}
	if len(p.Cons) != 4 {
		t.Fatalf("constraints = %d", len(p.Cons))
	}
	if p.Cons[0].Kind != solver.ConEq || p.Cons[1].Kind != solver.ConLe || p.Cons[3].Kind != solver.ConMul {
		t.Error("constraint kinds wrong")
	}
	if err := p.Validate(); err != nil {
		t.Error(err)
	}
}

func TestParseProblemErrors(t *testing.T) {
	cases := []string{
		"var x float",          // bad type
		"var x int\nvar x int", // duplicate
		"eq 1*q = 0",           // undeclared
		"le 1 = 0",             // kind/operator mismatch
		"eq 1 <= 0",            // kind/operator mismatch
		"mul z = x",            // malformed mul
		"frobnicate x",         // unknown directive
		"var x int\neq zebra* = 0",
		// Literals are bounded before conversion: no exponents, no hex,
		// no digit run past the parser's cap.
		"var x int\nle 1e999999*x <= 0",
		"var x int\nle 0x1p9999999*x <= 0",
		"var x int\nle " + strings.Repeat("7", 500) + "*x <= 0",
		"var x int\nle x <= 1e5",
	}
	for _, src := range cases {
		if _, err := solver.ParseProblem("t", src); err == nil {
			t.Errorf("ParseProblem(%q) should fail", src)
		}
	}
}
