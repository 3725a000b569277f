package solver

import (
	"fmt"
	"strings"

	"luf/internal/rational"
	"luf/internal/shostak"
)

// ParseProblem parses the textual constraint-problem format shared by
// cmd/minisolve and the lufd /v1/solve endpoint: one directive per
// line, '#' starting a comment.
//
//	var x int            declare an integer variable
//	var y rat            declare a rational variable
//	eq  2*x + 3*y - 1*z + 5 = 0
//	le  1*x - 10 <= 0
//	mul z = x * y
//
// name is used in error positions ("name:line: message").
func ParseProblem(name, src string) (*Problem, error) {
	p := NewProblem(name, 0)
	vars := map[string]int{}
	lookup := func(tok string) (int, error) {
		v, ok := vars[tok]
		if !ok {
			return 0, fmt.Errorf("undeclared variable %q", tok)
		}
		return v, nil
	}
	for ln, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("%s:%d: %s", name, ln+1, fmt.Sprintf(format, args...))
		}
		switch fields[0] {
		case "var":
			if len(fields) != 3 || (fields[2] != "int" && fields[2] != "rat") {
				return nil, fail("expected 'var <name> int|rat'")
			}
			if _, dup := vars[fields[1]]; dup {
				return nil, fail("duplicate variable %q", fields[1])
			}
			vars[fields[1]] = p.AddVar(fields[2] == "int")
		case "eq", "le":
			rest := strings.Join(fields[1:], " ")
			var lhs, rhs string
			var op string
			switch {
			case strings.Contains(rest, "<="):
				op = "<="
				parts := strings.SplitN(rest, "<=", 2)
				lhs, rhs = parts[0], parts[1]
			case strings.Contains(rest, "="):
				op = "="
				parts := strings.SplitN(rest, "=", 2)
				lhs, rhs = parts[0], parts[1]
			default:
				return nil, fail("expected '=' or '<='")
			}
			if (fields[0] == "eq") != (op == "=") {
				return nil, fail("constraint kind %q does not match operator %q", fields[0], op)
			}
			el, err := parseLin(lhs, lookup)
			if err != nil {
				return nil, fail("%v", err)
			}
			er, err := parseLin(rhs, lookup)
			if err != nil {
				return nil, fail("%v", err)
			}
			e := el.Sub(er)
			if fields[0] == "eq" {
				p.Add(Eq(e))
			} else {
				p.Add(Le(e))
			}
		case "mul":
			// mul z = x * y
			if len(fields) != 6 || fields[2] != "=" || fields[4] != "*" {
				return nil, fail("expected 'mul z = x * y'")
			}
			z, err := lookup(fields[1])
			if err != nil {
				return nil, fail("%v", err)
			}
			x, err := lookup(fields[3])
			if err != nil {
				return nil, fail("%v", err)
			}
			y, err := lookup(fields[5])
			if err != nil {
				return nil, fail("%v", err)
			}
			p.Add(MulCon(z, x, y))
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	return p, nil
}

// parseLin parses "2*x + -3/2*y - 4" into a linear expression.
func parseLin(s string, lookup func(string) (int, error)) (shostak.LinExp, error) {
	e := shostak.NewLinExp(rational.Q{})
	s = strings.ReplaceAll(s, " ", "")
	s = strings.ReplaceAll(s, "-", "+-")
	for _, term := range strings.Split(s, "+") {
		if term == "" {
			continue
		}
		if i := strings.IndexByte(term, '*'); i >= 0 {
			coefStr := strings.TrimSpace(term[:i])
			varStr := strings.TrimSpace(term[i+1:])
			if coefStr == "" || coefStr == "-" {
				coefStr += "1"
			}
			c, err := rational.ParseQ(coefStr)
			if err != nil {
				return e, err
			}
			v, err := lookup(varStr)
			if err != nil {
				return e, err
			}
			e = e.Add(shostak.Monomial(c, v))
			continue
		}
		if v, err := lookup(term); err == nil {
			e = e.Add(shostak.Monomial(rational.QInt(1), v))
			continue
		}
		if bare, neg := strings.CutPrefix(term, "-"); neg {
			if v, err := lookup(bare); err == nil {
				e = e.Add(shostak.Monomial(rational.QInt(-1), v))
				continue
			}
		}
		c, err := rational.ParseQ(term)
		if err != nil {
			return e, fmt.Errorf("cannot parse term %q", term)
		}
		e = e.AddConst(c)
	}
	return e, nil
}
