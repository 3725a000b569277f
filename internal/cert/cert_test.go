package cert

import (
	"errors"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"luf/internal/fault"
	"luf/internal/group"
)

// deltaJournal builds a journal over the constant-difference group with
// a small assertion set:
//
//	a --+1--> b --+2--> c --+3--> d      (long way round)
//	a --+6--> d                          (shortcut)
//	e --+4--> c                          (side branch)
func deltaJournal() *Journal[string, int64] {
	j := NewJournal[string, int64](group.Delta{})
	j.Record("a", "b", 1, "eq#0")
	j.Record("b", "c", 2, "eq#1")
	j.Record("c", "d", 3, "eq#2")
	j.Record("a", "d", 6, "eq#3")
	j.Record("e", "c", 4, "eq#4")
	return j
}

func TestExplainRoundTrip(t *testing.T) {
	j := deltaJournal()
	g := j.Group()
	for _, tc := range []struct {
		x, y string
		want int64
	}{
		{"a", "c", 3},
		{"c", "a", -3}, // traverses assertions backwards
		{"a", "d", 6},
		{"e", "d", 7},  // mixes directions: e --+4--> c --+3--> d
		{"b", "e", -2}, // b --+2--> c, then e --+4--> c reversed (-4)
		{"a", "a", 0},  // empty chain
	} {
		c, err := j.Explain(tc.x, tc.y)
		if err != nil {
			t.Fatalf("Explain(%s, %s): %v", tc.x, tc.y, err)
		}
		if c.Label != tc.want {
			t.Errorf("Explain(%s, %s).Label = %d, want %d", tc.x, tc.y, c.Label, tc.want)
		}
		if err := Check(c, g); err != nil {
			t.Errorf("Check(Explain(%s, %s)): %v", tc.x, tc.y, err)
		}
	}
}

func TestExplainUnrelated(t *testing.T) {
	j := deltaJournal()
	j.Record("lonely1", "lonely2", 9, "island")
	if _, err := j.Explain("a", "lonely1"); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Errorf("Explain across components: err = %v, want ErrInvariantViolated", err)
	}
	if _, err := j.Explain("a", "never-seen"); err == nil {
		t.Error("Explain to an unknown node succeeded")
	}
}

func TestExplainMinimal(t *testing.T) {
	j := deltaJournal()
	c, err := j.Explain("a", "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Steps) != 1 {
		t.Errorf("Explain(a, d) used %d steps, want the 1-step shortcut", len(c.Steps))
	}
	if c.Steps[0].Reason != "eq#3" {
		t.Errorf("shortcut reason = %q, want eq#3", c.Steps[0].Reason)
	}
}

func TestJournalDedup(t *testing.T) {
	j := NewJournal[string, int64](group.Delta{})
	j.Record("x", "y", 5, "first")
	j.Record("x", "y", 5, "second") // same assertion, later reason
	j.Record("x", "y", 7, "different-label")
	if j.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (exact duplicate dropped)", j.Len())
	}
	if got := j.Entries()[0].Reason; got != "first" {
		t.Errorf("kept reason %q, want the first", got)
	}
}

func TestConflictCertificate(t *testing.T) {
	j := deltaJournal()
	g := j.Group()
	// The journal derives a --+3--> c; asserting a --+99--> c conflicts.
	c, err := j.ExplainConflict("a", "c", 99, "eq#bad")
	if err != nil {
		t.Fatal(err)
	}
	if c.Kind != Conflict {
		t.Fatalf("Kind = %v, want Conflict", c.Kind)
	}
	if err := Check(c, g); err != nil {
		t.Errorf("Check(conflict cert): %v", err)
	}
	reasons := c.Reasons()
	last := reasons[len(reasons)-1]
	if last != "eq#bad" {
		t.Errorf("UNSAT core %v should end with the conflicting reason", reasons)
	}

	// An agreeing assertion is not a conflict.
	if _, err := j.ExplainConflict("a", "c", 3, "eq#fine"); err == nil {
		t.Error("ExplainConflict with an agreeing label succeeded")
	}
}

func TestCheckRejectsFlippedLabel(t *testing.T) {
	j := deltaJournal()
	g := j.Group()
	c, err := j.Explain("a", "d")
	if err != nil {
		t.Fatal(err)
	}
	c.Steps[0].Label += 1 // corrupt: flipped/perturbed edge label
	if err := Check(c, g); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Errorf("flipped label: Check = %v, want rejection", err)
	}
}

func TestCheckRejectsTruncatedChain(t *testing.T) {
	j := deltaJournal()
	g := j.Group()
	c, err := j.Explain("a", "c") // two steps
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Steps) < 2 {
		t.Fatalf("need a multi-step chain, got %d steps", len(c.Steps))
	}
	c.Steps = c.Steps[:len(c.Steps)-1] // corrupt: drop the last step
	if err := Check(c, g); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Errorf("truncated chain: Check = %v, want rejection", err)
	}
}

func TestCheckRejectsWrongEndpoint(t *testing.T) {
	j := deltaJournal()
	g := j.Group()
	c, err := j.Explain("a", "c")
	if err != nil {
		t.Fatal(err)
	}
	c.Y = "e" // corrupt: claim is about a different endpoint
	if err := Check(c, g); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Errorf("wrong endpoint: Check = %v, want rejection", err)
	}
	c2, _ := j.Explain("a", "c")
	c2.X = "b" // corrupt the start instead: step 0 no longer links up
	if err := Check(c2, g); !errors.Is(err, fault.ErrInvariantViolated) {
		t.Errorf("wrong start endpoint: Check = %v, want rejection", err)
	}
}

func TestCheckRejectsBrokenConflict(t *testing.T) {
	j := deltaJournal()
	g := j.Group()
	c, err := j.ExplainConflict("a", "c", 99, "eq#bad")
	if err != nil {
		t.Fatal(err)
	}
	missing := c
	missing.Conflicting = nil
	if err := Check(missing, g); err == nil {
		t.Error("conflict cert without conflicting assertion accepted")
	}
	agree := c
	s := *c.Conflicting
	s.Label = c.Label // the "conflict" now agrees with the chain
	agree.Conflicting = &s
	if err := Check(agree, g); err == nil {
		t.Error("conflict cert whose assertion agrees was accepted")
	}
	span := c
	s2 := *c.Conflicting
	s2.M = "d" // conflicting assertion spans the wrong pair
	span.Conflicting = &s2
	if err := Check(span, g); err == nil {
		t.Error("conflict cert with mismatched span accepted")
	}
}

func TestSabotageAlwaysRejected(t *testing.T) {
	j := deltaJournal()
	g := j.Group()
	certs := []Certificate[string, int64]{}
	for _, pair := range [][2]string{{"a", "c"}, {"a", "d"}, {"a", "a"}, {"e", "b"}} {
		c, err := j.Explain(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		certs = append(certs, c)
	}
	cc, err := j.ExplainConflict("a", "c", 99, "eq#bad")
	if err != nil {
		t.Fatal(err)
	}
	certs = append(certs, cc)
	// A trivial self-relation with no steps exercises the last-resort path.
	certs = append(certs, Certificate[string, int64]{Kind: Relation, X: "a", Y: "a"})

	for i, c := range certs {
		if err := Check(c, g); err != nil {
			t.Fatalf("cert %d invalid before sabotage: %v", i, err)
		}
		Sabotage(&c, g)
		if err := Check(c, g); err == nil {
			t.Errorf("cert %d accepted after sabotage", i)
		}
	}
}

func TestAffineJournal(t *testing.T) {
	// Certificates over a non-abelian group: y = 2x+1, z = 3y-2.
	j := NewJournal[int, group.Affine](group.TVPE{})
	g := j.Group()
	j.Record(0, 1, group.AffineInt(2, 1), "def y")
	j.Record(1, 2, group.AffineInt(3, -2), "def z")
	c, err := j.Explain(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(c, g); err != nil {
		t.Errorf("Check: %v", err)
	}
	// z = 3(2x+1)-2 = 6x+1.
	if !g.Equal(c.Label, group.AffineInt(6, 1)) {
		t.Errorf("composed label = %s, want 6x+1", g.Format(c.Label))
	}
	back, err := j.Explain(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(back, g); err != nil {
		t.Errorf("Check(reverse): %v", err)
	}
	if !g.Equal(g.Compose(c.Label, back.Label), g.Identity()) {
		t.Error("forward and backward labels do not cancel")
	}
}

func TestFormatMentionsEverything(t *testing.T) {
	j := deltaJournal()
	c, err := j.ExplainConflict("a", "c", 99, "eq#bad")
	if err != nil {
		t.Fatal(err)
	}
	s := Format(c, j.Group())
	for _, want := range []string{"conflict", "eq#0", "eq#1", "eq#bad", "conflicting assertion"} {
		if !strings.Contains(s, want) {
			t.Errorf("Format output missing %q:\n%s", want, s)
		}
	}
}

// TestCheckerIndependence enforces the acceptance criterion that the
// checker knows nothing about union-find internals: no file of this
// package may import luf/internal/core (or invariant, which imports
// core).
func TestCheckerIndependence(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if strings.Contains(path, "internal/core") || strings.Contains(path, "internal/invariant") {
					t.Errorf("%s imports %s: the certificate checker must be independent of union-find internals", filepath.Base(name), path)
				}
			}
		}
	}
}
