// Package cert implements machine-checkable proof certificates for
// labeled-union-find answers (Section 8 of the paper; Nieuwenhuis–
// Oliveras proof production generalized from the free group to any
// label group).
//
// The contract: a fast, mutating, path-compressed structure should not
// be trusted on its own word. Every answer it gives — "n and m are
// related by ℓ", or "these constraints are contradictory" — can be
// turned into a Certificate: a chain of *asserted* relations (journal
// entries untouched by path compression, each carrying a user-supplied
// reason such as a solver constraint id or an analyzer program point)
// whose labels compose to the claimed relation. Check replays a
// certificate knowing nothing about union-find internals: it only
// composes labels along the chain and compares endpoints.
//
// Trust base. Check trusts exactly three things: the group operations
// (Compose/Inverse/Identity/Equal — validated separately by
// group.CheckLaws), the claim that each chain step was genuinely
// asserted for the stated reason (the caller can audit reasons against
// its own constraint store), and the code of Check itself (~40 lines,
// no state, no mutation). It deliberately does NOT import
// internal/core: a bug in find, path compression, randomized linking,
// or the persistent collapse can never make a wrong answer check out.
//
// A Certificate is its own wire form: its JSON encoding (field tags on
// Certificate and Step, Kind as the name "relation" or "conflict") is
// what lufd and the shard coordinator send, and a client decodes the
// network bytes straight back into a Certificate and re-checks it.
// Decoding refuses any other kind name.
package cert

import (
	"fmt"
	"strings"

	"luf/internal/fault"
	"luf/internal/group"
)

// Step is one link of a certificate chain: the asserted fact
// N --Label--> M, justified by Reason. A chain may traverse an
// assertion backwards; Reversed records that, and Check inverts the
// label itself — certificates always carry assertions exactly as they
// were made, so reasons stay auditable against the caller's records.
type Step[N comparable, L any] struct {
	N        N      `json:"n"`
	M        N      `json:"m"`
	Label    L      `json:"label"`
	Reversed bool   `json:"reversed,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

// From returns the node this step leaves in chain direction.
func (s Step[N, L]) From() N {
	if s.Reversed {
		return s.M
	}
	return s.N
}

// To returns the node this step reaches in chain direction.
func (s Step[N, L]) To() N {
	if s.Reversed {
		return s.N
	}
	return s.M
}

// oriented returns the label in chain direction.
func (s Step[N, L]) oriented(g group.Group[L]) L {
	if s.Reversed {
		return g.Inverse(s.Label)
	}
	return s.Label
}

// Kind discriminates certificate claims.
type Kind int

// Certificate kinds.
const (
	// Relation claims X --Label--> Y, evidenced by Steps.
	Relation Kind = iota
	// Conflict claims the assertion set is contradictory: Steps derive
	// X --Label--> Y while Conflicting asserts a different relation
	// between the same endpoints (an UNSAT core: the step reasons plus
	// the conflicting reason are the contradiction's support set).
	Conflict
)

// String names the kind for log and error text.
func (k Kind) String() string {
	switch k {
	case Relation:
		return "relation"
	case Conflict:
		return "conflict"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalText encodes the kind as its wire name, "relation" or
// "conflict"; any other value is refused rather than sent.
func (k Kind) MarshalText() ([]byte, error) {
	if k != Relation && k != Conflict {
		return nil, fmt.Errorf("unknown certificate kind %v", k)
	}
	return []byte(k.String()), nil
}

// UnmarshalText decodes a wire kind name, refusing every name but
// "relation" and "conflict".
func (k *Kind) UnmarshalText(text []byte) error {
	switch string(text) {
	case "relation":
		*k = Relation
	case "conflict":
		*k = Conflict
	default:
		return fmt.Errorf("unknown certificate kind %q", text)
	}
	return nil
}

// Certificate is a self-contained, replayable proof of one answer.
type Certificate[N comparable, L any] struct {
	Kind Kind `json:"kind"`
	// X, Y are the endpoints of the claim.
	X N `json:"x"`
	Y N `json:"y"`
	// Label is the claimed relation X --Label--> Y (for Conflict, the
	// relation derived by Steps that the Conflicting assertion
	// contradicts).
	Label L `json:"label"`
	// Steps is the evidence chain from X to Y. Journal.Explain returns
	// the directly recorded assertion when there is one, else the
	// proof-forest path; Check depends on neither.
	Steps []Step[N, L] `json:"steps"`
	// Conflicting is the contradicting assertion of a Conflict
	// certificate: an asserted relation between X and Y whose label
	// differs from the chain's composition. Nil for Relation.
	Conflicting *Step[N, L] `json:"conflicting,omitempty"`
}

// Reasons returns the deduplicated reasons supporting the certificate,
// in chain order — for a Conflict certificate this is the UNSAT core.
func (c Certificate[N, L]) Reasons() []string {
	seen := map[string]bool{}
	var out []string
	add := func(r string) {
		if r != "" && !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, s := range c.Steps {
		add(s.Reason)
	}
	if c.Conflicting != nil {
		add(c.Conflicting.Reason)
	}
	return out
}

// rejectf builds the classified rejection error shared by all Check
// failure paths.
func rejectf(format string, args ...any) error {
	return fault.Invariantf("certificate rejected: %s", fmt.Sprintf(format, args...))
}

// Check replays a certificate against the label group g and reports
// nil when the claim is justified by the chain, or an
// ErrInvariantViolated-classified error describing the first defect.
// It walks the chain from X, verifying that consecutive steps link up,
// composes the (orientation-adjusted) labels, checks the chain ends at
// Y, and compares the composition with the claimed Label; for Conflict
// certificates it additionally verifies the Conflicting assertion
// spans the same endpoints with a genuinely different label.
//
// Check is independent of union-find internals by construction: it
// imports no data-structure package and never consults the structure
// that produced the certificate.
func Check[N comparable, L any](c Certificate[N, L], g group.Group[L]) error {
	cur := c.X
	acc := g.Identity()
	for i, s := range c.Steps {
		if s.From() != cur {
			return rejectf("step %d starts at %v, chain is at %v", i, s.From(), cur)
		}
		acc = g.Compose(acc, s.oriented(g))
		cur = s.To()
	}
	if cur != c.Y {
		return rejectf("chain ends at %v, claim is about %v", cur, c.Y)
	}
	if !g.Equal(acc, c.Label) {
		return rejectf("chain composes to %s, claim is %s", g.Format(acc), g.Format(c.Label))
	}
	switch c.Kind {
	case Relation:
		return nil
	case Conflict:
		s := c.Conflicting
		if s == nil {
			return rejectf("conflict certificate without a conflicting assertion")
		}
		if s.From() != c.X || s.To() != c.Y {
			return rejectf("conflicting assertion spans (%v,%v), claim is about (%v,%v)",
				s.From(), s.To(), c.X, c.Y)
		}
		if g.Equal(s.oriented(g), c.Label) {
			return rejectf("conflicting assertion %s agrees with the derived relation — no conflict",
				g.Format(s.oriented(g)))
		}
		return nil
	default:
		return rejectf("unknown certificate kind %v", c.Kind)
	}
}

// Format renders a certificate for humans, one step per line:
//
//	relation x --(y = x + 2)--> z
//	  x --[+2]--> y   (eq#0)
//	  y --[+3]--> z   (eq#1)
func Format[N comparable, L any](c Certificate[N, L], g group.Group[L]) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %v --(%s)--> %v", c.Kind, c.X, g.Format(c.Label), c.Y)
	line := func(s Step[N, L]) {
		dir := "--"
		if s.Reversed {
			dir = "<-" // assertion recorded in the opposite direction
		}
		fmt.Fprintf(&sb, "\n  %v %s[%s]%s> %v", s.From(), dir, g.Format(s.Label), dir, s.To())
		if s.Reason != "" {
			fmt.Fprintf(&sb, "   (%s)", s.Reason)
		}
	}
	for _, s := range c.Steps {
		line(s)
	}
	if c.Conflicting != nil {
		sb.WriteString("\n  conflicting assertion:")
		line(*c.Conflicting)
	}
	return sb.String()
}

// Sabotage corrupts a certificate so that Check must reject it. It
// exists ONLY so fault injection (fault.Injector.CorruptCertAt) and
// negative tests can prove the checker catches corrupted answers;
// never call it from production code. The corruption picked is the
// first that applies: flip a non-identity step label, swap distinct
// endpoints, or strip a Conflict's conflicting assertion; as a last
// resort (a trivial self-relation certificate) it invalidates the
// kind.
func Sabotage[N comparable, L any](c *Certificate[N, L], g group.Group[L]) {
	for i, s := range c.Steps {
		if !group.IsIdentity(g, s.Label) {
			// l ≠ id ⟹ l;l ≠ l: the flipped label provably differs.
			c.Steps[i].Label = g.Compose(s.Label, s.Label)
			return
		}
	}
	if c.X != c.Y {
		c.X, c.Y = c.Y, c.X
		return
	}
	if c.Kind == Conflict && c.Conflicting != nil {
		c.Conflicting = nil
		return
	}
	c.Kind = Kind(-1)
}
