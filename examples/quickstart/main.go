// Quickstart: the labeled union-find in five minutes.
//
// A labeled union-find maintains binary relations drawn from a group —
// here affine relations y = a·x + b (TVPE) — and answers "how are x and z
// related?" in near-constant time by composing labels along find paths,
// instead of the O(n³) transitive closure a general weakly-relational
// domain needs.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"luf"
)

func main() {
	g := luf.TVPE{}
	uf := luf.New[string](g, luf.WithConflictHandler[string, luf.Affine](
		func(c luf.Conflict[string, luf.Affine]) {
			// Two different lines through the same pair of variables:
			// either parallel (unsatisfiable) or one intersection point.
			x, y, sat := luf.Intersect(c.Old, c.New)
			if !sat {
				fmt.Println("  conflict: parallel lines — state is unsatisfiable")
				return
			}
			fmt.Printf("  conflict: lines intersect at (%s, %s) — exact values learned\n", x, y)
		}))

	fmt.Println("Adding relations:")
	fmt.Println("  celsius    = 1·kelvin - 273   (temperature conversion)")
	uf.AddRelation("kelvin", "celsius", luf.AffineInt(1, -273))
	fmt.Println("  fahrenheit = 9/5·celsius + 32")
	uf.AddRelation("celsius", "fahrenheit", luf.MustAffine(luf.QFrac(9, 5), luf.QFrac(32, 1)))

	// The transitive relation is recovered by composing labels.
	rel, ok := uf.GetRelation("kelvin", "fahrenheit")
	fmt.Printf("\nDerived: fahrenheit = %s applied to kelvin (related: %v)\n", g.Format(rel), ok)

	// Queries on unrelated variables return no relation (⊤).
	if _, ok := uf.GetRelation("kelvin", "pascal"); !ok {
		fmt.Println("kelvin and pascal: unrelated (⊤)")
	}

	// Consistent facts are absorbed; inconsistent ones trigger the
	// conflict handler (Section 3.2 of the paper).
	fmt.Println("\nRe-adding a consistent relation: no conflict")
	uf.AddRelation("kelvin", "fahrenheit", rel)
	fmt.Println("Adding an inconsistent relation:")
	uf.AddRelation("kelvin", "fahrenheit", luf.AffineInt(2, 0))

	// Classes: all related variables share a representative.
	fmt.Printf("\nRelational class of celsius: %v\n", uf.Class("celsius"))
	fmt.Printf("Stats: %+v\n", uf.Stats())
}
