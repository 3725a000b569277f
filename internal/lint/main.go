package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// checkedPackages are the public-facing package directories, relative
// to the repository root: the facade plus the internals whose exported
// surfaces back it directly.
var checkedPackages = []string{
	".",
	"internal/core",
	"internal/concurrent",
	"internal/cert",
	"internal/wal",
	"internal/server",
	"internal/client",
	"internal/replica",
	"internal/shard",
	"internal/fault",
	"internal/scrub",
	"internal/group",
	"internal/bench",
	"internal/analyzer",
	"internal/solver",
	"internal/factor",
	"internal/domain",
	"internal/rational",
	"internal/interval",
	"internal/congruence",
	"internal/shostak",
}

// main lints the checked packages and exits 1 when any exported symbol
// lacks a name-first doc comment.
func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	total := 0
	for _, pkg := range checkedPackages {
		violations, err := CheckPackageDir(filepath.Join(root, pkg))
		if err != nil {
			fmt.Fprintf(os.Stderr, "lint %s: %v\n", pkg, err)
			os.Exit(2)
		}
		for _, v := range violations {
			fmt.Println(v)
		}
		total += len(violations)
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "doc lint: %d violation(s)\n", total)
		os.Exit(1)
	}
	fmt.Printf("doc lint: %d packages clean\n", len(checkedPackages))
}
