// Command slplint runs the repository's custom static-analysis suite: the
// four analyzers of internal/lint (mapiter, seedpurity, resetcomplete,
// hotpath) that machine-check the determinism, seed-purity,
// reset-completeness and zero-alloc contracts every PR must preserve. CI
// runs it beside go vet; the tree must stay clean.
//
// Usage:
//
//	slplint [packages]
//
// The packages default to ./... . Exit status: 0 when clean, 1 when
// findings exist, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"slpdas/internal/lint"
)

func main() {
	flag.Parse()
	findings, err := lint.Run(lint.Config{Dir: ".", Patterns: flag.Args()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "slplint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
