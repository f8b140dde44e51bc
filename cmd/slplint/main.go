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
	"io"
	"os"

	"slpdas/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it lints the packages args name and returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	findings, err := lint.Run(".", fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "slplint:", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
