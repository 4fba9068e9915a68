// Command reprolint is the repo's invariant checker: it runs the
// internal/analysis suite (detclock, seededrand, canonorder, guardedby,
// syncrename, nofloateq) over Go packages and fails on any finding.
//
//	reprolint ./...            # what scripts/lint.sh and CI run
//	reprolint ./internal/sim
//
// Diagnostics print as file:line:col: message [analyzer]; exit status 1
// means findings, 2 means the tool itself failed. See DESIGN.md §13 for
// the invariant table and annotation escape hatches.
package main

import (
	"flag"
	"fmt"
	"os"

	"readretry/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: reprolint [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprolint:", err)
		os.Exit(2)
	}
	found := 0
	for _, pkg := range pkgs {
		for _, a := range analysis.All() {
			diags, err := pkg.Run(a)
			if err != nil {
				fmt.Fprintln(os.Stderr, "reprolint:", err)
				os.Exit(2)
			}
			for _, d := range diags {
				fmt.Println(d)
				found++
			}
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "reprolint: %d finding(s)\n", found)
		os.Exit(1)
	}
}
