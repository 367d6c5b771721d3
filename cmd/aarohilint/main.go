// Command aarohilint is the multichecker for aarohi's source invariants: the
// custom analyzers in internal/lint (hotpath, lockblock, mustclose, durable,
// layering, unsafe) run over the packages matching the given patterns and
// report findings in the familiar file:line:col form. Exit status 1 means findings, 2 means the
// tool itself failed. Stock correctness analyzers (nilness, shadow,
// unusedwrite, …) stay with `go vet`, which scripts/check.sh runs alongside
// this tool; aarohilint carries only the repo-specific invariants vet cannot
// know about.
//
// Usage:
//
//	aarohilint [-analyzers hotpath,durable] [-list] [-json] [packages]
//
// With no patterns, ./... is linted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	var (
		analyzers = flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list      = flag.Bool("list", false, "list analyzers and exit")
		asJSON    = flag.Bool("json", false, "emit findings as JSON")
		dir       = flag.String("C", "", "change to dir before resolving patterns")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected, err := lint.Select(*analyzers)
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.Load(*dir, flag.Args())
	if err != nil {
		fatal(err)
	}
	diags, err := lint.Run(pkgs, selected)
	if err != nil {
		fatal(err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "aarohilint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aarohilint:", err)
	os.Exit(2)
}
