// Command hetmplint runs the repo's domain-specific analyzer suite —
// five per-function checks (dsmstate, maporder, randsource,
// telemetryhandle, wallclock) plus the whole-program lockorder, which
// reports lock-order cycles and blocking under a held lock — over the
// named package patterns, multichecker style.
//
//	hetmplint ./...
//	hetmplint -list
//	hetmplint ./internal/core ./internal/dsm
//
// After the suite runs, every //hetmp:allow comment that no analyzer
// fired on is itself reported as a stale suppression ("staleallow"):
// an allow whose check no longer fires is hiding nothing and must be
// deleted, or it will silently mask a future regression at that line.
//
// Exit status: 0 when no diagnostics survive //hetmp:allow filtering
// and no suppression is stale, 1 when findings are reported, 2 on
// usage or load/type-check errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"hetmp/internal/analyzers"
	"hetmp/internal/analyzers/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("hetmplint", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the analyzers in the suite and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: hetmplint [-list] <package patterns>\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}

	pkgs, err := analysis.LoadPatterns(fs.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hetmplint: %v\n", err)
		return 2
	}
	diags, fset, err := analysis.Run(pkgs, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hetmplint: %v\n", err)
		return 2
	}
	// A suppression only earns its keep while its check still fires:
	// anything left unfired is reported and fails the run.
	diags = append(diags, analysis.StaleSuppressions(pkgs)...)
	for _, d := range diags {
		fmt.Printf("%s: [%s] %s\n", fset.Position(d.Pos), d.Category, d.Message)
	}
	if len(diags) > 0 {
		fmt.Printf("hetmplint: %d finding(s) across %d package unit(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
