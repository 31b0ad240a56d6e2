// Package analyzers aggregates the hetmplint analyzer suite.
//
// Each analyzer enforces one determinism or safety invariant of the
// runtime (see DESIGN.md §13, which names the dynamic gate that backs
// each one). The suite runs offline on a minimal reimplementation of
// the go/analysis API (internal/analyzers/analysis) because the build
// environment is hermetic; the analyzer code itself is written against
// the x/tools-shaped API so it can migrate to the real framework by
// changing import paths.
//
// Six analyzers (blockinglock, dsmstate, maporder, randsource,
// telemetryhandle, wallclock) inspect one function at a time. lockorder
// alone runs over the whole program, with per-function summaries
// propagated bottom-up over the call graph: a lock-order cycle split
// across functions or packages is the one violation class here that no
// test or double run sees (EXPERIMENTS.md, "Negative result:
// whole-program determinism and goroutine analyzers").
package analyzers

import (
	"hetmp/internal/analyzers/analysis"
	"hetmp/internal/analyzers/blockinglock"
	"hetmp/internal/analyzers/dsmstate"
	"hetmp/internal/analyzers/lockorder"
	"hetmp/internal/analyzers/maporder"
	"hetmp/internal/analyzers/randsource"
	"hetmp/internal/analyzers/telemetryhandle"
	"hetmp/internal/analyzers/wallclock"
)

// All returns the full hetmplint suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		blockinglock.Analyzer,
		dsmstate.Analyzer,
		lockorder.Analyzer,
		maporder.Analyzer,
		randsource.Analyzer,
		telemetryhandle.Analyzer,
		wallclock.Analyzer,
	}
}
