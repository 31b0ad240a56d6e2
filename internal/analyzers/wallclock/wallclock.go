// Package wallclock flags wall-clock time sources inside virtual-time
// packages.
//
// Invariant: everything under the simulated clock (core, dsm, simtime,
// cluster, machine, experiments, chaos) and everything that feeds it a
// cost, a split or a stored decision (perf, interconnect, kernels,
// apportion, decstore) is bit-reproducible — the golden-trace tests
// hash entire schedules and the chaos tests replay seeded degradation
// timelines. A single time.Now or time.Sleep in those paths couples the
// simulation to the host scheduler and silently breaks replay. Wall
// time is legal only at the system boundary (server, RPC, telemetry
// wall track, CLI progress), which is outside these packages or
// explicitly marked with //hetmp:allow wallclock. Banning the read at
// its source in every package below that boundary is what lets the
// suite do without a taint tracker at the sinks.
package wallclock

import (
	"go/ast"
	"go/types"

	"hetmp/internal/analyzers/analysis"
	"hetmp/internal/analyzers/lintutil"
)

// wallFuncs are the package-level functions of "time" that read or wait
// on the host clock. Pure arithmetic (time.Duration, ParseDuration,
// Unix construction) is fine anywhere.
var wallFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
	"Tick":      true,
	"Since":     true,
	"Until":     true,
}

var Analyzer = &analysis.Analyzer{
	Name: "wallclock",
	Doc:  "flags time.Now/Sleep/After/NewTimer/NewTicker (and friends) in virtual-time packages where only injected clocks are legal",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !lintutil.IsVirtualTimePkg(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || lintutil.FuncPkgPath(fn) != "time" || !wallFuncs[fn.Name()] {
				return true
			}
			// Referencing the function (e.g. storing time.Now as a
			// clock callback) is as wall-coupled as calling it.
			pass.Reportf(sel.Pos(),
				"wall clock time.%s in virtual-time package %s; use the injected clock (simtime.Proc / cluster.Env) or justify with //hetmp:allow wallclock",
				fn.Name(), pass.Pkg.Path())
			return true
		})
	}
	return nil
}
