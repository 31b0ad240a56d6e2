// Package telemetryhandle flags telemetry registry lookups performed
// inside loop bodies.
//
// Invariant: the telemetry overhead contract (DESIGN §10, enforced by
// TestTelemetryWallBudget) is ≤5% with telemetry enabled and one nil
// test when disabled. Registry.Counter/Gauge/Histogram take the
// registry mutex and build a label-set key with fmt — fine at
// construction, ruinous per iteration or per chunk. Handles must be
// resolved once when the component is built and cached on the struct;
// the hot path then touches only the handle's atomic.
package telemetryhandle

import (
	"go/ast"
	"go/token"

	"hetmp/internal/analyzers/analysis"
	"hetmp/internal/analyzers/lintutil"
)

var lookupMethods = map[string]bool{
	"Counter":   true,
	"Gauge":     true,
	"Histogram": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "telemetryhandle",
	Doc:  "flags telemetry.Registry lookups (Counter/Gauge/Histogram) inside loops; handles must be cached at construction per the ≤5% overhead contract",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	reported := map[token.Pos]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			flagLookups(pass, body, reported)
			return true
		})
	}
	return nil
}

// flagLookups reports registry lookups in a loop body. Function
// literals are skipped: a closure built inside a loop is not itself a
// per-iteration path until it runs, and constructors frequently build
// callback closures in wiring loops.
func flagLookups(pass *analysis.Pass, body *ast.BlockStmt, reported map[token.Pos]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := lintutil.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || !lookupMethods[fn.Name()] {
			return true
		}
		recvPkg, recvType := lintutil.ReceiverNamed(fn)
		if recvType != "Registry" || !lintutil.HasSegment(recvPkg, "telemetry") {
			return true
		}
		if reported[call.Pos()] {
			return true
		}
		reported[call.Pos()] = true
		pass.Reportf(call.Pos(),
			"telemetry.Registry.%s inside a loop body; resolve the handle once at construction and reuse it (≤5%% overhead contract)",
			fn.Name())
		return true
	})
}
