// Package maporder flags ranging over a map when the iteration order
// can reach an ordering-sensitive sink.
//
// Invariant: Go randomizes map iteration per run. Any map range whose
// body appends to an outer slice, sends on a channel, writes output, or
// consumes virtual time / seeded randomness makes the result depend on
// the map seed — the exact class of the PR 4 makespan nondeterminism,
// where team teardown iterated rt.teams and shutdown consumed virtual
// time, flipping golden traces by the map seed. The fix idiom — collect
// the keys, sort, then iterate the sorted slice — is recognized and not
// flagged, but only as a whole: `keys = append(keys, k)` (the key
// alone) is the first half of sorted iteration when the same function
// later hands keys to a sort.* or slices.Sort* call, and an append to
// an outer slice like any other when it does not. Deleting the sort
// from the PR 4 teardown loop is therefore a finding at that loop. A
// key slice whose order provably cannot matter (connections gathered
// to be closed) or that its caller sorts carries a reasoned
// //hetmp:allow maporder.
//
// The analyzer is deliberately blind to one thing, documented here so
// nobody assumes otherwise: it does not flag commutative accumulation
// (`sum += v`), even though float accumulation is weakly
// order-sensitive.
package maporder

import (
	"go/ast"
	"go/token"
	"go/types"

	"hetmp/internal/analyzers/analysis"
	"hetmp/internal/analyzers/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flags range-over-map whose iteration order feeds an ordering-sensitive sink (append, sends, output, virtual time, rng draws)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		// One declaration at a time: a key-collect loop is judged by
		// whether the rest of its own function sorts what it collected.
		for _, decl := range f.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.TypesInfo.Types[rng.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if kind, pos := findSink(pass, rng, decl); kind != "" {
					pass.Reportf(rng.For,
						"map iteration order reaches an ordering-sensitive sink (%s at %s); iterate sorted keys or justify with //hetmp:allow maporder",
						kind, pass.Fset.Position(pos))
				}
				return true
			})
		}
	}
	return nil
}

// findSink returns a description and position of the first
// ordering-sensitive sink inside the range body, or ("", 0).
func findSink(pass *analysis.Pass, rng *ast.RangeStmt, decl ast.Decl) (string, token.Pos) {
	info := pass.TypesInfo
	keyObj := rangeKeyObj(info, rng)
	var kind string
	var pos token.Pos
	found := func(k string, p token.Pos) {
		if kind == "" {
			kind, pos = k, p
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if kind != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure merely built per iteration does not execute in
			// map order; calls that hand it to the scheduler are
			// caught as calls below.
			return false
		case *ast.SendStmt:
			found("channel send", n.Arrow)
		case *ast.CallExpr:
			if k := callSink(info, n, rng, decl, keyObj); k != "" {
				found(k, n.Pos())
			}
		}
		return true
	})
	return kind, pos
}

func rangeKeyObj(info *types.Info, rng *ast.RangeStmt) types.Object {
	id, ok := rng.Key.(*ast.Ident)
	if !ok {
		return nil
	}
	return info.Defs[id]
}

// callSink classifies one call inside the range body.
func callSink(info *types.Info, call *ast.CallExpr, rng *ast.RangeStmt, decl ast.Decl, keyObj types.Object) string {
	// Builtin append to a slice that outlives the loop.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
			return appendSink(info, call, rng, decl, keyObj)
		}
	}

	fn := lintutil.CalleeFunc(info, call)
	if fn != nil {
		pkg, name := lintutil.FuncPkgPath(fn), fn.Name()
		switch {
		case lintutil.HasSegment(pkg, "simtime"):
			return "virtual-time call simtime." + name
		case pkg == "fmt" && (hasPrefix(name, "Print") || hasPrefix(name, "Fprint")):
			return "output write fmt." + name
		case isWriteMethod(fn):
			return "output write ." + name
		}
	}

	// Virtual-time context or a seeded rng flowing into any call makes
	// the callee's time/stream consumption happen in map order.
	for _, arg := range call.Args {
		if tv, ok := info.Types[arg]; ok {
			if k := orderSensitiveType(tv.Type); k != "" {
				return k + " passed into call"
			}
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if tv, ok := info.Types[sel.X]; ok && !tv.IsType() {
			if k := orderSensitiveType(tv.Type); k != "" {
				return "method call on " + k
			}
		}
	}
	return ""
}

// appendSink flags appends that grow a slice declared outside the range
// statement, except the sorted-iteration key-collect idiom.
func appendSink(info *types.Info, call *ast.CallExpr, rng *ast.RangeStmt, decl ast.Decl, keyObj types.Object) string {
	if len(call.Args) == 0 {
		return ""
	}
	// keys = append(keys, k) / t.nodes = append(t.nodes, n): appending
	// the key alone is the first half of sort-then-iterate, the fix
	// idiom — provided the second half follows in the same function.
	if len(call.Args) == 2 && keyObj != nil {
		if el, ok := ast.Unparen(call.Args[1]).(*ast.Ident); ok && info.Uses[el] == keyObj && sortedLater(info, call.Args[0], rng, decl) {
			return ""
		}
	}
	if dst, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
		obj := info.Uses[dst]
		if obj == nil {
			return ""
		}
		if obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
			return "" // loop-local slice; order never escapes
		}
	}
	return "append to slice declared outside the loop"
}

// sortedLater reports whether the slice a key-collect grows (a variable
// or a struct field) is mentioned in an argument of a sort.* or
// slices.Sort* call after the range statement, anywhere in the
// enclosing declaration.
func sortedLater(info *types.Info, dst ast.Expr, rng *ast.RangeStmt, decl ast.Decl) bool {
	var obj types.Object
	switch dst := ast.Unparen(dst).(type) {
	case *ast.Ident:
		obj = info.Uses[dst]
	case *ast.SelectorExpr:
		obj = info.Uses[dst.Sel]
	}
	if obj == nil {
		return false
	}
	sorted := false
	ast.Inspect(decl, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Pos() > rng.End() && isSortCall(info, call) {
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
						sorted = true
					}
					return !sorted
				})
			}
		}
		return !sorted
	})
	return sorted
}

func isSortCall(info *types.Info, call *ast.CallExpr) bool {
	fn := lintutil.CalleeFunc(info, call)
	switch lintutil.FuncPkgPath(fn) {
	case "sort":
		switch fn.Name() {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			return true
		}
	case "slices":
		return hasPrefix(fn.Name(), "Sort")
	}
	return false
}

// orderSensitiveType describes types whose consumption order matters:
// virtual-time execution contexts and seeded rng streams.
func orderSensitiveType(t types.Type) string {
	if path, name := lintutil.NamedTypeOf(t); path != "" {
		if lintutil.HasSegment(path, "simtime") {
			return "virtual-time value simtime." + name
		}
		if name == "Env" && lintutil.HasSegment(path, "cluster") {
			return "virtual-time context cluster.Env"
		}
		if name == "Rand" && (path == "math/rand" || path == "math/rand/v2") {
			return "seeded *rand.Rand stream"
		}
		// DSM regions and spaces draw protocol jitter from the space's
		// seeded rng (and their access paths consume virtual time), so
		// touching them in map order reorders those draws by the map
		// seed.
		if (name == "Region" || name == "Space") && lintutil.HasSegment(path, "dsm") {
			return "jitter-drawing dsm." + name
		}
	}
	return ""
}

func isWriteMethod(fn *types.Func) bool {
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune":
	default:
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }
