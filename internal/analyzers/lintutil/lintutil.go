// Package lintutil holds the small amount of type-resolution plumbing
// shared by the hetmplint analyzers.
package lintutil

import (
	"go/ast"
	"go/types"
	"strings"
)

// CalleeFunc resolves the function or method a call expression invokes,
// or nil when the callee is not a declared func (e.g. a func-typed
// variable, conversion, or builtin).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			f, _ := sel.Obj().(*types.Func)
			return f
		}
		// Package-qualified call (pkg.Func): no Selection entry.
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// FuncPkgPath returns the import path of the package declaring f, or ""
// for builtins.
func FuncPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// HasSegment reports whether any '/'-separated segment of the import
// path equals one of the names. Matching by segment rather than full
// path keeps the analyzers testable: an analysistest fixture package
// named "core" is treated exactly like hetmp/internal/core.
func HasSegment(path string, names ...string) bool {
	for _, seg := range strings.Split(path, "/") {
		for _, n := range names {
			if seg == n {
				return true
			}
		}
	}
	return false
}

// VirtualTimePackages is the set of package names whose code runs under
// the simulated clock or feeds it (cost models, kernels, the apportioner
// and stored decisions): every package below server, rpc, telemetry and
// cmd, the only places a wall read is legitimate. Wall-clock reads
// inside them break golden-trace reproducibility; only injected clocks
// are legal.
var VirtualTimePackages = []string{
	"core", "dsm", "simtime", "cluster", "machine", "experiments", "chaos",
	"perf", "interconnect", "kernels", "apportion", "decstore",
}

// IsVirtualTimePkg reports whether the import path names one of the
// packages that must run exclusively on virtual time.
func IsVirtualTimePkg(path string) bool {
	return HasSegment(path, VirtualTimePackages...)
}

// ReceiverNamed returns the declaring package path and base type name
// of a method's receiver (pointers dereferenced), or ("", "") when f is
// not a method on a named type.
func ReceiverNamed(f *types.Func) (pkgPath, typeName string) {
	if f == nil {
		return "", ""
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	return NamedTypeOf(sig.Recv().Type())
}

// NamedTypeOf dereferences pointers and returns the declaring package
// path and name of a named type, or ("", "") for unnamed types.
func NamedTypeOf(t types.Type) (pkgPath, typeName string) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name() // universe scope (error)
	}
	return obj.Pkg().Path(), obj.Name()
}
