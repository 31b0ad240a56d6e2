// Package dsmstate implements the DSM-protocol-invariant analyzer.
// The coherence state of every page lives in the unexported pageState
// values inside internal/dsm, and the protocol's correctness proofs
// (CheckInvariants, the equivalence tests) assume state transitions
// happen only inside the sanctioned helpers: Alloc, SettleAt and
// fault, the one fault transaction. A write anywhere else can produce
// states the invariant checker never sees between checks.
//
// Writes to local pageState copies (st := r.pages[pg]; st.writer = 0)
// are legal everywhere: the analyzer distinguishes shared lvalues
// (slice elements, pointer dereferences, struct fields) from value
// copies.
package dsmstate

import (
	"go/ast"
	"go/types"

	"hetmp/internal/analyzers/analysis"
	"hetmp/internal/analyzers/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "dsmstate",
	Doc:  "pageState in internal/dsm may be mutated only by Alloc, SettleAt and fault",
	Run:  run,
}

// sanctioned are the protocol helpers allowed to write page state.
var sanctioned = map[string]bool{
	"Alloc":    true,
	"SettleAt": true,
	"fault":    true,
}

func run(pass *analysis.Pass) error {
	if !lintutil.HasSegment(pass.Pkg.Path(), "dsm") {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || sanctioned[fd.Name.Name] {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var lhs []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					lhs = n.Lhs
				case *ast.IncDecStmt:
					lhs = []ast.Expr{n.X}
				default:
					return true
				}
				for _, l := range lhs {
					if isStateWrite(pass.TypesInfo, l) {
						pass.Reportf(l.Pos(), "pageState may only be mutated by the sanctioned protocol helpers (Alloc, SettleAt, fault); move this write into one of them")
					}
				}
				return true
			})
		}
	}
	return nil
}

// isPageState reports whether t is (a pointer to) the pageState type
// of a dsm package.
func isPageState(t types.Type) bool {
	if t == nil {
		return false
	}
	pkg, name := lintutil.NamedTypeOf(t)
	return name == "pageState" && lintutil.HasSegment(pkg, "dsm")
}

// isStateWrite reports whether assigning through e mutates shared page
// state (a slice element, pointer target, or reachable struct field)
// rather than a local value copy.
func isStateWrite(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && isPageState(tv.Type) {
		// Whole-value store: pages[i] = pageState{...}, *st = ...
		return sharedLvalue(info, e)
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		// Field store: st.writer = ..., r.pages[i].copyset |= ...
		tv, ok := info.Types[sel.X]
		if !ok || tv.Type == nil {
			return false
		}
		if ptr, ok := tv.Type.(*types.Pointer); ok && isPageState(ptr.Elem()) {
			return true
		}
		if isPageState(tv.Type) {
			return sharedLvalue(info, sel.X)
		}
	}
	return false
}

// sharedLvalue reports whether the pageState-typed expression denotes
// shared storage: writes through it are visible beyond the current
// function frame.
func sharedLvalue(info *types.Info, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		v, ok := obj.(*types.Var)
		// A package-level pageState variable is shared; a local (or a
		// parameter, which is a copy) is not.
		return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
	case *ast.StarExpr:
		return true
	case *ast.IndexExpr:
		return true
	case *ast.SelectorExpr:
		tv, ok := info.Types[e.X]
		if ok && tv.Type != nil {
			if _, isPtr := tv.Type.(*types.Pointer); isPtr {
				return true
			}
		}
		return sharedLvalue(info, e.X)
	}
	return false
}
