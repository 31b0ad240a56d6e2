package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Interprocedural layer.
//
// The per-package framework type-checks each unit in its own universe:
// the source importer re-checks dependencies, so a *types.Func for
// package B seen from package A is a different object than the one in
// B's own unit. Identity across the program therefore hangs on the one
// thing both universes agree on — types.Func.FullName() strings like
// "(*hetmp/internal/server.RegionServer).chunkFinished" — and the Program
// index is keyed by them.
//
// Soundness caveats (see DESIGN.md §13): calls through interfaces,
// function values, and func literals are not resolved into call-graph
// edges, and the graph covers only the loaded packages (stdlib bodies
// are opaque). Summary-based analyzers built on this graph are
// therefore under-approximate: they can miss flows through dynamic
// dispatch, never invent ones that cannot happen statically.

// A Func is one function or method declaration in the loaded program.
type Func struct {
	// Full is the types.Func FullName — the program-wide identity.
	Full string
	Decl *ast.FuncDecl
	Pkg  *Package
}

// A Program is the whole-tree view interprocedural analyzers run on:
// every loaded package, a function index, and the static call graph.
type Program struct {
	Pkgs  []*Package
	Fset  *token.FileSet
	Funcs map[string]*Func

	names []string // sorted Funcs keys, for deterministic iteration
}

// BuildProgram indexes every function declaration across the packages
// and resolves each one's static callees. All packages must share one
// FileSet (the loaders guarantee this).
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs, Funcs: map[string]*Func{}}
	for _, pkg := range pkgs {
		if prog.Fset == nil {
			prog.Fset = pkg.Fset
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := &Func{
					Full: obj.FullName(),
					Decl: fd,
					Pkg:  pkg,
				}
				prog.Funcs[fn.Full] = fn
			}
		}
	}
	prog.names = make([]string, 0, len(prog.Funcs))
	for name := range prog.Funcs {
		prog.names = append(prog.names, name)
	}
	sort.Strings(prog.names)
	return prog
}

// EachFunc visits every indexed function in sorted FullName order —
// the deterministic iteration analyzers must use so their diagnostics
// and fixpoints are reproducible.
func (p *Program) EachFunc(visit func(*Func)) {
	for _, name := range p.names {
		visit(p.Funcs[name])
	}
}

// Fixpoint runs update until it reports no change, bounded by a depth
// proportional to the call-graph size (summary propagation is
// monotone, so the bound is a safety net, not a tuning knob).
func (p *Program) Fixpoint(update func() bool) {
	max := len(p.Funcs) + 2
	for i := 0; i < max; i++ {
		if !update() {
			return
		}
	}
}
