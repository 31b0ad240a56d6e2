// Package detflow implements the interprocedural determinism-taint
// analyzer: nondeterministic values — wall-clock reads, global
// math/rand draws, and slices accumulated in map-iteration order —
// must never reach a virtual-time sink (a simtime advance, a
// dispatch-hash input, or a virtual-time report field), no
// matter how many helper calls sit between the source and the sink.
//
// The per-function analyzers (wallclock, randsource, maporder) ban
// the sources outright inside virtual-time packages; detflow covers
// the complementary bug class where the source is legal at its own
// site (e.g. a wall-clock latency measurement in the server) but the
// VALUE leaks through function calls into state that must be
// bit-identical across runs.
//
// Mechanics: every function gets a summary — the taint of each result
// and whether each parameter flows into a sink — computed by an
// order-sensitive walk of its body and propagated bottom-up over the
// program call graph to a fixpoint. Calls through interfaces and
// function values are not resolved (see DESIGN.md §18), so the
// analyzer under-approximates: it misses dynamic dispatch, it does
// not invent impossible flows.
package detflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hetmp/internal/analyzers/analysis"
	"hetmp/internal/analyzers/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name:       "detflow",
	Doc:        "nondeterministic values (wall clock, global math/rand, map-range order) must not flow into virtual-time sinks, across any call depth",
	RunProgram: run,
}

// taint kinds.
const (
	kindWall uint8 = 1 << iota
	kindRand
	kindMapOrder
)

func kindNames(kinds uint8) string {
	var parts []string
	if kinds&kindWall != 0 {
		parts = append(parts, "wall-clock")
	}
	if kinds&kindRand != 0 {
		parts = append(parts, "global math/rand")
	}
	if kinds&kindMapOrder != 0 {
		parts = append(parts, "map-iteration-order")
	}
	return strings.Join(parts, "+")
}

// taint is one value's provenance: nondeterminism kinds plus the set
// of enclosing-function parameters it derives from (bitmask, so
// summaries can be substituted at call sites).
type taint struct {
	kinds  uint8
	params uint64
}

func (t taint) or(u taint) taint { return taint{t.kinds | u.kinds, t.params | u.params} }
func (t taint) zero() bool       { return t.kinds == 0 && t.params == 0 }

// summary is one function's interprocedural behavior.
type summary struct {
	returns   []taint // taint of each result
	paramSink uint64  // parameters that reach a virtual-time sink
}

func (s summary) equal(o summary) bool {
	if s.paramSink != o.paramSink || len(s.returns) != len(o.returns) {
		return false
	}
	for i := range s.returns {
		if s.returns[i] != o.returns[i] {
			return false
		}
	}
	return true
}

func run(pass *analysis.ProgramPass) error {
	prog := pass.Prog
	sums := map[string]*summary{}
	prog.EachFunc(func(fn *analysis.Func) { sums[fn.Full] = &summary{} })

	// Bottom-up propagation to a fixpoint: each pass re-analyzes every
	// body against the current summaries.
	prog.Fixpoint(func() bool {
		changed := false
		prog.EachFunc(func(fn *analysis.Func) {
			got := analyzeFunc(fn, sums, nil)
			if !got.equal(*sums[fn.Full]) {
				*sums[fn.Full] = got
				changed = true
			}
		})
		return changed
	})

	// Reporting pass: re-walk each body, emitting a diagnostic where a
	// really-tainted value (not just a parameter) meets a sink.
	prog.EachFunc(func(fn *analysis.Func) {
		analyzeFunc(fn, sums, pass)
	})
	return nil
}

// walker carries the per-function dataflow state.
type walker struct {
	fn   *analysis.Func
	info *types.Info
	sums map[string]*summary
	pass *analysis.ProgramPass // nil during summary computation

	env      map[types.Object]taint
	results  []types.Object // named results, for bare returns
	out      summary
	reported map[token.Pos]map[string]bool
}

// analyzeFunc computes fn's summary; with a non-nil pass it also
// reports source-kind taints meeting sinks. The body is walked twice
// so loop-carried taint (assigned late, used early) converges.
func analyzeFunc(fn *analysis.Func, sums map[string]*summary, pass *analysis.ProgramPass) summary {
	w := &walker{
		fn:       fn,
		info:     fn.Pkg.TypesInfo,
		sums:     sums,
		pass:     pass,
		env:      map[types.Object]taint{},
		reported: map[token.Pos]map[string]bool{},
	}
	sig, _ := fn.Obj.Type().(*types.Signature)
	if sig != nil {
		for i := 0; i < sig.Params().Len() && i < 64; i++ {
			w.env[sig.Params().At(i)] = taint{params: 1 << uint(i)}
		}
		w.out.returns = make([]taint, sig.Results().Len())
	}
	if fn.Decl.Body == nil {
		return w.out
	}
	// Named results, for bare `return`.
	if fn.Decl.Type.Results != nil {
		for _, field := range fn.Decl.Type.Results.List {
			for _, name := range field.Names {
				w.results = append(w.results, w.info.Defs[name])
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		w.stmts(fn.Decl.Body.List)
	}
	return w.out
}

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var t taint
					if i < len(vs.Values) {
						t = w.expr(vs.Values[i])
					} else if len(vs.Values) == 1 {
						t = w.callResult(vs.Values[0], i)
					}
					if obj := w.info.Defs[name]; obj != nil {
						w.env[obj] = t
					}
				}
			}
		}
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.GoStmt:
		w.expr(s.Call)
	case *ast.DeferStmt:
		w.expr(s.Call)
	case *ast.ReturnStmt:
		if len(s.Results) == 0 {
			for i, obj := range w.results {
				if i < len(w.out.returns) && obj != nil {
					w.out.returns[i] = w.out.returns[i].or(w.env[obj])
				}
			}
			return
		}
		if len(s.Results) == 1 && len(w.out.returns) > 1 {
			// return f() — a multi-result forward.
			for i := range w.out.returns {
				w.out.returns[i] = w.out.returns[i].or(w.callResult(s.Results[0], i))
			}
			return
		}
		for i, r := range s.Results {
			if i < len(w.out.returns) {
				w.out.returns[i] = w.out.returns[i].or(w.expr(r))
			}
		}
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		w.stmt(s.Body)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.stmt(s.Body)
		if s.Post != nil {
			w.stmt(s.Post)
		}
	case *ast.RangeStmt:
		w.rangeStmt(s)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		w.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.stmt(s.Assign)
		w.stmt(s.Body)
	case *ast.SelectStmt:
		w.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e)
		}
		w.stmts(s.Body)
	case *ast.CommClause:
		if s.Comm != nil {
			w.stmt(s.Comm)
		}
		w.stmts(s.Body)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.IncDecStmt:
		w.expr(s.X)
	}
}

// rangeStmt handles `for k, v := range x`. Ranging over a map makes
// the ORDER of iteration nondeterministic, so the key and value
// variables carry map-order taint: anything accumulated from them in
// iteration order (append to an outer slice, string concatenation, a
// float reduction) inherits it. Commutative integer reductions strip
// it again (see assign), and the key-collect-then-sort idiom clears
// it via the sort special case.
func (w *walker) rangeStmt(s *ast.RangeStmt) {
	xt := w.expr(s.X)
	if tv, ok := w.info.Types[s.X]; ok {
		if _, overMap := tv.Type.Underlying().(*types.Map); overMap {
			xt.kinds |= kindMapOrder
		}
	}
	bind := func(e ast.Expr) {
		if e == nil {
			return
		}
		if id, ok := e.(*ast.Ident); ok {
			obj := w.info.Defs[id]
			if obj == nil {
				obj = w.info.Uses[id]
			}
			if obj != nil {
				w.env[obj] = xt
			}
		}
	}
	bind(s.Key)
	bind(s.Value)
	w.stmt(s.Body)
}

// assign propagates taint through an assignment, applies the
// sort-clears-map-order special case, and checks field sinks.
func (w *walker) assign(s *ast.AssignStmt) {
	// Gather RHS taints first.
	taints := make([]taint, len(s.Lhs))
	if len(s.Rhs) == len(s.Lhs) {
		for i, r := range s.Rhs {
			taints[i] = w.expr(r)
		}
	} else if len(s.Rhs) == 1 {
		// a, b := f()  /  v, ok := m[k]  /  v, ok := x.(T)
		for i := range s.Lhs {
			taints[i] = w.callResult(s.Rhs[0], i)
		}
	}
	for i, l := range s.Lhs {
		t := taints[i]
		if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
			t = t.or(w.expr(l)) // op-assign reads the old value
		}
		// A commutative integer reduction (sum += m[k], bits |= v) is
		// insensitive to iteration order — strip map-order taint. The
		// float equivalents stay tainted: float addition is not
		// associative, so accumulation order changes the bits.
		if t.kinds&kindMapOrder != 0 && isCommutativeIntOp(s.Tok) {
			if tv, ok := w.info.Types[l]; ok {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					t.kinds &^= kindMapOrder
				}
			}
		}
		w.checkFieldSink(l, t)
		switch lv := ast.Unparen(l).(type) {
		case *ast.Ident:
			obj := w.info.Defs[lv]
			if obj == nil {
				obj = w.info.Uses[lv]
			}
			if obj != nil {
				if s.Tok == token.ASSIGN || s.Tok == token.DEFINE {
					w.env[obj] = t // strong update
				} else {
					w.env[obj] = w.env[obj].or(t)
				}
			}
		case *ast.SelectorExpr:
			// Field write: weakly taint the base variable.
			if base := rootIdent(lv); base != nil {
				if obj := w.info.Uses[base]; obj != nil && !t.zero() {
					w.env[obj] = w.env[obj].or(t)
				}
			}
		case *ast.IndexExpr:
			if base := rootIdent(lv); base != nil {
				if obj := w.info.Uses[base]; obj != nil && !t.zero() {
					w.env[obj] = w.env[obj].or(t)
				}
			}
		}
	}
}

// sinkFields are struct fields whose values must be bit-identical
// across runs: virtual time totals and the determinism hashes.
var sinkFields = map[string]string{
	"VirtualNs":      "virtual-time field",
	"VirtualSeconds": "virtual-time field",
	"DispatchHash":   "dispatch-hash field",
	"TraceHash":      "golden-trace field",
}

func (w *walker) checkFieldSink(l ast.Expr, t taint) {
	sel, ok := ast.Unparen(l).(*ast.SelectorExpr)
	if !ok {
		return
	}
	desc, ok := sinkFields[sel.Sel.Name]
	if !ok {
		return
	}
	w.sink(l.Pos(), t, desc+" "+sel.Sel.Name)
}

// sink records that a tainted value reached a virtual-time sink:
// source kinds are reported (reporting pass only), parameter bits
// fold into the function's paramSink summary.
func (w *walker) sink(pos token.Pos, t taint, what string) {
	w.out.paramSink |= t.params
	if t.kinds == 0 || w.pass == nil {
		return
	}
	msg := "nondeterministic " + kindNames(t.kinds) + " value flows into " + what
	if w.reported[pos] == nil {
		w.reported[pos] = map[string]bool{}
	}
	if w.reported[pos][msg] {
		return
	}
	w.reported[pos][msg] = true
	w.pass.Reportf(pos, "%s", msg)
}

// expr returns the taint of an expression, checking call sinks on the
// way.
func (w *walker) expr(e ast.Expr) taint {
	switch e := e.(type) {
	case nil:
		return taint{}
	case *ast.Ident:
		if obj := w.info.Uses[e]; obj != nil {
			return w.env[obj]
		}
		if obj := w.info.Defs[e]; obj != nil {
			return w.env[obj]
		}
		return taint{}
	case *ast.ParenExpr:
		return w.expr(e.X)
	case *ast.CallExpr:
		return w.call(e)
	case *ast.BinaryExpr:
		return w.expr(e.X).or(w.expr(e.Y))
	case *ast.UnaryExpr:
		return w.expr(e.X)
	case *ast.StarExpr:
		return w.expr(e.X)
	case *ast.SelectorExpr:
		return w.expr(e.X)
	case *ast.IndexExpr:
		return w.expr(e.X).or(w.expr(e.Index))
	case *ast.SliceExpr:
		return w.expr(e.X)
	case *ast.TypeAssertExpr:
		return w.expr(e.X)
	case *ast.CompositeLit:
		var t taint
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				t = t.or(w.expr(kv.Value))
			} else {
				t = t.or(w.expr(el))
			}
		}
		return t
	}
	return taint{}
}

// callResult returns the taint of result index i of a (possibly
// multi-result) expression — used for a, b := f() unpacking.
func (w *walker) callResult(e ast.Expr, i int) taint {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		// v, ok := m[k] and friends: both results share the taint.
		return w.expr(e)
	}
	fn := lintutil.CalleeFunc(w.info, call)
	if fn == nil {
		w.call(call)
		return taint{}
	}
	// Run the full call handling (sink checks, source kinds) once,
	// then pick out result i.
	whole := w.call(call)
	if sum, ok := w.sums[fn.FullName()]; ok && i < len(sum.returns) {
		return w.substitute(sum.returns[i], call)
	}
	return whole
}

// call handles one call expression: source classification, sink
// checks (primitive and summary-driven), and the union taint of the
// results.
func (w *walker) call(call *ast.CallExpr) taint {
	// Arguments are always walked (nested calls may hit sinks).
	argTaints := make([]taint, len(call.Args))
	for i, a := range call.Args {
		argTaints[i] = w.expr(a)
	}
	// Receiver (or other func-expr) taint: for callees whose body we
	// cannot see, a tainted receiver conservatively taints the result
	// (time.Now().UnixNano(), d.Seconds(), ...).
	funTaint := w.expr(call.Fun)

	fn := lintutil.CalleeFunc(w.info, call)
	if fn == nil {
		// Builtins that forward their arguments' values.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := w.info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "append", "min", "max":
					var t taint
					for _, at := range argTaints {
						t = t.or(at)
					}
					return t
				}
			}
		}
		return taint{}
	}
	full := fn.FullName()
	pkgPath := lintutil.FuncPkgPath(fn)

	// Sort established order: clears map-order taint from arg 0.
	if isSortCall(fn) {
		if len(call.Args) > 0 {
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if obj := w.info.Uses[id]; obj != nil {
					t := w.env[obj]
					t.kinds &^= kindMapOrder
					w.env[obj] = t
				}
			}
		}
		return taint{}
	}

	// Primitive sinks: every argument position.
	if sinkDesc := primitiveSink(fn, pkgPath); sinkDesc != "" {
		for i := range call.Args {
			if !argTaints[i].zero() {
				w.sink(call.Args[i].Pos(), argTaints[i], sinkDesc)
			}
		}
	}

	// Summary-driven sinks: arguments flowing into parameters that
	// reach a sink inside the callee (at any depth).
	if sum, ok := w.sums[full]; ok && sum.paramSink != 0 {
		for i := range call.Args {
			if i >= 64 {
				break
			}
			if sum.paramSink&(1<<uint(i)) != 0 && !argTaints[i].zero() {
				w.sink(call.Args[i].Pos(), argTaints[i],
					"a virtual-time sink inside "+full)
			}
		}
	}

	// Source classification.
	if t, ok := sourceTaint(w.info, call, fn, pkgPath); ok {
		return t
	}

	// Summary-driven result taint, with parameter substitution.
	if sum, ok := w.sums[full]; ok {
		var t taint
		for _, rt := range sum.returns {
			t = t.or(w.substitute(rt, call))
		}
		return t
	}

	// No body in the program (stdlib, interface method): conservative
	// value propagation — the result inherits whatever flowed in.
	t := funTaint
	for _, at := range argTaints {
		t = t.or(at)
	}
	return t
}

// substitute maps a summary taint (whose params bits refer to the
// CALLEE's parameters) into the caller's frame by folding in the
// taints of the corresponding arguments.
func (w *walker) substitute(t taint, call *ast.CallExpr) taint {
	out := taint{kinds: t.kinds}
	for i := 0; i < len(call.Args) && i < 64; i++ {
		if t.params&(1<<uint(i)) != 0 {
			out = out.or(w.expr(call.Args[i]))
		}
	}
	return out
}

// sourceTaint classifies nondeterminism sources.
func sourceTaint(info *types.Info, call *ast.CallExpr, fn *types.Func, pkgPath string) (taint, bool) {
	switch pkgPath {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return taint{kinds: kindWall}, true
		}
	case "math/rand", "math/rand/v2":
		// Methods run on explicitly seeded sources (randsource's
		// rule); only package-level draws are nondeterministic.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if _, isMethod := info.Selections[sel]; isMethod {
				return taint{}, false
			}
		}
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return taint{}, false
		}
		return taint{kinds: kindRand}, true
	}
	return taint{}, false
}

// primitiveSink classifies direct virtual-time sinks: simtime calls,
// determinism-hash mixing, and hash.Hash inputs.
func primitiveSink(fn *types.Func, pkgPath string) string {
	if lintutil.HasSegment(pkgPath, "simtime") {
		return "simtime." + fn.Name()
	}
	if fn.Name() == "mix" || fn.Name() == "Mix" {
		if _, recvType := lintutil.ReceiverNamed(fn); recvType != "" {
			return "determinism hash " + recvType + "." + fn.Name()
		}
	}
	if pkgPath == "hash" && fn.Name() == "Write" {
		return "hash fingerprint input"
	}
	return ""
}

// rootIdent returns the leftmost identifier of a selector/index/deref
// chain, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isCommutativeIntOp reports op-assign tokens whose integer forms are
// iteration-order insensitive.
func isCommutativeIntOp(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return true
	}
	return false
}

func isSortCall(fn *types.Func) bool {
	pkg := lintutil.FuncPkgPath(fn)
	if pkg != "sort" && pkg != "slices" {
		return false
	}
	return strings.HasPrefix(fn.Name(), "Sort") ||
		fn.Name() == "Strings" || fn.Name() == "Ints" || fn.Name() == "Float64s" ||
		fn.Name() == "Slice" || fn.Name() == "SliceStable"
}
