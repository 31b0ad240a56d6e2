// Package lockorder is the suite's one lock walker: it walks every
// function body with the set of sync.Mutex/RWMutex locks held at each
// statement and enforces two rules over it.
//
// Lock order: a global graph whose nodes are lock identities —
// "pkg.Type.field" for mutexes embedded in named structs, "pkg.var" for
// package-level mutexes — and whose edges record "b was acquired while
// a was held", including acquisitions reached through any depth of
// function calls, must be acyclic. A cycle is a potential deadlock.
//
// Blocking under a lock: no channel send or receive, select, simtime
// yield, interconnect round trip or sync.WaitGroup.Wait while any lock
// is held — the DSM deadlock shape "hold a lock, wait for progress
// that needs the lock". sync.Cond.Wait releases its mutex and is fine.
//
// Three summaries are computed per function and propagated bottom-up:
//
//   - acquires: every lock the function takes, transitively — a call
//     made under lock L adds edges L→acquires(callee);
//   - netHeld: locks still held when the function returns (acquire
//     helpers) — they join the caller's held set after the call, so a
//     blocking operation after `s.lockIt()` is seen;
//   - netReleased: locks released that the function did not itself
//     acquire (release helpers) — they leave the caller's held set.
//
// Identity is per lock FIELD, not per instance: two instances of the
// same struct type locked in sequence produce a self-edge. That is
// deliberate — instance-hierarchy locking needs an explicit
// //hetmp:allow with the ordering argument spelled out. A mutex with no
// program-wide identity, such as a local variable, is held for the
// blocking rule under its printed name but is never a node of the
// graph: two functions that each lock a local `mu` share nothing.
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"hetmp/internal/analyzers/analysis"
	"hetmp/internal/analyzers/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name:       "lockorder",
	Doc:        "cross-function lock acquisition order must be acyclic, and nothing may block (channel op, select, simtime yield, interconnect round trip, WaitGroup.Wait) while a sync.Mutex/RWMutex is held",
	RunProgram: run,
}

// simtimeYields park the calling proc until the engine resumes it;
// interconnectRoundTrips are modelled cross-node protocol exchanges.
var (
	simtimeYields = map[string]bool{
		"Advance": true, "AdvanceTo": true, "Yield": true, "Join": true, "Run": true,
		"Wait": true, // Barrier.Wait, Gate.Wait, Chain.Wait
		"Use":  true, // Resource.Use
		"Walk": true, // Proc.Walk
	}
	interconnectRoundTrips = map[string]bool{
		"PageFault": true, "ControlMessage": true,
		"PageFaultBetween": true, "ControlMessageBetween": true,
	}
)

// callSite is one static call made while locks were held.
type callSite struct {
	callee string
	pos    token.Pos
	held   []string
}

// facts are one function's direct lock behavior.
type facts struct {
	own   map[string]bool // locks acquired synchronously in the body
	edges map[[2]string]token.Pos
	calls []callSite
	// syncCallees are static callees invoked on this goroutine — the
	// propagation set for transitive acquires. Targets of `go` are
	// deliberately absent.
	syncCallees map[string]bool
	blocking    []analysis.Diagnostic // operations that can block under a held lock
}

func run(pass *analysis.ProgramPass) error {
	prog := pass.Prog

	// Walk every body to a fixpoint: the walk consumes callee
	// netHeld/netReleased summaries, which the walk itself produces.
	netHeld := map[string]map[string]bool{}
	netRel := map[string]map[string]bool{}
	allFacts := map[string]*facts{}
	prog.Fixpoint(func() bool {
		changed := false
		prog.EachFunc(func(fn *analysis.Func) {
			f, nh, nr := collect(fn, netHeld, netRel)
			allFacts[fn.Full] = f
			if !sameSet(netHeld[fn.Full], nh) {
				netHeld[fn.Full] = nh
				changed = true
			}
			if !sameSet(netRel[fn.Full], nr) {
				netRel[fn.Full] = nr
				changed = true
			}
		})
		return changed
	})

	// The last walk saw the settled summaries: its blocking findings
	// are the ones to report.
	prog.EachFunc(func(fn *analysis.Func) {
		for _, d := range allFacts[fn.Full].blocking {
			pass.Reportf(d.Pos, "%s", d.Message)
		}
	})

	// Transitive acquires, propagated bottom-up to a fixpoint. Only
	// SYNCHRONOUS callees count: a `go` statement's target runs on its
	// own stack and simply waits for locks the spawner still holds —
	// that is scheduling, not lock ordering.
	acq := map[string]map[string]bool{}
	prog.EachFunc(func(fn *analysis.Func) {
		set := map[string]bool{}
		for l := range allFacts[fn.Full].own {
			set[l] = true
		}
		acq[fn.Full] = set
	})
	prog.Fixpoint(func() bool {
		changed := false
		prog.EachFunc(func(fn *analysis.Func) {
			set := acq[fn.Full]
			for callee := range allFacts[fn.Full].syncCallees {
				for l := range acq[callee] {
					if !set[l] {
						set[l] = true
						changed = true
					}
				}
			}
		})
		return changed
	})

	// Global edge set: direct edges plus held-across-call edges.
	edges := map[[2]string]token.Pos{}
	addEdge := func(from, to string, pos token.Pos) {
		key := [2]string{from, to}
		if old, ok := edges[key]; !ok || before(prog.Fset, pos, old) {
			edges[key] = pos
		}
	}
	prog.EachFunc(func(fn *analysis.Func) {
		f := allFacts[fn.Full]
		for key, pos := range f.edges {
			addEdge(key[0], key[1], pos)
		}
		for _, cs := range f.calls {
			for to := range acq[cs.callee] {
				for _, from := range cs.held {
					if from == to && netHeld[cs.callee][to] {
						// The callee's only relationship to this lock
						// may be the acquisition that put it in OUR
						// held set (an acquire helper called twice is
						// still a real self-edge via the direct path).
						continue
					}
					addEdge(from, to, cs.pos)
				}
			}
		}
	})

	keys := make([][2]string, 0, len(edges))
	for key := range edges {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})

	// Reachability over the lock graph (adjacency built from the
	// sorted edge list so traversal order is deterministic).
	adj := map[string][]string{}
	for _, key := range keys {
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == to {
				return true
			}
			if seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, adj[n]...)
		}
		return false
	}

	for _, key := range keys {
		from, to := key[0], key[1]
		if from == to {
			pass.Reportf(edges[key], "re-acquiring %s while it is already held (mutexes are not reentrant: self-deadlock)", from)
			continue
		}
		if reaches(to, from) {
			pass.Reportf(edges[key], "acquiring %s while holding %s completes a lock-order cycle (potential deadlock)", to, from)
		}
	}
	return nil
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range b {
		if !a[k] {
			return false
		}
	}
	return true
}

func before(fset *token.FileSet, a, b token.Pos) bool {
	pa, pb := fset.Position(a), fset.Position(b)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	if pa.Line != pb.Line {
		return pa.Line < pb.Line
	}
	return pa.Column < pb.Column
}

// collect walks one function body, tracking the held-lock set in
// statement order (branch bodies see a copy: a lock acquired inside a
// branch is not assumed held after it). It returns the function's
// direct facts plus its netHeld / netReleased summaries.
//
// A held set maps each held lock to whether it is a node of the lock
// graph: true for a program-wide identity, false for a lock known only
// by its printed expression, which counts for the blocking rule alone.
func collect(fn *analysis.Func, netHeld, netRel map[string]map[string]bool) (*facts, map[string]bool, map[string]bool) {
	f := &facts{
		own:         map[string]bool{},
		edges:       map[[2]string]token.Pos{},
		syncCallees: map[string]bool{},
	}
	if fn.Decl.Body == nil {
		return f, map[string]bool{}, map[string]bool{}
	}
	w := &lockWalker{
		info:        fn.Pkg.TypesInfo,
		f:           f,
		netHeld:     netHeld,
		netRel:      netRel,
		deferredRel: map[string]bool{},
		relNotHeld:  map[string]bool{},
	}
	held := map[string]bool{}
	w.stmts(fn.Decl.Body.List, held)
	nh := map[string]bool{}
	for l, node := range held {
		if node && !w.deferredRel[l] {
			nh[l] = true
		}
	}
	return f, nh, w.relNotHeld
}

type lockWalker struct {
	info    *types.Info
	f       *facts
	netHeld map[string]map[string]bool
	netRel  map[string]map[string]bool

	deferredRel map[string]bool // released by a defer, i.e. held until return
	relNotHeld  map[string]bool // released without a matching acquire here

	// goCtx marks walking a go-statement's func literal: everything in
	// there happens on ANOTHER goroutine, so its acquisitions produce
	// edges of their own but never count as the spawner's.
	goCtx bool
}

// goSub derives a walker for a spawned func literal: shared facts for
// edge/call recording, fresh release bookkeeping, goCtx set.
func (w *lockWalker) goSub() *lockWalker {
	return &lockWalker{
		info:        w.info,
		f:           w.f,
		netHeld:     w.netHeld,
		netRel:      w.netRel,
		deferredRel: map[string]bool{},
		relNotHeld:  map[string]bool{},
		goCtx:       true,
	}
}

// heldNodes lists the held locks that are nodes of the lock graph.
func heldNodes(held map[string]bool) []string {
	var out []string
	for l, node := range held {
		if node {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// blocking records an operation that can block when any lock is held.
// The message names the smallest held lock, so it does not depend on
// map order.
func (w *lockWalker) blocking(pos token.Pos, held map[string]bool, what, why string) {
	name := ""
	for l := range held {
		if name == "" || l < name {
			name = l
		}
	}
	if name == "" {
		return
	}
	w.f.blocking = append(w.f.blocking, analysis.Diagnostic{Pos: pos, Message: fmt.Sprintf("%s while %q is held; %s", what, name, why)})
}

func (w *lockWalker) stmts(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *lockWalker) stmt(s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X, held)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r, held)
		}
		for _, l := range s.Lhs {
			w.expr(l, held)
		}
	case *ast.DeferStmt:
		w.deferCall(s.Call, held)
	case *ast.GoStmt:
		// Arguments are evaluated synchronously, but the spawned body
		// runs on its own stack without the spawner's locks: its
		// acquisitions are walked in goCtx (edges recorded, nothing
		// attributed to the spawner), and a named target is simply not
		// a synchronous callee.
		for _, a := range s.Call.Args {
			w.expr(a, held)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.goSub().stmts(lit.Body.List, map[string]bool{})
		}
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.expr(s.Cond, held)
		w.stmt(s.Body, copyHeld(held))
		if s.Else != nil {
			w.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.expr(s.Cond, held)
		}
		w.stmt(s.Body, copyHeld(held))
		if s.Post != nil {
			w.stmt(s.Post, copyHeld(held))
		}
	case *ast.RangeStmt:
		w.expr(s.X, held)
		w.stmt(s.Body, copyHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			w.stmt(c, copyHeld(held))
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.stmt(s.Assign, held)
		for _, c := range s.Body.List {
			w.stmt(c, copyHeld(held))
		}
	case *ast.SelectStmt:
		w.blocking(s.Select, held, "select", "all arms can block under the lock")
		for _, c := range s.Body.List {
			w.stmt(c, copyHeld(held))
		}
	case *ast.CaseClause:
		for _, e := range s.List {
			w.expr(e, held)
		}
		w.stmts(s.Body, held)
	case *ast.CommClause:
		// The select was reported at its keyword: the arm's own send or
		// receive is not reported again, only its operands are walked.
		switch c := s.Comm.(type) {
		case *ast.SendStmt:
			w.expr(c.Chan, held)
			w.expr(c.Value, held)
		case *ast.ExprStmt:
			w.expr(ast.Unparen(c.X).(*ast.UnaryExpr).X, held)
		case *ast.AssignStmt:
			w.expr(ast.Unparen(c.Rhs[0]).(*ast.UnaryExpr).X, held)
		}
		w.stmts(s.Body, held)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, held)
		}
	case *ast.SendStmt:
		w.blocking(s.Arrow, held, "channel send", "sends can block and the receiver may need the lock")
		w.expr(s.Chan, held)
		w.expr(s.Value, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, held)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.expr(s.X, held)
	}
}

// deferCall handles a deferred call. A deferred Unlock (direct or via
// a release helper) keeps the lock held for the rest of the body —
// that is its point — but excludes it from netHeld. Anything else
// deferred runs with whatever is held at return, approximated by the
// current held set.
func (w *lockWalker) deferCall(call *ast.CallExpr, held map[string]bool) {
	if op, key, node := lockOp(w.info, call); op == opUnlock {
		if node {
			w.deferredRel[key] = true
		}
		return
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.stmts(lit.Body.List, copyHeld(held))
		return
	}
	for _, a := range call.Args {
		w.expr(a, held)
	}
	fn := lintutil.CalleeFunc(w.info, call)
	if fn == nil {
		return
	}
	full := w.callee(fn, call.Pos(), held)
	for l := range w.netRel[full] {
		w.deferredRel[l] = true
	}
}

// callee records a static call made on this goroutine under held
// locks and returns the callee's program-wide name.
func (w *lockWalker) callee(fn *types.Func, pos token.Pos, held map[string]bool) string {
	full := fn.FullName()
	if !w.goCtx {
		w.f.syncCallees[full] = true
	}
	if nodes := heldNodes(held); len(nodes) > 0 {
		w.f.calls = append(w.f.calls, callSite{callee: full, pos: pos, held: nodes})
	}
	return full
}

func (w *lockWalker) expr(e ast.Expr, held map[string]bool) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(e, held)
	case *ast.ParenExpr:
		w.expr(e.X, held)
	case *ast.BinaryExpr:
		w.expr(e.X, held)
		w.expr(e.Y, held)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			w.blocking(e.OpPos, held, "channel receive", "the sender may need the lock to make progress")
		}
		w.expr(e.X, held)
	case *ast.StarExpr:
		w.expr(e.X, held)
	case *ast.SelectorExpr:
		w.expr(e.X, held)
	case *ast.IndexExpr:
		w.expr(e.X, held)
		w.expr(e.Index, held)
	case *ast.SliceExpr:
		w.expr(e.X, held)
		w.expr(e.Low, held)
		w.expr(e.High, held)
		w.expr(e.Max, held)
	case *ast.TypeAssertExpr:
		w.expr(e.X, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el, held)
		}
	case *ast.KeyValueExpr:
		w.expr(e.Key, held)
		w.expr(e.Value, held)
	case *ast.FuncLit:
		// A func literal's body runs at some call site; approximate
		// with the current held set (lexical context).
		w.stmts(e.Body.List, copyHeld(held))
	}
}

// call classifies one call: lock op, unlock op, or ordinary call.
func (w *lockWalker) call(call *ast.CallExpr, held map[string]bool) {
	w.expr(call.Fun, held)
	for _, a := range call.Args {
		w.expr(a, held)
	}
	op, key, node := lockOp(w.info, call)
	switch op {
	case opLock:
		if key == "" {
			return
		}
		if node {
			if !w.goCtx {
				w.f.own[key] = true
			}
			for from, fromNode := range held {
				k := [2]string{from, key}
				if _, ok := w.f.edges[k]; fromNode && !ok {
					w.f.edges[k] = call.Pos()
				}
			}
		}
		held[key] = node
	case opUnlock:
		if _, ok := held[key]; ok {
			delete(held, key)
		} else if node && !w.goCtx {
			w.relNotHeld[key] = true
		}
	default:
		fn := lintutil.CalleeFunc(w.info, call)
		if fn == nil {
			return
		}
		w.blockingCall(call, fn, held)
		full := w.callee(fn, call.Pos(), held)
		// An acquire helper leaves its lock held in us; a release
		// helper takes one away.
		for l := range w.netHeld[full] {
			held[l] = true
		}
		for l := range w.netRel[full] {
			delete(held, l)
		}
	}
}

// blockingCall reports a call that parks its caller: a simtime yield,
// an interconnect round trip or sync.WaitGroup.Wait. sync.Cond.Wait is
// not one: it atomically releases the mutex while parked, the one
// sanctioned way to wait under a lock.
func (w *lockWalker) blockingCall(call *ast.CallExpr, fn *types.Func, held map[string]bool) {
	if len(held) == 0 {
		return
	}
	pkg := lintutil.FuncPkgPath(fn)
	switch {
	case lintutil.HasSegment(pkg, "simtime") && simtimeYields[fn.Name()]:
		w.blocking(call.Pos(), held, "simtime yield "+fn.Name(), "the proc parks under the lock and the resuming proc may need it")
	case lintutil.HasSegment(pkg, "interconnect") && interconnectRoundTrips[fn.Name()]:
		w.blocking(call.Pos(), held, "interconnect round-trip "+fn.Name(), "protocol exchanges must not run under a DSM lock")
	case pkg == "sync" && fn.Name() == "Wait":
		if _, recv := lintutil.ReceiverNamed(fn); recv == "WaitGroup" {
			w.blocking(call.Pos(), held, "sync.WaitGroup.Wait", "the waited-on goroutines may need the lock")
		}
	}
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

// lockOp classifies a call as a sync.Mutex/RWMutex acquire or release.
// It returns the lock's key in a held set and whether that key is a
// program-wide identity (a node of the lock graph) or only the printed
// receiver of a lock that has none, such as a local variable.
func lockOp(info *types.Info, call *ast.CallExpr) (kind lockOpKind, key string, node bool) {
	fn := lintutil.CalleeFunc(info, call)
	if fn == nil {
		return opNone, "", false
	}
	recvPkg, recvType := lintutil.ReceiverNamed(fn)
	if recvPkg != "sync" || (recvType != "Mutex" && recvType != "RWMutex") {
		return opNone, "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		kind = opLock
	case "Unlock", "RUnlock":
		kind = opUnlock
	default:
		return opNone, "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return kind, "", false
	}
	if id := lockIdent(info, sel.X); id != "" {
		return kind, id, true
	}
	return kind, types.ExprString(sel.X), false
}

// lockIdent names a lock expression: "pkg.Type.field" for a mutex
// field of a named struct, "pkg.var" for a package-level mutex, ""
// (no program-wide identity) otherwise.
func lockIdent(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		tv, ok := info.Types[e.X]
		if !ok {
			return ""
		}
		pkg, typ := lintutil.NamedTypeOf(tv.Type)
		if typ == "" {
			return ""
		}
		return pkg + "." + typ + "." + e.Sel.Name
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		if v, ok := obj.(*types.Var); ok && v.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
	}
	return ""
}
