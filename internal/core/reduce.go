package core

import (
	"fmt"

	"hetmp/internal/cluster"
)

// A reduction folds a region's iterations into accumulators of one type
// T, in place, up the thread hierarchy (worker → node leader → master),
// mirroring the paper's hierarchical reductions. No accumulator is made
// per region: a team owns one slot per worker and one per node leader
// (accSlots), and the App owns the master-side accumulators (the
// reduction's master array). Every fold writes the identity into its
// destination and then combines the sources into it in a fixed order,
// so a reused slot never carries an earlier region's value.

// The master-side accumulators of a reduction region.
const (
	// accResult is the region's result. A probing invocation's probe
	// period folds here, and the remainder is combined into it last.
	accResult = iota
	// accRemainder is the left fold of a probing invocation's remainder
	// windows: the first window folds here, later ones are combined in.
	accRemainder
	// accWindow is one remainder window after the first.
	accWindow
	masterAccs
)

// reducer is a reduction seen from the untyped runtime: every
// accumulator is named by its slot, never passed as a value.
type reducer interface {
	// bind points the reduction at t's slots, which it allocates the
	// first time t runs a reduction of this type.
	bind(t *team)
	// resetWorker writes the identity into worker flat's slot.
	resetWorker(flat int)
	// span folds iterations [lo, hi) into worker flat's slot.
	span(e cluster.Env, lo, hi, flat int)
	// foldNode resets node slot i and folds into it the slots of
	// workers lo..hi-1, in flat order.
	foldNode(i, lo, hi int)
	// foldNodes resets master accumulator dst and folds every node
	// slot into it, in team order.
	foldNodes(dst int)
	// foldWorkers resets master accumulator dst and folds every worker
	// slot into it, in flat order: the FlatHierarchy ablation.
	foldWorkers(dst int)
	// reset writes the identity into master accumulator dst.
	reset(dst int)
	// combine folds master accumulator src into dst.
	combine(dst, src int)
}

// reduceTo is a region's reduction and the master-side accumulator its
// dispatch folds into. The zero value is a plain loop.
type reduceTo struct {
	red reducer
	dst int
}

// accSlots is a team's accumulators for reductions of one type.
type accSlots[T any] struct {
	workers []T // by flat id
	nodes   []T // by the node's index in the team
}

// reduction is one typed reduction: the caller's functions, the
// master-side accumulators, and the slots of the team it is dispatched
// to. An App keeps the last one it ran and reuses it for the next
// reduction of the same type.
type reduction[T any] struct {
	resetFn   func(acc *T)
	body      func(e cluster.Env, lo, hi int, acc *T)
	combineFn func(dst, src *T)
	master    [masterAccs]T
	slots     *accSlots[T]
}

var _ reducer = (*reduction[int])(nil)

// ParallelReduce executes a work-sharing loop whose iterations fold
// into accumulators of type T, in place. reset writes the identity into
// an accumulator, body folds iterations [lo, hi) into one, and combine
// folds src into dst; combine must be associative with reset's value as
// its identity. Partial results are combined hierarchically (worker →
// node leader → master).
//
// The result is the App's own accumulator: it is valid until the App's
// next reduction, so copy out what must outlive that. A warm reduction
// allocates nothing; the first reduction of a type on a team allocates
// its slots.
func ParallelReduce[T any](a *App, regionID string, n int, sched Schedule,
	reset func(acc *T), body func(e cluster.Env, lo, hi int, acc *T), combine func(dst, src *T)) *T {
	if a.inRegion {
		panic(nestedRegion)
	}
	r, ok := a.reduction.(*reduction[T])
	if !ok {
		r = new(reduction[T])
		a.reduction = r
	}
	r.resetFn, r.body, r.combineFn = reset, body, combine
	a.parallel(regionID, n, sched, nil, r)
	return &r.master[accResult]
}

func (r *reduction[T]) bind(t *team) {
	s, ok := t.accs.(*accSlots[T])
	if !ok {
		s = &accSlots[T]{workers: make([]T, t.total), nodes: make([]T, len(t.nodes))}
		t.accs = s
	}
	r.slots = s
}

func (r *reduction[T]) resetWorker(flat int) { r.resetFn(&r.slots.workers[flat]) }

func (r *reduction[T]) span(e cluster.Env, lo, hi, flat int) {
	r.body(e, lo, hi, &r.slots.workers[flat])
}

func (r *reduction[T]) foldNode(i, lo, hi int) {
	dst := &r.slots.nodes[i]
	r.resetFn(dst)
	for w := lo; w < hi; w++ {
		r.combineFn(dst, &r.slots.workers[w])
	}
}

func (r *reduction[T]) foldNodes(dst int) { r.foldAll(dst, r.slots.nodes) }

func (r *reduction[T]) foldWorkers(dst int) { r.foldAll(dst, r.slots.workers) }

func (r *reduction[T]) foldAll(dst int, srcs []T) {
	d := &r.master[dst]
	r.resetFn(d)
	for i := range srcs {
		r.combineFn(d, &srcs[i])
	}
}

func (r *reduction[T]) reset(dst int) { r.resetFn(&r.master[dst]) }

func (r *reduction[T]) combine(dst, src int) { r.combineFn(&r.master[dst], &r.master[src]) }

// reduceBuffers holds the DSM regions that carry a team's reduction
// communication costs. Each node's leader slot lives on its own page to
// avoid false sharing between nodes.
type reduceBuffers struct {
	team *team
	// localRegions carry the worker→leader traffic (node-local, cheap).
	localRegions map[int]*cluster.Region
	// globalRegion carries the leader→master traffic (cross-node); one
	// page per node.
	globalRegion *cluster.Region
}

func newReduceBuffers(rt *Runtime, t *team) *reduceBuffers {
	b := &reduceBuffers{
		team:         t,
		localRegions: make(map[int]*cluster.Region, len(t.nodes)),
	}
	for _, n := range t.nodes {
		b.localRegions[n] = rt.cl.Alloc(fmt.Sprintf("reduce:local:%d:%s", n, t.key),
			int64(t.perNode[n])*8, n)
	}
	b.globalRegion = rt.cl.Alloc("reduce:global:"+t.key,
		int64(len(t.nodes))*4096, rt.cl.Origin())
	return b
}

// storePartial charges a worker's publication of its accumulator for
// its node leader: a node-local store.
func (b *reduceBuffers) storePartial(e cluster.Env, w workerID) {
	e.Store(b.localRegions[w.node], int64(w.local)*8, 8)
}

// combineNode is run by the node leader after the local arrive barrier:
// it folds the node's worker slots into the node's slot and publishes
// it on the leader's page of the global region (the only cross-node
// write of the whole reduction).
func (b *reduceBuffers) combineNode(e cluster.Env, node int, r reducer) {
	e.Load(b.localRegions[node], 0, b.localRegions[node].Size())
	slot, lo := b.slotOf(node)
	r.foldNode(slot, lo, lo+b.team.perNode[node])
	e.Store(b.globalRegion, int64(slot)*4096, 8)
}

// combineGlobal is run by the master after the end barrier: it folds
// the node slots into master accumulator dst, charging a read of each
// leader page.
func (b *reduceBuffers) combineGlobal(e cluster.Env, r reducer, dst int) {
	for slot := range b.team.nodes {
		e.Load(b.globalRegion, int64(slot)*4096, 8)
	}
	r.foldNodes(dst)
}

// combineFlat is the ablation path: the master folds every worker's
// slot directly, reading each one across the interconnect.
func (b *reduceBuffers) combineFlat(e cluster.Env, r reducer, dst int) {
	for _, n := range b.team.nodes {
		e.Load(b.localRegions[n], 0, b.localRegions[n].Size())
	}
	r.foldWorkers(dst)
}

// slotOf returns node's index in the team and the flat id of its first
// worker.
func (b *reduceBuffers) slotOf(node int) (slot, first int) {
	for i, n := range b.team.nodes {
		if n == node {
			return i, first
		}
		first += b.team.perNode[n]
	}
	panic(fmt.Sprintf("core: node %d not in team", node))
}
