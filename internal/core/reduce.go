package core

import (
	"fmt"

	"hetmp/internal/cluster"
)

// reduceRun describes a reduction attached to a region: every worker
// folds its iterations into a private accumulator; accumulators are
// combined up the thread hierarchy (worker → node leader → master),
// mirroring the paper's hierarchical reductions.
type reduceRun struct {
	init    func() any
	combine func(a, b any) any
	body    BodyReduce
	out     any
}

// reduceBuffers holds the per-node partial slots and the DSM regions
// that carry their communication costs. Each node's leader slot lives
// on its own page to avoid false sharing between nodes.
type reduceBuffers struct {
	team *team
	// partials[node][local] is each worker's accumulator.
	partials map[int][]any
	// nodeResult[slotOf(node)] is the leader-combined value for the
	// node. A slice, not a map: node leaders on different nodes write
	// their slots concurrently, and concurrent map assignment races
	// even on distinct keys.
	nodeResult []any
	// localRegions carry the worker→leader traffic (node-local, cheap).
	localRegions map[int]*cluster.Region
	// globalRegion carries the leader→master traffic (cross-node); one
	// page per node.
	globalRegion *cluster.Region
}

func newReduceBuffers(rt *Runtime, t *team) *reduceBuffers {
	b := &reduceBuffers{
		team:         t,
		partials:     make(map[int][]any, len(t.nodes)),
		nodeResult:   make([]any, len(t.nodes)),
		localRegions: make(map[int]*cluster.Region, len(t.nodes)),
	}
	for _, n := range t.nodes {
		b.partials[n] = make([]any, t.perNode[n])
		b.localRegions[n] = rt.cl.Alloc(fmt.Sprintf("reduce:local:%d:%s", n, t.key),
			int64(t.perNode[n])*8, n)
	}
	b.globalRegion = rt.cl.Alloc("reduce:global:"+t.key,
		int64(len(t.nodes))*4096, rt.cl.Origin())
	return b
}

// storePartial publishes a worker's accumulator for its node leader,
// charging a node-local store.
func (b *reduceBuffers) storePartial(e cluster.Env, w workerID, acc any) {
	b.partials[w.node][w.local] = acc
	e.Store(b.localRegions[w.node], int64(w.local)*8, 8)
}

// combineNode is run by the node leader after the local arrive barrier:
// it folds the node's partials and publishes the node result on the
// leader's page of the global region (the only cross-node write of the
// whole reduction).
func (b *reduceBuffers) combineNode(e cluster.Env, node int, r *reduceRun) {
	e.Load(b.localRegions[node], 0, b.localRegions[node].Size())
	acc := r.init()
	for _, p := range b.partials[node] {
		if p != nil {
			acc = r.combine(acc, p)
		}
	}
	slot := b.slotOf(node)
	b.nodeResult[slot] = acc
	e.Store(b.globalRegion, int64(slot)*4096, 8)
}

// combineGlobal is run by the master after the end barrier: it folds
// the node results, charging a read of each leader page.
func (b *reduceBuffers) combineGlobal(e cluster.Env, r *reduceRun) any {
	acc := r.init()
	for _, n := range b.team.nodes {
		slot := b.slotOf(n)
		e.Load(b.globalRegion, int64(slot)*4096, 8)
		if v := b.nodeResult[slot]; v != nil {
			acc = r.combine(acc, v)
		}
		b.nodeResult[slot] = nil
	}
	return acc
}

// combineFlat is the ablation path: the master folds every worker's
// partial directly, reading each one across the interconnect.
func (b *reduceBuffers) combineFlat(e cluster.Env, r *reduceRun) any {
	acc := r.init()
	for _, n := range b.team.nodes {
		e.Load(b.localRegions[n], 0, b.localRegions[n].Size())
		for i, p := range b.partials[n] {
			if p != nil {
				acc = r.combine(acc, p)
				b.partials[n][i] = nil
			}
		}
	}
	return acc
}

// clear resets the partial slots between regions.
func (b *reduceBuffers) clear() {
	for _, ps := range b.partials {
		for i := range ps {
			ps[i] = nil
		}
	}
}

func (b *reduceBuffers) slotOf(node int) int {
	for i, n := range b.team.nodes {
		if n == node {
			return i
		}
	}
	panic(fmt.Sprintf("core: node %d not in team", node))
}
