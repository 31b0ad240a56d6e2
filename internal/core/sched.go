package core

import (
	"fmt"
	"sync/atomic"

	"hetmp/internal/apportion"
	"hetmp/internal/cluster"
)

// Schedule selects how a work-sharing region's iterations are mapped to
// threads, mirroring OpenMP's schedule() clause. Construct them with
// StaticSchedule, DynamicSchedule or HetProbeSchedule.
type Schedule interface {
	// Name identifies the schedule in reports ("static", "dynamic",
	// "hetprobe").
	Name() string
	isSchedule()
}

// StaticSpec is the cross-node static scheduler: iterations are divided
// into one contiguous block per thread, skewed by per-node core speed
// ratios (Section 3.1). The mapping is deterministic across
// invocations, so pages settle onto nodes.
type StaticSpec struct {
	// CSR holds per-node weights: a node with weight 3 gives each of
	// its threads 3× the iterations of a weight-1 node's threads. An
	// empty map means equal weights (OpenMP's plain static).
	CSR map[int]float64
}

// Name implements Schedule.
func (StaticSpec) Name() string { return "static" }
func (StaticSpec) isSchedule()  {}

// StaticSchedule returns an unweighted static schedule.
func StaticSchedule() StaticSpec { return StaticSpec{} }

// StaticCSR returns a static schedule skewed by the given per-node core
// speed ratios.
func StaticCSR(csr map[int]float64) StaticSpec { return StaticSpec{CSR: csr} }

// DynamicSpec is the hierarchical cross-node dynamic scheduler: threads
// draw chunks from a node-local pool; when the pool runs dry, one
// thread is elected to refill it with a node-sized batch from the
// global pool (Section 3.1). Only refills touch global state.
type DynamicSpec struct {
	// Chunk is the per-grab iteration count (OpenMP's chunk size).
	// Defaults to 1.
	Chunk int
}

// Name implements Schedule.
func (DynamicSpec) Name() string { return "dynamic" }
func (DynamicSpec) isSchedule()  {}

// DynamicSchedule returns a dynamic schedule with the given chunk size.
func DynamicSchedule(chunk int) DynamicSpec { return DynamicSpec{Chunk: chunk} }

// HetProbeSpec is the paper's contribution: probe a deterministic
// slice of the iteration space on every node, measure execution time,
// DSM fault period and cache misses, then either distribute the
// remainder by measured core speed ratio or collapse onto the best
// single node (Section 3.2).
type HetProbeSpec struct{}

// Name implements Schedule.
func (HetProbeSpec) Name() string { return "hetprobe" }
func (HetProbeSpec) isSchedule()  {}

// HetProbeSchedule returns the HetProbe schedule.
func HetProbeSchedule() HetProbeSpec { return HetProbeSpec{} }

// span is a contiguous iteration range.
type span struct{ lo, hi int }

// staticDispatch precomputes each worker's block.
type staticDispatch struct {
	spans []span // indexed by workerID.flat
}

var _ dispatcher = (*staticDispatch)(nil)

// newStaticDispatch partitions [base, base+n) across the team's
// threads proportionally to their node weights. Every iteration is
// assigned exactly once; rounding remainders go to the earliest
// threads.
func newStaticDispatch(t *team, base, n int, csr map[int]float64) *staticDispatch {
	weights := make([]float64, t.total)
	var totalW float64
	flat := 0
	for _, node := range t.nodes {
		w := 1.0
		if csr != nil {
			if v, ok := csr[node]; ok && v > 0 {
				w = v
			}
		}
		for i := 0; i < t.perNode[node]; i++ {
			weights[flat] = w
			totalW += w
			flat++
		}
	}
	d := &staticDispatch{spans: make([]span, t.total)}
	if n <= 0 || totalW == 0 {
		for i := range d.spans {
			d.spans[i] = span{lo: base, hi: base}
		}
		return d
	}
	// Largest-remainder apportionment: deterministic, exact.
	counts := apportion.Split(n, weights)
	lo := base
	for i, c := range counts {
		d.spans[i] = span{lo: lo, hi: lo + c}
		lo += c
	}
	if lo != base+n {
		panic(fmt.Sprintf("core: static partition covered %d of %d iterations", lo-base, n))
	}
	return d
}

// runWorker implements dispatcher.
func (d *staticDispatch) runWorker(e cluster.Env, w workerID, t *team, r *regionRun, ws *workerState) {
	s := d.spans[w.flat]
	r.runSpan(e, s.lo, s.hi, ws)
}

// dynDispatch implements the hierarchical dynamic scheduler.
type dynDispatch struct {
	chunk int
	n     int
	// global is the cross-node iteration counter (DSM-resident, homed
	// at the origin).
	global cluster.Cell
	// pool holds, per node, the local pool packed as end<<32 | next so
	// a grab and its bounds-check observe one consistent state. Cells
	// are homed at their node, so local grabs are coherence-free.
	pool map[int]cluster.Cell
	// refill elects the thread that transfers the next batch.
	refill map[int]cluster.Cell
	// batch per node: chunk × threads on the node, so one refill feeds
	// the whole node (the electee grabs for everyone).
	batch map[int]int
	flat  bool
}

var _ dispatcher = (*dynDispatch)(nil)

// dynSeq disambiguates cell names across dispatches. Atomic because
// two runtimes (or concurrent Apps) may construct dynamic dispatches
// at the same time.
var dynSeq atomic.Int64

// newDynDispatch builds the pools for one region dispatch.
func newDynDispatch(rt *Runtime, t *team, n, chunk int) *dynDispatch {
	if chunk <= 0 {
		chunk = 1
	}
	seq := dynSeq.Add(1)
	d := &dynDispatch{
		chunk:  chunk,
		n:      n,
		global: rt.cl.NewCell(fmt.Sprintf("dyn:g:%d", seq), rt.cl.Origin()),
		pool:   make(map[int]cluster.Cell, len(t.nodes)),
		refill: make(map[int]cluster.Cell, len(t.nodes)),
		batch:  make(map[int]int, len(t.nodes)),
		flat:   rt.opts.FlatHierarchy,
	}
	for _, node := range t.nodes {
		d.pool[node] = rt.cl.NewCell(fmt.Sprintf("dyn:p:%d:%d", seq, node), node)
		d.refill[node] = rt.cl.NewCell(fmt.Sprintf("dyn:r:%d:%d", seq, node), node)
		d.batch[node] = chunk * t.perNode[node]
	}
	return d
}

// runWorker implements dispatcher: grab chunks until the global pool is
// exhausted.
//
// Pool protocol: a grab atomically adds chunk to the packed word and
// decodes (next, end) from the result. Reservations at or beyond end
// observe a dry pool and are discarded — such offsets are never part of
// any batch, so no iteration is lost, and refills replace the whole
// packed word atomically, so no torn (next, end) pair is ever visible.
func (d *dynDispatch) runWorker(e cluster.Env, w workerID, t *team, r *regionRun, ws *workerState) {
	if d.flat {
		// Ablation: every grab hits the global counter.
		for {
			lo := int(d.global.Add(e, int64(d.chunk))) - d.chunk
			if lo >= d.n {
				return
			}
			r.runSpan(e, lo, min(lo+d.chunk, d.n), ws)
		}
	}
	node := w.node
	pool, refill := d.pool[node], d.refill[node]
	for {
		// Fast path: take a chunk from the node-local pool.
		v := pool.Add(e, int64(d.chunk))
		take := int(uint32(v)) - d.chunk
		limit := int(uint32(v >> 32))
		if take < limit {
			r.runSpan(e, take, min(take+d.chunk, limit), ws)
			continue
		}
		// Local pool dry: elect a refiller. The winner transfers a
		// node-sized batch from the global pool — one cross-node
		// operation on behalf of every thread on the node (the paper's
		// leader-grabs-for-the-node optimization). Losers back off
		// briefly and retry the local pool; they never touch global
		// state.
		if refill.CompareAndSwap(e, 0, 1) {
			g := int(d.global.Add(e, int64(d.batch[node]))) - d.batch[node]
			if g >= d.n {
				refill.Store(e, 0)
				return
			}
			batchEnd := min(g+d.batch[node], d.n)
			pool.Store(e, int64(batchEnd)<<32|int64(g))
			refill.Store(e, 0)
			continue
		}
		// Lost the election: back off (a couple of microseconds of
		// local spinning) and retry. Termination: once the global pool
		// is exhausted, each thread eventually wins a refill election
		// and observes exhaustion.
		e.Compute(4000, 0)
	}
}
