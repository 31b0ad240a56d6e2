package core

import (
	"strconv"
	"time"

	"hetmp/internal/apportion"
	"hetmp/internal/cluster"
	"hetmp/internal/perf"
	"hetmp/internal/telemetry"
)

// workerID identifies one team thread.
type workerID struct {
	node  int // node the thread runs on
	local int // index among the node's threads
	flat  int // index in the team-wide flattened order
}

// measurement is what one worker records for a probed region.
type measurement struct {
	node    int
	iters   int
	elapsed time.Duration
	delta   perf.Counters
}

// regionRun describes one dispatched parallel region. The master writes
// it before releasing the start barrier; workers read it afterwards
// (the barrier provides the happens-before edge on real backends). It
// is the team's own (team.run), reset by each dispatch.
type regionRun struct {
	stop  bool
	body  Body
	sched dispatcher
	// measure makes every worker record its measurement in the
	// team's results.
	measure bool
	// reduce, when its reducer is non-nil, makes workers fold their
	// spans into the team's slots, combined up the hierarchy into the
	// master-side accumulator reduce.dst.
	reduce reduceTo
}

// workerState is one worker's per-region scratch.
type workerState struct {
	flat  int // the worker's flat id: its reduction slot
	iters int
}

// runSpan executes one contiguous span of iterations, routing through
// the reduction body when one is attached.
func (r *regionRun) runSpan(e cluster.Env, lo, hi int, ws *workerState) {
	if hi <= lo {
		return
	}
	ws.iters += hi - lo
	if r.reduce.red != nil {
		r.reduce.red.span(e, lo, hi, ws.flat)
		return
	}
	r.body(e, lo, hi)
}

// dispatcher hands a worker its share of a region.
type dispatcher interface {
	runWorker(e cluster.Env, w workerID, t *team, r *regionRun, ws *workerState)
}

// team is a persistent set of worker threads spread across a node set,
// organized into the paper's two-level hierarchy: per-node groups with
// elected leaders, plus the master thread (always resident on the
// origin node — the Popcorn Linux constraint).
//
// Like libgomp's work-share state, a region's descriptor, its static
// partition, its measurement slots and its reduction slots belong to
// the team and are reset by each dispatch, so a warm region allocates
// nothing. What a caller reads of them after the team's next dispatch
// must be copied out first (DESIGN.md §12, "A team owns its per-region
// state").
type team struct {
	rt      *Runtime
	nodes   []int  // participating nodes, ascending
	key     string // the node set's canonical name
	perNode []int  // workers per node, by node index
	total   int    // worker count (excluding master)
	handles []cluster.Handle
	// run is the dispatched region, written by the master before the
	// start barrier.
	run regionRun
	// results is the workers' measurement slots, indexed by flat id.
	results []measurement
	// accs is the reduction slots (*accSlots[T]) of the type the team
	// last reduced, one per worker and one per node leader.
	accs any
	// weights, static and split are the static partition's buffers.
	weights []float64
	static  staticDispatch
	split   apportion.Splitter
	// probe is a probing period's chunk assignment.
	probe probeDispatch
	start *hierBarrier
	end   *hierBarrier
	// chains[n] is node n's walk from a region's end barrier into the
	// next region's start barrier: end arrive (stop), end release,
	// start arrive (stop), start release. A worker that is no leader
	// waits through it without running code; a stop hands it the
	// leader's path. nil for nodes with no thread of the team.
	chains []cluster.Chain
	// masterEnd is the master's end barrier alone: its node's end
	// arrive (stop) and end release.
	masterEnd cluster.Chain
	reduceBuf *reduceBuffers
	// foldNode is the node leader's end-barrier hook of a reduction,
	// built once.
	foldNode func(cluster.Env)
}

// Indexes into a team chain of the links where a walk can stop.
const (
	endArrive   = 0
	startArrive = 2
)

// key canonicalizes a node set for naming a team's shared state.
func teamKey(nodes []int) string {
	var k []byte
	for _, n := range nodes {
		k = strconv.AppendInt(k, int64(n), 10)
		k = append(k, ',')
	}
	return string(k)
}

// newTeam spawns worker threads for every core of every node in the
// set (ascending, no duplicates). The master (the caller) is a barrier
// participant on its own node even when that node contributes no
// workers.
func newTeam(rt *Runtime, master cluster.Env, nodes []int) *team {
	specs := rt.specs
	t := &team{
		rt:      rt,
		nodes:   nodes,
		key:     teamKey(nodes),
		perNode: make([]int, len(specs)),
	}
	parties := make([]int, len(specs))
	for _, n := range nodes {
		t.perNode[n] = specs[n].Cores
		t.total += specs[n].Cores
		parties[n] = specs[n].Cores
	}
	masterNode := master.Node()
	parties[masterNode]++ // the master takes part on its own node
	t.start = newHierBarrier(rt, "start", t.key, parties)
	t.end = newHierBarrier(rt, "end", t.key, parties)
	t.chains = make([]cluster.Chain, len(specs))
	for n, c := range parties {
		if c == 0 {
			continue
		}
		links := []cluster.Link{
			{Barrier: t.end.arrive[n], Stop: true}, {Barrier: t.end.release[n]},
			{Barrier: t.start.arrive[n], Stop: true}, {Barrier: t.start.release[n]},
		}
		t.chains[n] = rt.cl.NewChain(links...)
		if n == masterNode {
			t.masterEnd = rt.cl.NewChain(links[:startArrive]...)
		}
	}
	t.reduceBuf = newReduceBuffers(rt, t)
	t.foldNode = func(le cluster.Env) {
		// The master's node takes part in every barrier, with or
		// without workers of its own.
		if node := le.Node(); t.perNode[node] > 0 {
			t.reduceBuf.combineNode(le, node, t.run.reduce.red)
		}
	}

	flat := 0
	for _, n := range t.nodes {
		node := strconv.Itoa(n)
		for i := 0; i < t.perNode[n]; i++ {
			w := workerID{node: n, local: i, flat: flat}
			flat++
			local := strconv.Itoa(i)
			if rt.tracer != nil {
				rt.tracer.NameTrack(workerTrack(n, i), "node "+node+" ("+specs[n].Name+")", "worker "+local)
			}
			h := master.Spawn(n, "w"+node+"."+local, func(e cluster.Env) {
				t.workerLoop(e, w)
			})
			t.handles = append(t.handles, h)
		}
	}
	return t
}

// workerLoop is the body of every team thread: rendezvous, execute the
// dispatched region, rendezvous again. Between two regions the thread
// makes one chain walk through the end and the next start barrier,
// leaving it only to lead its node.
func (t *team) workerLoop(e cluster.Env, w workerID) {
	// One scratch per worker thread, reset per region: regions are the
	// innermost hot loop, and nothing retains the pointer past the end
	// barrier (measurements and reduction partials are copied out).
	var scratch workerState
	chain := t.chains[w.node]
	at := chain.Wait(e, startArrive)
	for {
		if at == startArrive {
			t.start.lead(e, nil)
		}
		desc := &t.run
		if desc.stop {
			return
		}
		scratch = workerState{flat: w.flat}
		ws := &scratch
		if red := desc.reduce.red; red != nil {
			red.resetWorker(w.flat)
		}
		tr := t.rt.tracer
		if desc.measure {
			before := e.Counters()
			t0 := e.Now()
			desc.sched.runWorker(e, w, t, desc, ws)
			end := e.Now()
			t.results[w.flat] = measurement{
				node:    w.node,
				iters:   ws.iters,
				elapsed: end - t0,
				delta:   e.Counters().Sub(before),
			}
			if tr != nil {
				tr.Emit(workerTrack(w.node, w.local), "probe-chunk", t0, end,
					telemetry.Arg{Key: "iterations", Val: strconv.Itoa(ws.iters)})
			}
		} else if tr != nil {
			t0 := e.Now()
			desc.sched.runWorker(e, w, t, desc, ws)
			tr.Emit(workerTrack(w.node, w.local), "chunks", t0, e.Now(),
				telemetry.Arg{Key: "iterations", Val: strconv.Itoa(ws.iters)})
		} else {
			desc.sched.runWorker(e, w, t, desc, ws)
		}
		if ctrs := t.rt.iterCtrs; ctrs != nil {
			ctrs[w.node].Add(int64(ws.iters))
		}
		if desc.reduce.red != nil {
			t.reduceBuf.storePartial(e, w)
		}
		at = chain.Wait(e, endArrive)
		if at == endArrive {
			t.end.lead(e, t.leaderHook())
			at = chain.Wait(e, startArrive)
		}
	}
}

// leaderHook returns the node-leader callback of the dispatched
// region, or nil when no leader work is needed.
func (t *team) leaderHook() func(cluster.Env) {
	if t.run.reduce.red == nil || t.rt.opts.FlatHierarchy {
		return nil
	}
	return t.foldNode
}

// dispatch runs one region under sched to completion from the master
// thread, through the team's own descriptor. A reduction's workers fold
// into the team's slots, and the master folds them into into.dst. With
// measure set it returns the workers' measurements: the team's own
// slots, valid until its next dispatch.
func (t *team) dispatch(master cluster.Env, body Body, into reduceTo, sched dispatcher, measure bool) []measurement {
	t.run = regionRun{body: body, reduce: into, sched: sched, measure: measure}
	if measure {
		if t.results == nil {
			t.results = make([]measurement, t.total)
		}
		clear(t.results)
	}
	if into.red != nil {
		into.red.bind(t)
	}
	t.masterStart(master)
	// Workers execute; master proceeds straight to the end barrier.
	if t.masterEnd.Wait(master, endArrive) == endArrive {
		t.end.lead(master, t.leaderHook())
	}
	if into.red != nil {
		if t.rt.opts.FlatHierarchy {
			t.reduceBuf.combineFlat(master, into.red, into.dst)
		} else {
			t.reduceBuf.combineGlobal(master, into.red, into.dst)
		}
	}
	if !measure {
		return nil
	}
	return t.results
}

// masterStart is the master's wait at the start barrier.
func (t *team) masterStart(master cluster.Env) {
	if t.chains[master.Node()].Wait(master, startArrive) == startArrive {
		t.start.lead(master, nil)
	}
}

// shutdown terminates the worker threads and joins them.
func (t *team) shutdown(master cluster.Env) {
	t.run = regionRun{stop: true}
	t.masterStart(master)
	for _, h := range t.handles {
		h.Join(master)
	}
	t.handles = nil
}

// hierBarrier is the paper's two-level barrier: threads synchronize on
// a per-node barrier; the last arrival on each node becomes the node
// leader and represents the node at the global level, touching the
// DSM-backed arrival word. Non-leader threads never touch global state
// (Figure 3). With Options.FlatHierarchy set, every thread goes global
// — the ablation configuration: each thread is then its own node
// leader.
//
// The per-node rendezvous are waited through a team's chains; lead is
// the leader's part.
type hierBarrier struct {
	// arrive[n] and release[n] are node n's rendezvous, nil where n has
	// a single participant and everywhere under FlatHierarchy.
	arrive  []cluster.Barrier
	release []cluster.Barrier
	// global synchronizes the node leaders (plus master), or every
	// thread under FlatHierarchy.
	global cluster.Barrier
	// word is the DSM-resident arrival counter leaders update; its
	// traffic is the cross-node synchronization cost.
	word cluster.Cell
}

// newHierBarrier sizes the barrier for parties[n] threads on each node
// n, the master included.
func newHierBarrier(rt *Runtime, name, key string, parties []int) *hierBarrier {
	b := &hierBarrier{
		arrive:  make([]cluster.Barrier, len(parties)),
		release: make([]cluster.Barrier, len(parties)),
		word:    rt.cl.NewCell("bar:"+name+":"+key, rt.cl.Origin()),
	}
	total, leaders := 0, 0
	for n, c := range parties {
		total += c
		if c == 0 {
			continue
		}
		leaders++
		if c > 1 && !rt.opts.FlatHierarchy {
			b.arrive[n] = rt.cl.NewBarrier(c)
			b.release[n] = rt.cl.NewBarrier(c)
		}
	}
	if rt.opts.FlatHierarchy {
		leaders = total
	}
	b.global = rt.cl.NewBarrier(leaders)
	return b
}

// lead is a node leader's part of the barrier, entered by the last
// arrival on its node (or the sole thread there): run onLeader (if
// non-nil) — this is where hierarchical reductions fold each node's
// partials — announce the node's arrival on the shared word, meet the
// other leaders, then release the node's threads.
func (b *hierBarrier) lead(e cluster.Env, onLeader func(cluster.Env)) {
	if onLeader != nil {
		onLeader(e)
	}
	b.word.Add(e, 1)
	b.global.Wait(e)
	if r := b.release[e.Node()]; r != nil {
		r.Wait(e)
	}
}
