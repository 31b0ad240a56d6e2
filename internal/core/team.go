package core

import (
	"fmt"
	"strconv"
	"time"

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
// (the barrier provides the happens-before edge on real backends).
type regionRun struct {
	stop    bool
	n       int
	body    Body
	sched   dispatcher
	measure bool
	// results holds per-worker measurements when measure is set.
	results []measurement
	// reduce, when non-nil, makes workers produce partial values that
	// are combined up the hierarchy.
	reduce *reduceRun
}

// workerState is one worker's per-region scratch.
type workerState struct {
	acc   any
	iters int
}

// runSpan executes one contiguous span of iterations, routing through
// the reduction body when one is attached.
func (r *regionRun) runSpan(e cluster.Env, lo, hi int, ws *workerState) {
	if hi <= lo {
		return
	}
	ws.iters += hi - lo
	if r.reduce != nil {
		ws.acc = r.reduce.body(e, lo, hi, ws.acc)
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
type team struct {
	rt      *Runtime
	nodes   []int  // participating nodes, ascending
	key     string // the node set's canonical name
	perNode []int  // workers per node, by node index
	total   int    // worker count (excluding master)
	handles []cluster.Handle
	desc    *regionRun
	start   *hierBarrier
	end     *hierBarrier
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
}

// Indexes into a team chain of the links where a walk can stop.
const (
	endArrive   = 0
	startArrive = 2
)

// key canonicalizes a node set for naming a team's shared state.
func teamKey(nodes []int) string {
	k := ""
	for _, n := range nodes {
		k += fmt.Sprintf("%d,", n)
	}
	return k
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

	flat := 0
	for _, n := range t.nodes {
		for i := 0; i < t.perNode[n]; i++ {
			w := workerID{node: n, local: i, flat: flat}
			flat++
			rt.tracer.NameTrack(workerTrack(n, i),
				fmt.Sprintf("node %d (%s)", n, specs[n].Name), fmt.Sprintf("worker %d", i))
			h := master.Spawn(n, fmt.Sprintf("w%d.%d", n, i), func(e cluster.Env) {
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
		desc := t.desc
		if desc.stop {
			return
		}
		scratch = workerState{}
		ws := &scratch
		if desc.reduce != nil {
			ws.acc = desc.reduce.init()
		}
		tr := t.rt.tracer
		if desc.measure {
			before := e.Counters()
			t0 := e.Now()
			desc.sched.runWorker(e, w, t, desc, ws)
			end := e.Now()
			desc.results[w.flat] = measurement{
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
		if desc.reduce != nil {
			t.reduceBuf.storePartial(e, w, ws.acc)
		}
		at = chain.Wait(e, endArrive)
		if at == endArrive {
			t.end.lead(e, t.leaderHook(desc))
			at = chain.Wait(e, startArrive)
		}
	}
}

// leaderHook returns the node-leader reduction callback for a region,
// or nil when no leader work is needed.
func (t *team) leaderHook(desc *regionRun) func(cluster.Env) {
	if desc.reduce == nil || t.rt.opts.FlatHierarchy {
		return nil
	}
	return func(le cluster.Env) {
		if _, ok := t.reduceBuf.partials[le.Node()]; ok {
			t.reduceBuf.combineNode(le, le.Node(), desc.reduce)
		}
	}
}

// dispatch runs one region to completion from the master thread.
func (t *team) dispatch(master cluster.Env, desc *regionRun) {
	if desc.reduce != nil {
		t.reduceBuf.clear()
	}
	t.desc = desc
	t.masterStart(master)
	// Workers execute; master proceeds straight to the end barrier.
	if t.masterEnd.Wait(master, endArrive) == endArrive {
		t.end.lead(master, t.leaderHook(desc))
	}
	if desc.reduce != nil {
		if t.rt.opts.FlatHierarchy {
			desc.reduce.out = t.reduceBuf.combineFlat(master, desc.reduce)
		} else {
			desc.reduce.out = t.reduceBuf.combineGlobal(master, desc.reduce)
		}
	}
}

// masterStart is the master's wait at the start barrier.
func (t *team) masterStart(master cluster.Env) {
	if t.chains[master.Node()].Wait(master, startArrive) == startArrive {
		t.start.lead(master, nil)
	}
}

// shutdown terminates the worker threads and joins them.
func (t *team) shutdown(master cluster.Env) {
	t.desc = &regionRun{stop: true}
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
		word:    rt.cl.NewCell(fmt.Sprintf("bar:%s:%s", name, key), rt.cl.Origin()),
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
