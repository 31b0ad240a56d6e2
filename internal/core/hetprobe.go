package core

import (
	"math"
	"sort"
	"strconv"
	"time"

	"hetmp/internal/cluster"
	"hetmp/internal/telemetry"
)

// probePercent is the share of a region's iterations spent on the
// probing period: the paper's 10 %.
const probePercent = 10

// probeDispatch hands each worker a constant-size, deterministically
// assigned chunk of probe iterations (Section 3.1: constant per-thread
// work for comparable timings; deterministic assignment so data
// settles across invocations). With Options.RandomProbe the assignment
// rotates per invocation — the settling ablation.
type probeDispatch struct {
	chunk  int
	rotate int
	total  int
}

var _ dispatcher = (*probeDispatch)(nil)

func (d *probeDispatch) runWorker(e cluster.Env, w workerID, t *team, r *regionRun, ws *workerState) {
	slot := w.flat
	if d.rotate != 0 {
		slot = (w.flat + d.rotate) % d.total
	}
	lo := slot * d.chunk
	r.runSpan(e, lo, lo+d.chunk, ws)
}

// runHetProbe implements the HetProbe scheduler for one region
// invocation: probe (unless the cached decision is mature), decide,
// then distribute the remaining iterations.
func (a *App) runHetProbe(regionID string, n int, spec HetProbeSpec, body Body, red *reduceRun) {
	rt := a.rt

	// With a designated probing region, every other region adopts its
	// decision instead of probing itself.
	if rt.opts.ProbeRegionID != "" && regionID != rt.opts.ProbeRegionID {
		if main, ok := rt.cache.get(rt.opts.ProbeRegionID); ok && main.invocations > 0 {
			a.executeDecision(main.decision, spec, 0, n, body, red)
			return
		}
		// The probing region has not run yet: distribute across all
		// nodes with plain static (the runtime's pre-decision default).
		t := rt.teamFor(a.env, rt.allNodes())
		desc := &regionRun{n: n, body: body, reduce: red,
			sched: newStaticDispatch(t, 0, n, nil)}
		t.dispatch(a.env, desc)
		return
	}

	ent := rt.cache.entry(regionID)
	allNodes := rt.allNodes()

	// Probe-free fast path: on a region's first invocation, a
	// configured decision store may seed the entry with the decision
	// stored for this region and iteration count, making it mature
	// without probing.
	rt.tryPredict(a.env, regionID, ent, n)

	// Mature cache entry: reuse the decision for the whole region, no
	// probing (Section 3.1's probe cache).
	if ent.invocations >= rt.opts.ProbeMaxInvocations {
		rt.logf("hetprobe %s: cached decision %s", regionID, ent.decision)
		a.executeDecision(ent.decision, spec, 0, n, body, red)
		return
	}

	fullTeam := rt.teamFor(a.env, allNodes)
	chunk := n * probePercent / fullTeam.total / 100
	if chunk < 1 && n >= 2*fullTeam.total {
		// Small regions still get probed with one iteration per thread.
		chunk = 1
	}
	if chunk < 1 {
		// Too few iterations to probe meaningfully: run the whole
		// region static across every node and record nothing.
		rt.logf("hetprobe %s: region too small to probe (n=%d, threads=%d)", regionID, n, fullTeam.total)
		desc := &regionRun{n: n, body: body, reduce: red,
			sched: newStaticDispatch(fullTeam, 0, n, nil)}
		fullTeam.dispatch(a.env, desc)
		return
	}
	probeIters := chunk * fullTeam.total

	rotate := 0
	if rt.opts.RandomProbe {
		rotate = probeRotation(ent.invocations, fullTeam.total)
	}
	probeDesc := &regionRun{
		n:       probeIters,
		body:    body,
		reduce:  red,
		measure: true,
		results: make([]measurement, fullTeam.total),
		sched:   &probeDispatch{chunk: chunk, rotate: rotate, total: fullTeam.total},
	}
	var probeStart time.Duration
	if rt.tracer != nil {
		probeStart = a.env.Now()
	}
	fullTeam.dispatch(a.env, probeDesc)
	var probePartial any
	if red != nil {
		probePartial = red.out
	}

	// Aggregate the probe measurements.
	stats, rejected := summarizeMeasurements(probeDesc.results)
	rt.rejectCtr.Add(int64(rejected))
	ent.update(stats, ewmaAlpha)
	// Anchor for the post-region miss-metric refinement: the entry's
	// metric from before this probe's update. Captured here because a
	// ReDecide re-probe window can call update again mid-region,
	// shifting prevMissPerK to a value that already contains this
	// probe window's misses.
	missAnchor := ent.prevMissPerK
	ent.cumTime += stats.windowTime
	if ent.invocations == 0 {
		ent.featN = n
	}
	ent.featInstr += stats.instr
	ent.featAccesses += stats.accesses
	ent.decision = rt.decide(ent, spec)
	ent.invocations++
	rt.probes++
	rt.logf("hetprobe %s: invocation %d: %s", regionID, ent.invocations, ent.decision)
	if tr := rt.tracer; tr != nil {
		tr.Emit(workerTrack(a.env.Node(), -1), "probe "+regionID, probeStart, a.env.Now(),
			telemetry.Arg{Key: "iterations", Val: strconv.Itoa(probeIters)})
		rt.opts.Telemetry.Metrics().Counter("hetmp_hetprobe_probes_total").Inc()
		rt.recordDecision(a.env, regionID, ent.decision)
	}

	// Distribute the remaining iterations per the decision, measuring
	// them too: the cache-miss metric must reflect the whole region,
	// not just the probe window (whose small per-thread footprint stays
	// artificially cache-warm). The paper gets the same effect from
	// region-wide offline counter collection.
	if n > probeIters {
		var rem []measurement
		if rt.opts.ReDecide {
			rem = a.monitorRemainder(regionID, ent, spec, probeIters, n, body, red)
		} else {
			rem = a.executeDecisionMeasured(ent.decision, spec, probeIters, n, body, red)
		}
		if red != nil {
			red.out = red.combine(probePartial, red.out)
		}
		var instr, misses int64
		var remTime time.Duration
		for _, m := range rem {
			instr += m.delta.Instructions
			misses += m.delta.LLCMisses
			remTime += m.elapsed
		}
		if instr > 0 {
			combined := float64(misses+stats.misses) / float64(instr+stats.instr) * 1000
			ent.replaceMissPerK(combined, ewmaAlpha, missAnchor)
			// Re-derive the decision from the refined metric so the
			// next invocation (and the cached decision) see it.
			ent.decision = rt.decide(ent, spec)
		}
		ent.cumTime += remTime
	} else if red != nil {
		red.out = probePartial
	}
}

// recordDecision publishes one HetProbe decision: an outcome-labeled
// counter, per-region measurement gauges, and an instant event on the
// master's trace track. Only called when telemetry is enabled.
func (rt *Runtime) recordDecision(e cluster.Env, regionID string, d Decision) {
	outcome := "single-node"
	if d.CrossNode {
		outcome = "cross-node"
	}
	m := rt.opts.Telemetry.Metrics()
	m.Counter("hetmp_hetprobe_decisions_total", telemetry.L("outcome", outcome)).Inc()
	period := math.Inf(1)
	if d.FaultPeriod != infinitePeriod {
		period = d.FaultPeriod.Seconds()
	}
	m.Gauge("hetmp_hetprobe_fault_period_seconds", telemetry.L("region", regionID)).Set(period)
	m.Gauge("hetmp_hetprobe_misses_per_kinst", telemetry.L("region", regionID)).Set(d.MissesPerKinst)
	rt.tracer.Instant(workerTrack(e.Node(), -1), "decision "+regionID, e.Now(),
		telemetry.Arg{Key: "outcome", Val: outcome},
		telemetry.Arg{Key: "detail", Val: d.String()})
}

// probeRotation returns the RandomProbe slot rotation for one probe
// invocation: rotate by about half the team so a large share of probe
// chunks change nodes every invocation — maximal churn, the behaviour
// deterministic assignment avoids.
func probeRotation(invocations, total int) int {
	if total <= 1 {
		return 0
	}
	return (invocations + 1) * rotationStep(total) % total
}

// rotationStep is the per-invocation rotation stride: the smallest
// step ≥ total/2+1 that is coprime with the team size. Coprimality
// matters — a step sharing a factor with total cycles slots through
// only a subgroup of positions, and for total == 2 the naive
// total/2+1 == 2 stride is ≡ 0 mod 2, leaving the assignment fixed
// and silently disabling the settling ablation.
func rotationStep(total int) int {
	step := total/2 + 1
	for gcd(step, total) != 1 {
		step++
	}
	return step
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// probeStats are the aggregated measurements of one probing period.
type probeStats struct {
	perIter     map[int]time.Duration // node → mean per-iteration time
	faultPeriod time.Duration
	missPerK    float64
	instr       int64
	misses      int64
	accesses    int64
	windowTime  time.Duration
}

// summarizeMeasurements turns per-worker measurements into per-node
// statistics and the global fault period / cache-miss metrics. It
// also sanitizes: corrupted measurements (negative fields, or
// iterations that took no time) are dropped and counted instead of
// poisoning the per-iteration model; idle workers are skipped.
func summarizeMeasurements(results []measurement) (probeStats, int) {
	type agg struct {
		elapsed time.Duration
		iters   int
	}
	rejected := 0
	perNode := make(map[int]agg)
	var totalElapsed time.Duration
	var totalFaults, totalInstr, totalMisses, totalAccesses int64
	for _, m := range results {
		switch {
		case m.iters < 0 || m.elapsed < 0 || (m.iters > 0 && m.elapsed == 0):
			rejected++
			continue
		case m.iters == 0:
			continue
		}
		a := perNode[m.node]
		// Core speed ratios compare the nodes' compute + local
		// memory behaviour; DSM fault stalls are excluded (at
		// scale-model sizes the probe chunks are too small to
		// amortize them, and faults vanish once data settles —
		// including them creates an unstable redistribution
		// feedback loop). The fault *period* below still uses the
		// full elapsed time, as the paper specifies.
		a.elapsed += m.elapsed - m.delta.FaultStall
		a.iters += m.iters
		perNode[m.node] = a
		totalElapsed += m.elapsed
		totalFaults += m.delta.RemoteFaults
		totalInstr += m.delta.Instructions
		totalMisses += m.delta.LLCMisses
		totalAccesses += m.delta.LLCAccesses
	}
	stats := probeStats{perIter: make(map[int]time.Duration, len(perNode))}
	for node, a := range perNode {
		if a.iters > 0 {
			stats.perIter[node] = a.elapsed / time.Duration(a.iters)
		}
	}
	if totalFaults > 0 {
		stats.faultPeriod = totalElapsed / time.Duration(totalFaults)
	} else {
		stats.faultPeriod = infinitePeriod
	}
	if totalInstr > 0 {
		stats.missPerK = float64(totalMisses) / float64(totalInstr) * 1000
	}
	stats.instr = totalInstr
	stats.misses = totalMisses
	stats.accesses = totalAccesses
	stats.windowTime = totalElapsed
	return stats, rejected
}

// decide answers the scheduler's three questions (Section 3.2): use
// multiple nodes? with what split? or which single node? Nodes the
// ReDecide monitor has condemned for this region stay excluded.
func (rt *Runtime) decide(ent *probeEntry, spec HetProbeSpec) Decision {
	return rt.decideWith(ent, spec, ent.suspects)
}

// decideWith is decide with a suspect set: excluded nodes (stragglers
// or nodes behind a degraded link, identified by the ReDecide
// monitor) are never enabled for cross-node execution, and when the
// exclusion empties the remote set the fallback is forced to the
// origin node — Q3's cache heuristics could otherwise pick one of the
// very nodes the monitor just condemned.
func (rt *Runtime) decideWith(ent *probeEntry, spec HetProbeSpec, exclude map[int]bool) Decision {
	d := Decision{
		FaultPeriod:    ent.faultPeriod,
		MissesPerKinst: ent.missPerK,
		PerIterTime:    copyDur(ent.perIter),
		CumTime:        ent.cumTime,
	}
	specs := rt.cl.NodeSpecs()
	if len(specs) == 1 {
		d.CrossNode = false
		d.Node = 0
		return d
	}

	// Q1: is there enough computation per byte moved to amortize DSM
	// costs? The origin is always enabled; every other node the monitor
	// has not excluded is enabled when the fault period clears the
	// threshold.
	origin := rt.cl.Origin()
	enabled := []int{origin}
	for node := range specs {
		if node == origin || exclude[node] {
			continue
		}
		if ent.faultPeriod >= rt.opts.FaultPeriodThreshold {
			enabled = append(enabled, node)
		}
	}
	sort.Ints(enabled)
	if len(enabled) > 1 {
		d.CrossNode = true
		d.Nodes = enabled
		// Q2: split work by measured per-core speed. A thread's weight
		// is proportional to 1/perIterTime; normalize so the slowest
		// enabled node has weight 1, giving the paper's "X : 1" CSR
		// form.
		d.CSR = make(map[int]float64, len(enabled))
		for _, node := range enabled {
			if t := ent.perIter[node]; t > 0 {
				d.CSR[node] = 1 / float64(t)
			}
		}
		var slowest float64
		for _, w := range d.CSR {
			if slowest == 0 || w < slowest {
				slowest = w
			}
		}
		if slowest > 0 {
			for node := range d.CSR {
				d.CSR[node] /= slowest
			}
		}
		return d
	}

	// Q3: single node — pick by cache behaviour. High miss rates favor
	// the node with the strongest per-core cache hierarchy; low miss
	// rates favor raw parallelism (Section 3.2's Xeon vs ThunderX
	// dichotomy).
	d.CrossNode = false
	if len(exclude) > 0 {
		// Mid-region fallback under suspicion: the origin holds the
		// data and is never excluded.
		d.Node = origin
		return d
	}
	if spec.ForceNode >= 0 {
		d.Node = spec.ForceNode
		return d
	}
	if ent.missPerK > rt.opts.MissThreshold {
		d.Node = bigCacheNode(rt)
	} else {
		d.Node = manyCoreNode(rt)
	}
	return d
}

// bigCacheNode returns the node with the largest per-core LLC share
// (ties: deeper hierarchy, then lower index).
func bigCacheNode(rt *Runtime) int {
	specs := rt.cl.NodeSpecs()
	best, bestShare := 0, 0.0
	for i, s := range specs {
		share := float64(s.Cache.LLCBytes) / float64(s.Cores) * float64(s.Cache.Levels)
		if share > bestShare {
			best, bestShare = i, share
		}
	}
	return best
}

// manyCoreNode returns the node with the most cores (ties: lower
// index).
func manyCoreNode(rt *Runtime) int {
	specs := rt.cl.NodeSpecs()
	best, bestCores := 0, 0
	for i, s := range specs {
		if s.Cores > bestCores {
			best, bestCores = i, s.Cores
		}
	}
	return best
}

// executeDecision dispatches iterations [base, n) per a HetProbe
// decision: static with measured CSR across nodes, or static on the
// chosen single node (the paper's default single-node fallback
// scheduler). Threads on unused nodes belong to a different team and
// stay parked, mirroring libHetMP joining them.
func (a *App) executeDecision(d Decision, spec HetProbeSpec, base, n int, body Body, red *reduceRun) {
	a.execDecision(d, spec, base, n, body, red, false)
}

// executeDecisionMeasured is executeDecision with per-worker counter
// collection; it returns the measurements.
func (a *App) executeDecisionMeasured(d Decision, spec HetProbeSpec, base, n int, body Body, red *reduceRun) []measurement {
	return a.execDecision(d, spec, base, n, body, red, true)
}

func (a *App) execDecision(d Decision, spec HetProbeSpec, base, n int, body Body, red *reduceRun, measure bool) []measurement {
	rt := a.rt
	var t *team
	var csr map[int]float64
	if d.CrossNode {
		nodes := d.Nodes
		if len(nodes) == 0 {
			nodes = rt.allNodes()
		}
		t = rt.teamFor(a.env, nodes)
		csr = d.CSR
	} else {
		node := d.Node
		if spec.ForceNode >= 0 {
			node = spec.ForceNode
		}
		t = rt.teamFor(a.env, []int{node})
	}
	var subRed *reduceRun
	if red != nil {
		subRed = &reduceRun{init: red.init, combine: red.combine, body: red.body}
	}
	desc := &regionRun{n: n, body: body, reduce: subRed,
		sched: newStaticDispatch(t, base, n-base, csr)}
	if measure {
		desc.measure = true
		desc.results = make([]measurement, t.total)
	}
	t.dispatch(a.env, desc)
	if red != nil {
		red.out = subRed.out
	}
	return desc.results
}

func copyDur(m map[int]time.Duration) map[int]time.Duration {
	out := make(map[int]time.Duration, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
