package core

import (
	"math"
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
// then distribute the remaining iterations. A reduction's result lands
// in its accResult: the probe period folds there, the remainder into
// accRemainder, which is combined into it last.
func (a *App) runHetProbe(regionID string, n int, body Body, red reducer) {
	rt := a.rt

	// With a designated probing region, every other region adopts its
	// decision instead of probing itself; until the probing region has
	// run, they run static across every node (the runtime's
	// pre-decision default).
	if rt.opts.ProbeRegionID != "" && regionID != rt.opts.ProbeRegionID {
		d := Decision{CrossNode: true}
		if main, ok := rt.cache[rt.opts.ProbeRegionID]; ok && main.invocations > 0 {
			d = main.decision
		}
		a.execDecision(d, 0, n, body, reduceTo{red, accResult}, false)
		return
	}

	ent, ok := rt.cache[regionID]
	if !ok {
		ent = &probeEntry{}
		rt.cache[regionID] = ent
	}

	// Probe-free fast path: on a region's first invocation, a
	// configured decision store may seed the entry with the decision
	// stored for this region and iteration count, making it mature
	// without probing.
	rt.tryPredict(a.env, regionID, ent, n)

	// Mature cache entry: reuse the decision for the whole region, no
	// probing (Section 3.1's probe cache).
	if ent.invocations >= rt.opts.ProbeMaxInvocations {
		if lf := rt.opts.Logf; lf != nil {
			lf("hetprobe %s: cached decision %s", regionID, ent.decision)
		}
		a.execDecision(ent.decision, 0, n, body, reduceTo{red, accResult}, false)
		return
	}

	fullTeam := rt.teamFor(a.env, rt.allSet)
	chunk := n * probePercent / fullTeam.total / 100
	if chunk < 1 && n >= 2*fullTeam.total {
		// Small regions still get probed with one iteration per thread.
		chunk = 1
	}
	if chunk < 1 {
		// Too few iterations to probe meaningfully: run the whole
		// region static across every node and record nothing.
		if lf := rt.opts.Logf; lf != nil {
			lf("hetprobe %s: region too small to probe (n=%d, threads=%d)", regionID, n, fullTeam.total)
		}
		a.execDecision(Decision{CrossNode: true}, 0, n, body, reduceTo{red, accResult}, false)
		return
	}
	probeIters := chunk * fullTeam.total

	rotate := 0
	if rt.opts.RandomProbe {
		rotate = probeRotation(ent.invocations, fullTeam.total)
	}
	var probeStart time.Duration
	if rt.tracer != nil {
		probeStart = a.env.Now()
	}
	fullTeam.probe = probeDispatch{chunk: chunk, rotate: rotate, total: fullTeam.total}
	results := fullTeam.dispatch(a.env, body, reduceTo{red, accResult}, &fullTeam.probe, true)

	// Fold the probe measurements into the region's state; results are
	// the team's, read before its next dispatch.
	stats, rejected := summarizeMeasurements(results)
	rt.rejectCtr.Add(int64(rejected))
	if ent.invocations == 0 {
		ent.featN = n
	}
	var run Decision
	ent.regionState, run, _ = rt.plat.step(ent.regionState, probeReading, stats)
	rt.probes++
	rt.probeCtr.Inc()
	if lf := rt.opts.Logf; lf != nil {
		lf("hetprobe %s: invocation %d: %s", regionID, ent.invocations, run)
	}
	if tr := rt.tracer; tr != nil {
		tr.Emit(workerTrack(a.env.Node(), -1), "probe "+regionID, probeStart, a.env.Now(),
			telemetry.Arg{Key: "iterations", Val: strconv.Itoa(probeIters)})
	}

	// Distribute the remaining iterations per the decision, measuring
	// them too, and hand the step the region-wide counters.
	if n > probeIters {
		instr, misses := a.runRemainder(regionID, ent, run, probeIters, n, body, red)
		if red != nil {
			red.combine(accResult, accRemainder)
		}
		if instr > 0 {
			region := probeStats{instr: instr + stats.instr, misses: misses + stats.misses}
			ent.regionState, _, _ = rt.plat.step(ent.regionState, regionReading, region)
		}
	}
	// Publish what the invocation leaves recorded for the region: the
	// region reading's misses/kinst, not the probe window's.
	if rt.tracer != nil {
		rt.recordDecision(a.env, regionID, ent.decision)
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
	perIter map[int]time.Duration // node → mean per-iteration time, fault stalls excluded
	// observed is perIter with fault stalls included: the ReDecide
	// monitor's watermark, since a degraded link shows up exactly there.
	observed    map[int]time.Duration
	faultPeriod time.Duration
	missPerK    float64
	instr       int64
	misses      int64
}

// summarizeMeasurements turns per-worker measurements into per-node
// statistics and the global fault period / cache-miss metrics. It
// also sanitizes: corrupted measurements (negative fields, or
// iterations that took no time) are dropped and counted instead of
// poisoning the per-iteration model; idle workers are skipped.
func summarizeMeasurements(results []measurement) (probeStats, int) {
	type agg struct {
		elapsed, stall time.Duration
		iters          int
	}
	rejected := 0
	perNode := make(map[int]agg)
	var totalElapsed time.Duration
	var totalFaults, totalInstr, totalMisses int64
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
		a.elapsed += m.elapsed
		a.stall += m.delta.FaultStall
		a.iters += m.iters
		perNode[m.node] = a
		totalElapsed += m.elapsed
		totalFaults += m.delta.RemoteFaults
		totalInstr += m.delta.Instructions
		totalMisses += m.delta.LLCMisses
	}
	stats := probeStats{
		perIter:  make(map[int]time.Duration, len(perNode)),
		observed: make(map[int]time.Duration, len(perNode)),
	}
	for node, a := range perNode {
		stats.perIter[node] = (a.elapsed - a.stall) / time.Duration(a.iters)
		stats.observed[node] = a.elapsed / time.Duration(a.iters)
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
	return stats, rejected
}

// execDecision dispatches iterations [base, n) per a HetProbe
// decision: static with measured CSR across nodes, or static on the
// chosen single node (the paper's default single-node fallback
// scheduler). Threads on unused nodes belong to a different team and
// stay parked, mirroring libHetMP joining them. With measure set it
// collects and returns per-worker counters: the team's slots, valid
// until its next dispatch.
func (a *App) execDecision(d Decision, base, n int, body Body, into reduceTo, measure bool) []measurement {
	rt := a.rt
	set := nodeSet(1) << d.Node
	var csr map[int]float64
	if d.CrossNode {
		set, csr = rt.allSet, d.CSR
		if len(d.Nodes) > 0 {
			set = setOf(d.Nodes)
		}
	}
	t := rt.teamFor(a.env, set)
	return t.dispatch(a.env, body, into, t.partition(base, n-base, csr), measure)
}
