package core

import (
	"maps"
	"slices"
	"time"
)

// This file implements the remainder of a probing invocation and the
// ReDecide monitor: the chaos-hardening layer that keeps watching a
// region after HetProbe's decision.
//
// A degraded link RAISES the measured fault period (elapsed grows,
// fault count does not), so the Q1 threshold test cannot see it at
// all. The monitor instead tracks per-node progress watermarks: the
// observed per-iteration time of a window, fault stalls included,
// against the decision-time expectation. Stragglers, freezes and
// degraded links all surface there, because all of them make a node's
// iterations slower than the probe promised.

// redecideFactor is the per-iteration blowup over the probe's baseline
// that marks a node suspect: high enough that the fault stalls a
// monitored window includes and the probe excludes cannot trip it on a
// healthy link.
const redecideFactor = 3.0

// monitorWindows is how many equal windows a monitored remainder runs
// in, chosen by trial over six chaos profiles on both the hetbench suite
// and the region server (EXPERIMENTS.md "Simpler monitor trial"): the
// smallest count whose wins on dsm-loss and mixed hold those of 8
// windows on both paths.
const monitorWindows = 4

// runRemainder executes iterations [base, n) of a probing invocation
// under the decision its probe just made, measured, and returns the
// measurements. Without ReDecide, or with too few iterations to
// window, that is one dispatch. With ReDecide the remainder runs in
// monitorWindows equal windows, and after each but the last the
// window's per-node watermarks are checked against the probe. A breach
// under a cross-node decision condemns the breaching nodes, and the
// decision is re-derived at once from the probe's own measurements
// without them — down to the origin node alone, the paper's homogeneous
// fallback — for the windows that remain. Every iteration is dispatched
// exactly once, so reduction accounting is preserved.
func (a *App) runRemainder(regionID string, ent *probeEntry, base, n int, body Body, red *reduceRun) []measurement {
	rt := a.rt
	windows := 1
	if rt.opts.ReDecide && n-base >= 2*monitorWindows {
		windows = monitorWindows
	}
	var all []measurement
	var acc any
	for w := range windows {
		lo, hi := base+(n-base)*w/windows, base+(n-base)*(w+1)/windows
		ms := a.execDecision(ent.decision, lo, hi, body, red, true)
		all = append(all, ms...)
		if red != nil {
			if w > 0 {
				red.out = red.combine(acc, red.out)
			}
			acc = red.out
		}
		if w == windows-1 || !ent.decision.CrossNode {
			continue
		}
		stats, rejected := summarizeMeasurements(ms)
		rt.rejectCtr.Add(int64(rejected))
		breached := breachedNodes(stats.observed, ent.perIter, rt.cl.Origin())
		if len(breached) == 0 {
			continue
		}
		if ent.suspects == nil {
			ent.suspects = map[int]bool{}
		}
		maps.Copy(ent.suspects, breached)
		ent.decision = rt.decide(ent)
		rt.reDecisions++
		rt.redecideCtr.Inc()
		rt.logf("hetprobe %s: watermark breach on nodes %v (factor %.1f), re-decision (suspects %v): %s",
			regionID, slices.Sorted(maps.Keys(breached)), redecideFactor, slices.Sorted(maps.Keys(ent.suspects)), ent.decision)
		if rt.tracer != nil {
			rt.recordDecision(a.env, regionID, ent.decision)
		}
	}
	return all
}

// breachedNodes returns the non-origin nodes whose observed
// per-iteration time exceeds redecideFactor × the decision-time
// baseline. Nodes without a baseline (never probed, or rejected
// measurements) cannot breach — there is nothing sane to compare
// against.
func breachedNodes(obs, baseline map[int]time.Duration, origin int) map[int]bool {
	var out map[int]bool
	for node, o := range obs {
		if node == origin {
			continue
		}
		exp, ok := baseline[node]
		if !ok || exp <= 0 {
			continue
		}
		if float64(o) > redecideFactor*float64(exp) {
			if out == nil {
				out = map[int]bool{}
			}
			out[node] = true
		}
	}
	return out
}
