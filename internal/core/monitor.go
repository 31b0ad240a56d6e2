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
// under run, the decision its probe just made, measured, and returns
// the instructions and LLC misses it retired. Without ReDecide, or
// with too few iterations to window, that is one dispatch. With
// ReDecide the remainder runs in monitorWindows equal windows, and
// after each but the last the window's per-node watermarks of a
// cross-node decision go to the rule's step. A breach condemns the breaching nodes, and the step
// re-derives the decision at once from the probe's own measurements
// without them — down to the origin node alone, the paper's
// homogeneous fallback — for the windows that remain. Every iteration
// is dispatched exactly once, so reduction accounting is preserved: the
// first window folds into accRemainder, and each later one into
// accWindow, which is then combined into it.
func (a *App) runRemainder(regionID string, ent *probeEntry, run Decision, base, n int, body Body, red reducer) (instr, misses int64) {
	rt := a.rt
	windows := 1
	if rt.opts.ReDecide && n-base >= 2*monitorWindows {
		windows = monitorWindows
	}
	for w := range windows {
		lo, hi := base+(n-base)*w/windows, base+(n-base)*(w+1)/windows
		into := reduceTo{red, accRemainder}
		if w > 0 {
			into.dst = accWindow
		}
		// ms is the team's: read before the next window's dispatch.
		ms := a.execDecision(run, lo, hi, body, into, true)
		for _, m := range ms {
			instr += m.delta.Instructions
			misses += m.delta.LLCMisses
		}
		if red != nil && w > 0 {
			red.combine(accRemainder, accWindow)
		}
		if w == windows-1 || !run.CrossNode {
			continue
		}
		stats, rejected := summarizeMeasurements(ms)
		rt.rejectCtr.Add(int64(rejected))
		suspects := len(ent.suspects)
		ent.regionState, run, _ = rt.plat.step(ent.regionState, windowReading, stats)
		if len(ent.suspects) == suspects {
			continue
		}
		rt.reDecisions++
		rt.redecideCtr.Inc()
		if lf := rt.opts.Logf; lf != nil {
			lf("hetprobe %s: watermark breach (factor %.1f), re-decision (suspects %v): %s",
				regionID, redecideFactor, slices.Sorted(maps.Keys(ent.suspects)), run)
		}
		if rt.tracer != nil {
			rt.recordDecision(a.env, regionID, run)
		}
	}
	return instr, misses
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
