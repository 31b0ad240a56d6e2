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

// monitorWindows is how many windows a monitored remainder runs in,
// chosen by trial over six chaos profiles × ten benchmarks (EXPERIMENTS.md
// "Monitor window trial"): the smallest count whose wins on dsm-loss and
// mixed are at least those of 8 windows. runRemainder is written for
// exactly two: a watched first half, and a second half that becomes the
// re-probe when the first breached.
const monitorWindows = 2

// runRemainder executes iterations [base, n) of a probing invocation
// under the decision its probe just made, measured, and returns the
// measurements. Without ReDecide, or with too few iterations to
// window, that is one dispatch. With ReDecide the remainder runs in
// two windows, and the first one's per-node watermarks are checked
// against the probe. A breach under a cross-node decision makes the
// second window a re-probe — dispatched with equal, unweighted shares
// so per-node timings are comparable — whose measurements are folded
// into the probe entry before the decision is re-derived with the
// breaching nodes excluded. Every iteration is dispatched exactly once
// (the re-probe is a normal window, not a re-execution), so reduction
// accounting is preserved.
func (a *App) runRemainder(regionID string, ent *probeEntry, spec HetProbeSpec, base, n int, body Body, red *reduceRun) []measurement {
	rt := a.rt
	if !rt.opts.ReDecide || n-base < 2*monitorWindows {
		return a.execDecision(ent.decision, spec, base, n, body, red, true)
	}
	origin := rt.cl.Origin()
	mid := base + (n-base)/monitorWindows
	first := a.execDecision(ent.decision, spec, base, mid, body, red, true)
	var acc any
	if red != nil {
		acc = red.out
	}
	stats, rejected := summarizeMeasurements(first)
	rt.rejectCtr.Add(int64(rejected))
	dec := ent.decision
	breached := breachedNodes(stats.observed, ent.perIter, origin)
	reprobe := len(breached) > 0 && dec.CrossNode
	if reprobe {
		dec.CSR = nil // equal shares: comparable per-node timings
		rt.reprobeCtr.Inc()
		rt.logf("hetprobe %s: watermark breach on nodes %v (factor %.1f), re-probing the second half",
			regionID, slices.Sorted(maps.Keys(breached)), redecideFactor)
	}

	second := a.execDecision(dec, spec, mid, n, body, red, true)
	if red != nil {
		red.out = red.combine(acc, red.out)
	}
	stats, rejected = summarizeMeasurements(second)
	rt.rejectCtr.Add(int64(rejected))
	if reprobe {
		// Fold the re-probe window into the entry, then re-decide with
		// the still-breaching nodes excluded. If the exclusion empties
		// the remote set, decideWith falls back to the origin node —
		// the paper's homogeneous fallback, reachable mid-region.
		breached = breachedNodes(stats.observed, ent.perIter, origin)
		ent.update(stats, ewmaAlpha)
		for node := range breached {
			if ent.suspects == nil {
				ent.suspects = map[int]bool{}
			}
			ent.suspects[node] = true
		}
		newDec := rt.decide(ent, spec)
		if slices.Equal(newDec.Nodes, ent.decision.Nodes) {
			rt.logf("hetprobe %s: re-probe kept the decision", regionID)
		} else {
			rt.reDecisions++
			rt.redecideCtr.Inc()
			rt.logf("hetprobe %s: re-decision (suspects %v): %s", regionID, slices.Sorted(maps.Keys(ent.suspects)), newDec)
			if rt.tracer != nil {
				rt.recordDecision(a.env, regionID, newDec)
			}
		}
		ent.decision = newDec
	}
	return append(first, second...)
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
