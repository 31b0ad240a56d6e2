package core

import (
	"sort"
	"time"
)

// This file implements the ReDecide monitor: the chaos-hardening
// layer that keeps watching a region after HetProbe's decision.
//
// A degraded link RAISES the measured fault period (elapsed grows,
// fault count does not), so the Q1 threshold test cannot see it at
// all. The monitor instead tracks per-node progress watermarks: the
// observed per-iteration time of each window, fault stalls included,
// against the decision-time expectation. Stragglers, freezes and
// degraded links all surface there, because all of them make a node's
// iterations slower than the probe promised.

// redecideFactor is the per-iteration blowup over the probe's baseline
// that marks a node suspect: high enough that the fault stalls a
// monitored window includes and the probe excludes cannot trip it on a
// healthy link. maxReDecisions bounds the re-probe → re-decision
// rounds of one region invocation.
const (
	redecideFactor = 3.0
	maxReDecisions = 2
)

// monitorRemainder executes iterations [base, n) under the region's
// cached decision, split into Options.MonitorWindows windows. After
// each window the per-node watermarks are checked; a breach schedules
// a re-probe (the next window dispatched with equal, unweighted
// shares so per-node timings are comparable), whose measurements are
// folded into the probe entry before the decision is re-derived with
// the breaching nodes excluded. Every iteration is dispatched exactly
// once — the re-probe is a normal window, not a re-execution — so
// reduction accounting is preserved.
func (a *App) monitorRemainder(regionID string, ent *probeEntry, spec HetProbeSpec, base, n int, body Body, red *reduceRun) []measurement {
	rt := a.rt
	windows := rt.opts.MonitorWindows
	total := n - base
	if windows < 1 {
		windows = 1
	}
	if total < 2*windows {
		// Too few iterations for windowing to observe anything.
		return a.executeDecisionMeasured(ent.decision, spec, base, n, body, red)
	}
	// Decision-time expectation (compute-only per-iteration time, the
	// same quantity the probe measured).
	baseline := copyDur(ent.perIter)
	origin := rt.cl.Origin()

	all := make([]measurement, 0, windows*4)
	var acc any
	accSet := false
	pendingReprobe := false
	rounds := 0 // re-probe rounds used, bounded by maxReDecisions
	lo := base
	for w := 0; w < windows; w++ {
		hi := base + total*(w+1)/windows
		if hi <= lo {
			continue
		}
		dec := ent.decision
		if pendingReprobe && dec.CrossNode {
			dec.CSR = nil // equal shares: comparable per-node timings
		}
		rem := a.execDecision(dec, spec, lo, hi, body, red, true)
		lo = hi
		all = append(all, rem...)
		if red != nil {
			if !accSet {
				acc, accSet = red.out, true
			} else {
				acc = red.combine(acc, red.out)
			}
		}

		obs, rejected := nodeWatermarks(rem)
		rt.rejectCtr.Add(int64(rejected))
		breached := breachedNodes(obs, baseline, origin)

		if pendingReprobe {
			pendingReprobe = false
			// Fold the re-probe window's (sanitized) statistics into
			// the entry, then re-decide with the still-breaching
			// nodes excluded. If the exclusion empties the remote
			// set, decideWith falls back to the origin node — the
			// paper's homogeneous fallback, now reachable mid-region.
			stats, rej := summarizeMeasurements(rem)
			rt.rejectCtr.Add(int64(rej))
			ent.update(stats, ewmaAlpha)
			if len(breached) > 0 && ent.suspects == nil {
				ent.suspects = map[int]bool{}
			}
			for node := range breached {
				ent.suspects[node] = true
			}
			newDec := rt.decideWith(ent, spec, ent.suspects)
			if !sameShape(newDec, ent.decision) {
				rt.reDecisions++
				rt.redecideCtr.Inc()
				rt.logf("hetprobe %s: window %d/%d re-decision (suspects %v): %s",
					regionID, w+1, windows, sortedNodes(ent.suspects), newDec)
				if rt.tracer != nil {
					rt.recordDecision(a.env, regionID, newDec)
				}
			} else {
				rt.logf("hetprobe %s: window %d/%d re-probe kept the decision", regionID, w+1, windows)
			}
			ent.decision = newDec
		} else if len(breached) > 0 && ent.decision.CrossNode && w+1 < windows && rounds < maxReDecisions {
			// w+1 < windows: a re-probe is the NEXT window's dispatch
			// mode, so scheduling one on the final window would count a
			// re-probe that never runs and leave the breach unhandled.
			rounds++
			pendingReprobe = true
			rt.reprobeCtr.Inc()
			rt.logf("hetprobe %s: window %d/%d watermark breach on nodes %v (factor %.1f), scheduling re-probe",
				regionID, w+1, windows, sortedNodes(breached), redecideFactor)
		}
	}
	if red != nil {
		red.out = acc
	}
	return all
}

// nodeWatermarks aggregates one window's measurements into per-node
// observed per-iteration times — fault stalls INCLUDED, because a
// degraded link manifests exactly there. Corrupted measurements
// (negative fields, or time-free iterations) are rejected before they
// can poison the model; idle workers (zero iterations) are skipped.
func nodeWatermarks(ms []measurement) (map[int]time.Duration, int) {
	type agg struct {
		elapsed time.Duration
		iters   int
	}
	rejected := 0
	per := map[int]agg{}
	for _, m := range ms {
		switch {
		case m.iters < 0 || m.elapsed < 0 || (m.iters > 0 && m.elapsed == 0):
			rejected++
			continue
		case m.iters == 0:
			continue
		}
		a := per[m.node]
		a.elapsed += m.elapsed
		a.iters += m.iters
		per[m.node] = a
	}
	out := make(map[int]time.Duration, len(per))
	for node, a := range per {
		out[node] = a.elapsed / time.Duration(a.iters)
	}
	return out, rejected
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

// sameShape reports whether two decisions dispatch to the same node
// set (CSR weight drift alone is not a re-decision).
func sameShape(a, b Decision) bool {
	if a.CrossNode != b.CrossNode {
		return false
	}
	if !a.CrossNode {
		return a.Node == b.Node
	}
	if len(a.Nodes) != len(b.Nodes) {
		return false
	}
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			return false
		}
	}
	return true
}

func sortedNodes(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}
