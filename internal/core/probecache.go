package core

import (
	"time"
)

// ewmaAlpha is the weight of the newest probe measurement: high enough
// to shed the first invocations' DSM-replication and cold-cache
// pollution quickly (Section 3.1's motivation for the EWMA).
const ewmaAlpha = 0.7

// probeEntry accumulates probe statistics for one work-sharing region
// across invocations, smoothed with an exponentially weighted moving
// average. The EWMA favors recent measurements because early probes are
// polluted by the DSM initially replicating data across nodes (Section
// 3.1).
type probeEntry struct {
	invocations int
	perIter     map[int]time.Duration
	faultPeriod time.Duration
	missPerK    float64
	decision    Decision
	// seeded marks an entry seeded from a persistent decision store
	// rather than measured by this run's probes; exportDecisions skips
	// it, so a warm run never rewrites what it did not measure.
	seeded bool
	// storeChecked records that the decision store has been consulted
	// for this region (hit or miss), so a miss is not re-queried on
	// every invocation.
	storeChecked bool
	// Region features exported to the decision store: the iteration
	// count of the region's first invocation — what a later run presents
	// when it consults the store, and the one feature adoption tests —
	// plus cumulative probe-window instructions and LLC accesses.
	featN        int
	featInstr    int64
	featAccesses int64
	// suspects are nodes the ReDecide monitor condemned (stragglers,
	// degraded links). They stay excluded from every later decision
	// derived from this entry — including the post-region miss-rate
	// refinement and subsequent invocations — until the entry is reset.
	suspects map[int]bool
}

// update folds a new probing period into the entry.
func (e *probeEntry) update(s probeStats, alpha float64) {
	if e.invocations == 0 {
		e.perIter = copyDur(s.perIter)
		e.faultPeriod = s.faultPeriod
		e.missPerK = s.missPerK
		return
	}
	for node, v := range s.perIter {
		if old, ok := e.perIter[node]; ok {
			e.perIter[node] = ewmaDur(v, old, alpha)
		} else {
			e.perIter[node] = v
		}
	}
	e.faultPeriod = ewmaDur(s.faultPeriod, e.faultPeriod, alpha)
	e.missPerK = alpha*s.missPerK + (1-alpha)*e.missPerK
}

// ewmaDur blends durations, saturating on the "no faults observed"
// sentinel instead of overflowing.
func ewmaDur(newV, oldV time.Duration, alpha float64) time.Duration {
	if newV == infinitePeriod || oldV == infinitePeriod {
		// Either window saw zero faults; the region is effectively
		// communication-free, keep the sentinel.
		return infinitePeriod
	}
	return time.Duration(alpha*float64(newV) + (1-alpha)*float64(oldV))
}
