package core

import (
	"time"
)

// ewmaAlpha is the weight of the newest probe measurement: high enough
// to shed the first invocations' DSM-replication and cold-cache
// pollution quickly (Section 3.1's motivation for the EWMA).
const ewmaAlpha = 0.7

// probeEntry is HetProbe's probe-cache entry for one work-sharing
// region: the rule's state (rule.go), which each probe folds in with
// an exponentially weighted moving average, plus what the shell keeps
// for the decision store.
type probeEntry struct {
	regionState
	// seeded marks an entry seeded from a persistent decision store
	// rather than measured by this run's probes; exportDecisions skips
	// it, so a warm run never rewrites what it did not measure.
	seeded bool
	// storeChecked records that the decision store has been consulted
	// for this region (hit or miss), so a miss is not re-queried on
	// every invocation.
	storeChecked bool
	// featN is the iteration count of the region's first invocation:
	// the feature a later run presents when it consults the store.
	featN int
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
