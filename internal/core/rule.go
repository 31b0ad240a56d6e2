package core

import (
	"maps"
	"sort"
	"time"

	"hetmp/internal/machine"
)

// This file is HetProbe's per-region rule (Sections 3.1–3.2; DESIGN.md
// §15a) as one pure step: fold a reading into a region's state, then
// answer the scheduler's three questions. It holds no cluster, clock,
// options or telemetry and writes none of its arguments, so a test
// drives it with literal readings. runHetProbe and runRemainder are its
// shell: they dispatch and measure the work, feed the readings in, run
// what comes out, and count, log and trace it.

// MissThreshold is the LLC misses per kilo-instruction above which
// single-node execution prefers the node with the strongest cache
// hierarchy (Section 3.2).
const MissThreshold = 3.0

// platform is what the rule knows of the cluster, fixed in New.
type platform struct {
	specs     []machine.NodeSpec
	origin    int
	threshold time.Duration // Q1's break-even fault period
}

// regionState is what the rule knows of one region. A step never
// writes a map of the state it is given; it builds new ones, so a
// decision may share perIter.
type regionState struct {
	invocations int // probing periods folded
	perIter     map[int]time.Duration
	faultPeriod time.Duration
	missPerK    float64
	// prevMissPerK is missPerK before this invocation's probe fold: the
	// region reading is blended into it, not into the probe window's.
	prevMissPerK float64
	// suspects are nodes the monitor condemned (stragglers, degraded
	// links). They stay out of every later decision of this region,
	// the region reading's and later invocations' included.
	suspects map[int]bool
	decision Decision
}

// readingKind says what a reading measured.
type readingKind int

const (
	// probeReading is a probing period, folded into the EWMA (Section
	// 3.1); it decides what the remainder runs under.
	probeReading readingKind = iota
	// windowReading is one monitor window of a cross-node remainder:
	// its watermarks (observed) condemn the nodes that fell behind.
	windowReading
	// regionReading is the instructions and LLC misses of a whole
	// probing invocation, probe window and remainder. Its misses/kinst
	// replaces the probe window's, whose small per-thread footprint
	// stays artificially cache-warm (the paper collects counters
	// region-wide, offline).
	regionReading
)

// step folds reading r of kind k into state s. It returns the next
// state, the decision the rest of the invocation runs under (for a
// region reading, the one the remainder ran under) and the decision
// recorded for the region, which is next.decision.
func (p *platform) step(s regionState, k readingKind, r probeStats) (next regionState, run, record Decision) {
	// A float64 value, not the untyped constant: 1-alpha rounds at run
	// time, in the probe fold and the region reading alike.
	alpha := float64(ewmaAlpha)
	next, run = s, s.decision
	switch k {
	case probeReading:
		next.prevMissPerK = s.missPerK
		next.perIter = make(map[int]time.Duration, len(r.perIter))
		if s.invocations == 0 {
			maps.Copy(next.perIter, r.perIter)
			next.faultPeriod, next.missPerK = r.faultPeriod, r.missPerK
		} else {
			maps.Copy(next.perIter, s.perIter)
			for node, v := range r.perIter {
				if old, ok := s.perIter[node]; ok {
					v = ewmaDur(v, old, alpha)
				}
				next.perIter[node] = v
			}
			next.faultPeriod = ewmaDur(r.faultPeriod, s.faultPeriod, alpha)
			next.missPerK = alpha*r.missPerK + (1-alpha)*s.missPerK
		}
		next.invocations++
	case windowReading:
		breached := breachedNodes(r.observed, s.perIter, p.origin)
		if len(breached) == 0 {
			return s, s.decision, s.decision
		}
		maps.Copy(breached, s.suspects)
		next.suspects = breached
	case regionReading:
		next.missPerK = float64(r.misses) / float64(r.instr) * 1000
		if s.invocations > 1 {
			next.missPerK = alpha*next.missPerK + (1-alpha)*s.prevMissPerK
		}
	}
	next.decision = p.decide(next)
	if k != regionReading {
		run = next.decision
	}
	return next, run, next.decision
}

// decide answers the scheduler's three questions (Section 3.2): use
// multiple nodes? with what split? or which single node? Suspects are
// never enabled for cross-node execution, and when their exclusion
// empties the remote set the fallback is forced to the origin node —
// Q3's cache heuristics could otherwise pick one of the very nodes the
// monitor just condemned.
func (p *platform) decide(s regionState) Decision {
	d := Decision{
		FaultPeriod:    s.faultPeriod,
		MissesPerKinst: s.missPerK,
		PerIterTime:    s.perIter,
	}
	if len(p.specs) == 1 {
		return d
	}

	// Q1: is there enough computation per byte moved to amortize DSM
	// costs? The origin is always enabled; every other node the monitor
	// has not excluded is enabled when the fault period clears the
	// threshold.
	enabled := []int{p.origin}
	for node := range p.specs {
		if node == p.origin || s.suspects[node] {
			continue
		}
		if s.faultPeriod >= p.threshold {
			enabled = append(enabled, node)
		}
	}
	sort.Ints(enabled)
	if len(enabled) > 1 {
		d.CrossNode = true
		d.Nodes = enabled
		// Q2: split work by measured per-core speed over the enabled
		// nodes, the slowest at weight 1.
		times := make(map[int]time.Duration, len(enabled))
		for _, node := range enabled {
			times[node] = s.perIter[node]
		}
		d.CSR = csrFromTimes(times)
		return d
	}

	// Q3: single node — pick by cache behaviour. High miss rates favor
	// the node with the strongest per-core cache hierarchy; low miss
	// rates favor raw parallelism (Section 3.2's Xeon vs ThunderX
	// dichotomy).
	switch {
	case len(s.suspects) > 0:
		// Mid-region fallback under suspicion: the origin holds the
		// data and is never excluded.
		d.Node = p.origin
	case s.missPerK > MissThreshold:
		d.Node = p.bigCacheNode()
	default:
		d.Node = p.manyCoreNode()
	}
	return d
}

// bigCacheNode returns the node with the largest per-core LLC share
// (ties: deeper hierarchy, then lower index).
func (p *platform) bigCacheNode() int {
	best, bestShare := 0, 0.0
	for i, s := range p.specs {
		share := float64(s.Cache.LLCBytes) / float64(s.Cores) * float64(s.Cache.Levels)
		if share > bestShare {
			best, bestShare = i, share
		}
	}
	return best
}

// manyCoreNode returns the node with the most cores (ties: lower
// index).
func (p *platform) manyCoreNode() int {
	best, bestCores := 0, 0
	for i, s := range p.specs {
		if s.Cores > bestCores {
			best, bestCores = i, s.Cores
		}
	}
	return best
}
