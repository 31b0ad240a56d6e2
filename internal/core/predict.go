package core

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"hetmp/internal/cluster"
	"hetmp/internal/decstore"
)

// This file implements the probe-free fast path: HetProbe decisions
// seeded from a persistent store instead of paying the probing period.
// The probing period is pure overhead on every fresh region of every
// run; a decision measured by an earlier run is adopted on identity —
// same cluster configuration (the store is fingerprint-bound, see
// internal/decstore), same region key, same iteration count — and
// anything else is probed. A seeded entry is a mature probe-cache
// entry (Section 3.1): its decision is reused, unmonitored, exactly
// like one that matured in-process.

// DecisionStore is the persistence interface the runtime consults for
// stored decisions and writes learned ones back through. It is
// satisfied by *decstore.Store; keeping it an interface lets tests
// substitute in-memory stores and keeps open/save policy (paths,
// fingerprints, when to persist) out of the runtime.
type DecisionStore interface {
	// Lookup returns the stored entry for a region key.
	Lookup(key string) (decstore.Entry, bool)
	// Put records the entry for a region key. Persisting the store is
	// the caller's responsibility, after Runtime.Run returns.
	Put(key string, e decstore.Entry)
}

// tryPredict consults the decision store on a region's first
// invocation and, when it holds an entry for the region measured at
// the same iteration count, seeds the probe entry with its decision —
// mature, so no probing happens. Reports whether the entry was seeded.
func (rt *Runtime) tryPredict(e cluster.Env, regionID string, ent *probeEntry, n int) bool {
	store := rt.opts.DecisionStore
	if store == nil || ent.invocations > 0 || ent.storeChecked {
		return false
	}
	ent.storeChecked = true
	se, ok := store.Lookup(regionID)
	if !ok {
		return false
	}
	if se.Features.Iterations != n {
		rt.logf("hetprobe %s: stored decision was measured at %d iterations, this run presents %d, probing",
			regionID, se.Features.Iterations, n)
		return false
	}
	if why := rt.unrunnable(se); why != "" {
		rt.logf("hetprobe %s: stored decision cannot run on this cluster (%s), probing", regionID, why)
		return false
	}
	seedEntry(ent, se, rt.opts.ProbeMaxInvocations)
	rt.predictions++
	rt.predictCtr.Inc()
	rt.logf("hetprobe %s: adopted stored decision: %s", regionID, ent.decision)
	if rt.tracer != nil {
		rt.recordDecision(e, regionID, ent.decision)
	}
	return true
}

// maxStoredCSR bounds a stored CSR weight. A probe normalizes the
// slowest node's weight to 1, and the modelled nodes differ per thread
// by single-digit factors, so a weight a million times the slowest is
// no measurement; far enough past it, the static partition overflows.
const maxStoredCSR = 1e6

// unrunnable reports why a stored entry's decision cannot run on this
// cluster, or "" when it can: every node it names must exist and be
// named once, and every CSR weight must be one a probe could measure.
// The fingerprint binds a store to a cluster configuration, but a file
// edited by hand or written by a broken build carries it just the same.
func (rt *Runtime) unrunnable(se decstore.Entry) string {
	nodes := len(rt.specs)
	if se.Node < 0 || se.Node >= nodes {
		return fmt.Sprintf("node %d of a %d-node cluster", se.Node, nodes)
	}
	seen := make(map[int]bool, len(se.Nodes))
	for _, n := range se.Nodes {
		if n < 0 || n >= nodes || seen[n] {
			return fmt.Sprintf("node set %v on a %d-node cluster", se.Nodes, nodes)
		}
		seen[n] = true
	}
	for _, w := range se.CSR {
		if !(w > 0 && w <= maxStoredCSR) {
			return fmt.Sprintf("CSR %s", csrString(se.CSR))
		}
	}
	return ""
}

// seedEntry loads a stored entry into the live probe cache as a
// mature entry carrying the stored decision verbatim. A mature entry
// is only ever read for its decision, so the probe statistics behind
// it stay in the store.
func seedEntry(ent *probeEntry, se decstore.Entry, maxInvocations int) {
	ent.decision = decisionFromEntry(se)
	ent.invocations = maxInvocations
	ent.seeded = true
}

// decisionFromEntry reconstructs the Decision a stored entry carries.
func decisionFromEntry(se decstore.Entry) Decision {
	d := Decision{
		CrossNode:      se.CrossNode,
		Node:           se.Node,
		FaultPeriod:    time.Duration(se.FaultPeriodNs),
		MissesPerKinst: se.MissesPerKinst,
	}
	if len(se.Nodes) > 0 {
		d.Nodes = append([]int(nil), se.Nodes...)
	}
	if len(se.CSR) > 0 {
		d.CSR = make(map[int]float64, len(se.CSR))
		for node, w := range se.CSR {
			d.CSR[node] = w
		}
	}
	if len(se.PerIterNs) > 0 {
		d.PerIterTime = make(map[int]time.Duration, len(se.PerIterNs))
		for node, ns := range se.PerIterNs {
			d.PerIterTime[node] = time.Duration(ns)
		}
	}
	return d
}

// cacheLineBytes converts between LLC access counts and the bytes
// they touch (all modelled caches use 64-byte lines, machine.CacheSpec
// LineBytes).
const cacheLineBytes = 64

// entryToStore renders a live probe entry as a storable one.
func entryToStore(ent *probeEntry) decstore.Entry {
	d := ent.decision
	se := decstore.Entry{
		CrossNode:      d.CrossNode,
		Node:           d.Node,
		FaultPeriodNs:  int64(ent.faultPeriod),
		MissesPerKinst: ent.missPerK,
		Invocations:    ent.invocations,
	}
	if len(d.Nodes) > 0 {
		se.Nodes = append([]int(nil), d.Nodes...)
	}
	if len(d.CSR) > 0 {
		se.CSR = make(map[int]float64, len(d.CSR))
		for node, w := range d.CSR {
			se.CSR[node] = w
		}
	}
	if len(ent.perIter) > 0 {
		se.PerIterNs = make(map[int]int64, len(ent.perIter))
		for node, t := range ent.perIter {
			se.PerIterNs[node] = int64(t)
		}
	}
	bytes := ent.featAccesses * cacheLineBytes
	se.Features = decstore.Features{
		Iterations:     ent.featN,
		BytesTouched:   bytes,
		MissesPerKinst: ent.missPerK,
	}
	if bytes > 0 {
		se.Features.OpsPerByte = float64(ent.featInstr) / float64(bytes)
	}
	return se
}

// exportDecisions writes every region this run probed back through
// the decision store; seeded entries, which it did not measure, are
// skipped. Called at the end of Runtime.Run; persisting afterwards is
// the caller's job. Keys are walked in sorted order so the store's
// Put sequence (and any log it produces) is deterministic.
func (rt *Runtime) exportDecisions() {
	store := rt.opts.DecisionStore
	if store == nil {
		return
	}
	for _, id := range slices.Sorted(maps.Keys(rt.cache)) {
		ent := rt.cache[id]
		if ent.invocations == 0 || ent.seeded {
			continue
		}
		store.Put(id, entryToStore(ent))
	}
}
