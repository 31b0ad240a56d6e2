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
// run; the state an earlier run measured of a region is adopted on
// identity — same cluster configuration (the store is fingerprint-bound,
// see internal/decstore), same region key, same iteration count — and
// anything else is probed. A store entry is the rule's state, not its
// answer: adopting it runs platform.decide on it, so the decision is
// this runtime's rule under this runtime's threshold. A seeded entry is
// a mature probe-cache entry (Section 3.1): its decision is reused,
// unmonitored, exactly like one that matured in-process.

// DecisionStore is the persistence interface the runtime consults for
// stored region states and writes learned ones back through. It is
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
// the same iteration count, seeds the probe entry from it — mature, so
// no probing happens. Reports whether the entry was seeded.
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
		if lf := rt.opts.Logf; lf != nil {
			lf("hetprobe %s: stored decision was measured at %d iterations, this run presents %d, probing",
				regionID, se.Features.Iterations, n)
		}
		return false
	}
	seeded := probeEntry{storeChecked: true}
	seedEntry(&seeded, &rt.plat, se, rt.opts.ProbeMaxInvocations)
	if why := unrunnable(len(rt.specs), &seeded); why != "" {
		if lf := rt.opts.Logf; lf != nil {
			lf("hetprobe %s: stored decision cannot run on this cluster (%s), probing", regionID, why)
		}
		return false
	}
	*ent = seeded
	rt.predictions++
	rt.predictCtr.Inc()
	if lf := rt.opts.Logf; lf != nil {
		lf("hetprobe %s: adopted stored decision: %s", regionID, ent.decision)
	}
	if rt.tracer != nil {
		rt.recordDecision(e, regionID, ent.decision)
	}
	return true
}

// maxStoredCSR bounds the CSR weight of a seeded decision. A probe
// normalizes the slowest node's weight to 1, and the modelled nodes
// differ per thread by single-digit factors, so a weight a million
// times the slowest is no measurement; far enough past it, the static
// partition overflows.
const maxStoredCSR = 1e6

// unrunnable reports why a seeded entry cannot run on a cluster of the
// given size, or "" when it can: every node its state names must
// exist, and every node of its cross-node decision needs a CSR weight
// a probe could measure. The fingerprint binds a store to a cluster
// configuration, but a file edited by hand or written by a broken
// build carries it just the same.
func unrunnable(nodes int, ent *probeEntry) string {
	for node := range ent.perIter {
		if node < 0 || node >= nodes {
			return fmt.Sprintf("per-iteration times of nodes %v on a %d-node cluster", slices.Sorted(maps.Keys(ent.perIter)), nodes)
		}
	}
	for node := range ent.suspects {
		if node < 0 || node >= nodes {
			return fmt.Sprintf("suspects %v on a %d-node cluster", slices.Sorted(maps.Keys(ent.suspects)), nodes)
		}
	}
	if d := ent.decision; d.CrossNode {
		for _, node := range d.Nodes {
			if w := d.CSR[node]; !(w > 0 && w <= maxStoredCSR) {
				return fmt.Sprintf("CSR %s over nodes %v", csrString(d.CSR), d.Nodes)
			}
		}
	}
	return ""
}

// seedEntry makes ent the mature entry a stored one gives on platform
// p: the stored state, and the decision the rule derives from it under
// p's threshold. The per-iteration map is never nil, as a probed
// state's is not.
func seedEntry(ent *probeEntry, p *platform, se decstore.Entry, maxInvocations int) {
	s := regionState{
		invocations: maxInvocations,
		perIter:     make(map[int]time.Duration, len(se.PerIterNs)),
		faultPeriod: time.Duration(se.FaultPeriodNs),
		missPerK:    se.MissesPerKinst,
	}
	for node, ns := range se.PerIterNs {
		s.perIter[node] = time.Duration(ns)
	}
	for _, node := range se.Suspects {
		if s.suspects == nil {
			s.suspects = make(map[int]bool, len(se.Suspects))
		}
		s.suspects[node] = true
	}
	s.decision = p.decide(s)
	ent.regionState, ent.seeded = s, true
}

// entryToStore renders a live probe entry as a storable one: the
// rule's state and the iteration count it is keyed on.
func entryToStore(ent *probeEntry) decstore.Entry {
	se := decstore.Entry{
		FaultPeriodNs:  int64(ent.faultPeriod),
		MissesPerKinst: ent.missPerK,
		Suspects:       slices.Sorted(maps.Keys(ent.suspects)),
		Invocations:    ent.invocations,
		Features:       decstore.Features{Iterations: ent.featN},
	}
	if len(ent.perIter) > 0 {
		se.PerIterNs = make(map[int]int64, len(ent.perIter))
		for node, t := range ent.perIter {
			se.PerIterNs[node] = int64(t)
		}
	}
	return se
}

// exportDecisions writes the state of every region this run probed
// back through the decision store; seeded entries, which it did not
// measure, are skipped. Called at the end of Runtime.Run; persisting
// afterwards is the caller's job. Keys are walked in sorted order so
// the store's Put sequence (and any log it produces) is deterministic.
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
