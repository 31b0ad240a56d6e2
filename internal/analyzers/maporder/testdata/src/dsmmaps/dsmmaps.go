// Package dsmmaps exercises maporder's DSM sinks: a body that touches
// a dsm.Region or dsm.Space while ranging over a plain Go map (here a
// page-keyed line buffer and a copyset table) consumes the space's
// seeded jitter stream (and virtual time) in map order — the DSM
// variant of the PR 4 makespan nondeterminism.
package dsmmaps

import (
	"slices"

	"hetmp/internal/dsm"
	"hetmp/internal/simtime"
)

type prefetchLine struct{ ver uint32 }

// Flushing predicted lines in buffer order: the access path consumes
// virtual time through p, so the fault sequence depends on the map
// seed.
func flushPredictedLines(buf map[int64]prefetchLine, reg *dsm.Region, p *simtime.Proc) {
	for pg := range buf { // want "virtual-time value simtime.Proc passed into call"
		reg.AccessPage(p, 0, pg, false)
	}
}

// Even a proc-less Region method reorders the space's seeded jitter
// draws when called per map entry.
func settleReplicaHolders(copysets map[int64]uint16, reg *dsm.Region) {
	for range copysets { // want "method call on jitter-drawing dsm.Region"
		reg.SettleAt(0)
	}
}

func pollSpacePerEntry(copysets map[int64]uint16, sp *dsm.Space) int64 {
	var n int64
	for range copysets { // want "method call on jitter-drawing dsm.Space"
		n += sp.TotalFaults()
	}
	return n
}

// --- allowed ---

// Collecting the predicted pages for sorting is the fix idiom.
func sortedFlushKeys(buf map[int64]prefetchLine) []int64 {
	pages := make([]int64, 0, len(buf))
	for pg := range buf {
		pages = append(pages, pg)
	}
	slices.Sort(pages)
	return pages
}

// Pure bookkeeping over the copyset map never touches the DSM.
func countHolders(copysets map[int64]uint16) int {
	n := 0
	for _, set := range copysets {
		if set != 0 {
			n++
		}
	}
	return n
}

// --- suppressed ---

func suppressedSettle(copysets map[int64]uint16, reg *dsm.Region) {
	//hetmp:allow maporder -- fixture: settle is idempotent per node and draws no jitter
	for range copysets {
		reg.SettleAt(0)
	}
}
