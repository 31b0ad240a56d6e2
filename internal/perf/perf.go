// Package perf implements the measurement substrate libHetMP relies on:
// per-thread hardware-style counters (instructions, LLC misses, remote
// page faults) and a per-node last-level cache model that turns the
// kernels' declared access streams into miss counts. The paper collected
// this data offline with perf counters and fed it to the runtime; here
// the same metrics are produced online by the simulator.
package perf

import (
	"sync"
	"time"

	"hetmp/internal/machine"
)

// Counters is a snapshot of one thread's (or an aggregate's) activity.
type Counters struct {
	// Instructions approximates retired instructions (the kernels'
	// declared op counts).
	Instructions int64
	// LLCAccesses is the number of cache lines that reached the LLC.
	LLCAccesses int64
	// LLCMisses is the number of those that missed.
	LLCMisses int64
	// RemoteFaults is the number of DSM page faults incurred.
	RemoteFaults int64
	// FaultStall is the time spent stalled on DSM faults.
	FaultStall time.Duration
	// Busy is time spent computing (excluding stalls).
	Busy time.Duration
}

// Add returns the element-wise sum.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Instructions: c.Instructions + o.Instructions,
		LLCAccesses:  c.LLCAccesses + o.LLCAccesses,
		LLCMisses:    c.LLCMisses + o.LLCMisses,
		RemoteFaults: c.RemoteFaults + o.RemoteFaults,
		FaultStall:   c.FaultStall + o.FaultStall,
		Busy:         c.Busy + o.Busy,
	}
}

// Sub returns the element-wise difference c - o (a delta since a prior
// snapshot).
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		Instructions: c.Instructions - o.Instructions,
		LLCAccesses:  c.LLCAccesses - o.LLCAccesses,
		LLCMisses:    c.LLCMisses - o.LLCMisses,
		RemoteFaults: c.RemoteFaults - o.RemoteFaults,
		FaultStall:   c.FaultStall - o.FaultStall,
		Busy:         c.Busy - o.Busy,
	}
}

// MissesPerKiloInstr returns LLC misses per thousand instructions, the
// paper's node-selection metric (threshold: 3). Returns 0 when no
// instructions were retired.
func (c Counters) MissesPerKiloInstr() float64 {
	if c.Instructions <= 0 {
		return 0
	}
	return float64(c.LLCMisses) / float64(c.Instructions) * 1000
}

// LLC is a shared set-associative last-level cache with LRU replacement
// within each set. One instance exists per node; the simulated threads
// of that node probe it with the line addresses of their declared
// accesses. The engine serializes execution, so no locking is needed.
type LLC struct {
	// tags is one flat backing array of pow × ways entries — set i's
	// tags live at [i*ways, i*ways+sizes[i]) in LRU order (front =
	// MRU). Flat storage keeps the probe loop allocation-free and
	// cache-friendly; the replacement behavior is identical to the
	// earlier per-set slices.
	tags      []int64
	sizes     []int32 // valid entries per set
	ways      int
	lineShift uint
	setMask   int64
	accesses  int64
	misses    int64
}

// llcGeometry is what a recycled cache's arrays must match.
type llcGeometry struct {
	sets, ways int
	lineShift  uint
}

// llcFree holds, per geometry, the caches released and not yet taken
// again, so a simulator that builds a cluster per job reuses the tag
// arrays of the last finished one instead of allocating them again.
// Unlike a sync.Pool, a free list keeps its caches across garbage
// collections; it holds at most as many as were ever live at once.
var llcFree sync.Map // llcGeometry -> *llcFreeList

type llcFreeList struct {
	mu    sync.Mutex
	cache []*LLC
}

func llcList(g llcGeometry) *llcFreeList {
	if l, ok := llcFree.Load(g); ok {
		return l.(*llcFreeList)
	}
	l, _ := llcFree.LoadOrStore(g, new(llcFreeList))
	return l.(*llcFreeList)
}

// take pops the most recently released cache, or returns nil.
func (l *llcFreeList) take() *LLC {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.cache)
	if n == 0 {
		return nil
	}
	c := l.cache[n-1]
	l.cache[n-1] = nil
	l.cache = l.cache[:n-1]
	return c
}

// NewLLC builds the cache described by spec: empty, with zero counters.
func NewLLC(spec machine.CacheSpec) *LLC {
	shift := uint(0)
	for 1<<shift < spec.LineBytes {
		shift++
	}
	nsets := spec.Sets()
	// Round the set count up to a power of two for cheap indexing (the
	// modelled capacity is never below the spec).
	pow := 1
	for pow < nsets {
		pow *= 2
	}
	g := llcGeometry{sets: pow, ways: spec.Ways, lineShift: shift}
	if c := llcList(g).take(); c != nil {
		// Stale tags need no clearing: probes read set i only up to
		// sizes[i].
		clear(c.sizes)
		c.accesses, c.misses = 0, 0
		return c
	}
	return g.alloc()
}

// alloc allocates an empty cache of geometry g.
func (g llcGeometry) alloc() *LLC {
	return &LLC{
		tags:      make([]int64, g.sets*g.ways),
		sizes:     make([]int32, g.sets),
		ways:      g.ways,
		lineShift: g.lineShift,
		setMask:   int64(g.sets - 1),
	}
}

// Release hands the cache's arrays to the next NewLLC of the same
// geometry. The caller must not use c afterwards.
func (c *LLC) Release() {
	l := llcList(c.geometry())
	l.mu.Lock()
	l.cache = append(l.cache, c)
	l.mu.Unlock()
}

func (c *LLC) geometry() llcGeometry {
	return llcGeometry{sets: len(c.sizes), ways: c.ways, lineShift: c.lineShift}
}

// Access probes one byte address and reports whether it missed.
func (c *LLC) Access(addr int64) bool {
	tag := addr >> c.lineShift
	return c.accessLine(tag)
}

// accessLine probes one line tag.
func (c *LLC) accessLine(tag int64) bool {
	c.accesses++
	idx := tag & c.setMask
	base := int(idx) * c.ways
	n := int(c.sizes[idx])
	set := c.tags[base : base+n]
	for i, t := range set {
		if t == tag {
			// Hit: move to MRU position.
			copy(set[1:i+1], set[:i])
			set[0] = tag
			return false
		}
	}
	c.misses++
	if n < c.ways {
		c.sizes[idx] = int32(n + 1)
		set = c.tags[base : base+n+1]
	}
	copy(set[1:], set)
	set[0] = tag
	return true
}

// AccessRange probes every line in [base, base+length) and returns the
// number of lines touched and the number that missed.
func (c *LLC) AccessRange(base, length int64) (lines, misses int64) {
	if length <= 0 {
		return 0, 0
	}
	first := base >> c.lineShift
	last := (base + length - 1) >> c.lineShift
	for tag := first; tag <= last; tag++ {
		lines++
		if c.accessLine(tag) {
			misses++
		}
	}
	return lines, misses
}

// sampleMask selects one in four cache sets for sampled probing.
const sampleMask = 3

// SampledRange probes the lines of [base, base+length) that fall in the
// sampled quarter of the sets and reports counts scaled back up ×4.
// This is classic set sampling: a consistent, address-hashed subset of
// sets behaves like a proportionally smaller cache, so miss rates stay
// representative while gather-heavy kernels only pay for a quarter of
// the probes. (Sampling references instead — every 4th access — would
// shrink the modeled working set and inflate hit rates.)
func (c *LLC) SampledRange(base, length int64) (lines, misses int64) {
	if length <= 0 {
		return 0, 0
	}
	first := base >> c.lineShift
	last := (base + length - 1) >> c.lineShift
	for tag := first; tag <= last; tag++ {
		if tag&sampleMask != 0 {
			continue
		}
		lines += sampleMask + 1
		if c.accessLine(tag) {
			misses += sampleMask + 1
		}
	}
	return lines, misses
}

// Stats returns the lifetime access and miss counts.
func (c *LLC) Stats() (accesses, misses int64) { return c.accesses, c.misses }

// Reset zeroes the counters but keeps cache contents (so measurement
// windows see warm caches, as hardware counters do).
func (c *LLC) Reset() { c.accesses, c.misses = 0, 0 }
