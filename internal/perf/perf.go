// Package perf implements the measurement substrate libHetMP relies on:
// per-thread hardware-style counters (instructions, LLC misses, remote
// page faults) and a per-node last-level cache model that turns the
// kernels' declared access streams into miss counts. The paper collected
// this data offline with perf counters and fed it to the runtime; here
// the same metrics are produced online by the simulator.
package perf

import (
	"fmt"
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
//
// Each set has ways fixed slots. A line keeps its slot from fill to
// eviction; recency lives in a doubly linked list through the set's
// filled slots, MRU at head and LRU at tail. A per-line hint names the
// slot a line was last filled into, so a probe finds a line without
// scanning its set: a hit relinks one slot, and a miss refills the tail
// slot (or the next empty one). Every probe is O(1), and the
// replacement is exact LRU.
type LLC struct {
	// tags is one flat array of pow × ways slots: set i's are
	// [i*ways, (i+1)*ways), and its first sets[i].n are filled.
	tags []int64
	// next and prev link a set's filled slots from MRU to LRU; they
	// hold slot numbers within the set (Ways ≤ 255, machine.Validate).
	next, prev []uint8
	sets       []llcSet
	// hint[line] is the slot line was last filled into. It is trusted
	// only when that slot of line's set is filled and holds line, so a
	// hint is never cleared: not on eviction, and not when the cache is
	// recycled. Lines are dense global line numbers (the DSM allocates
	// addresses upward from 0), so the table grows to the highest line
	// probed, one byte per line.
	hint      []uint8
	ways      int
	lineShift uint
	setMask   int64
	accesses  int64
	misses    int64
}

// llcSet is one set's filled-slot count and its MRU and LRU slots.
type llcSet struct{ n, head, tail uint8 }

// llcGeometry is what a recycled cache's arrays must match.
type llcGeometry struct {
	sets, ways int
	lineShift  uint
}

// llcFree holds, per geometry, the caches released and not yet taken
// again, so a simulator that builds a cluster per job reuses the arrays
// of the last finished one instead of allocating them again. Unlike a
// sync.Pool, a free list keeps its caches across garbage collections;
// it holds at most as many as were ever live at once.
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
		// Stale tags, links and hints need no clearing: a probe reads
		// only a set's first n slots, and trusts a hint only when it
		// names one of them holding the line.
		clear(c.sets)
		c.accesses, c.misses = 0, 0
		return c
	}
	return g.alloc()
}

// alloc allocates an empty cache of geometry g.
func (g llcGeometry) alloc() *LLC {
	return &LLC{
		tags:      make([]int64, g.sets*g.ways),
		next:      make([]uint8, g.sets*g.ways),
		prev:      make([]uint8, g.sets*g.ways),
		sets:      make([]llcSet, g.sets),
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
	return llcGeometry{sets: len(c.sets), ways: c.ways, lineShift: c.lineShift}
}

// Access probes one byte address and reports whether it missed.
func (c *LLC) Access(addr int64) bool {
	line := addr >> c.lineShift
	_, misses := c.probe(line, line, 1)
	return misses != 0
}

// AccessRange probes every line in [base, base+length) and returns the
// number of lines touched and the number that missed.
func (c *LLC) AccessRange(base, length int64) (lines, misses int64) {
	if length <= 0 {
		return 0, 0
	}
	return c.probe(base>>c.lineShift, (base+length-1)>>c.lineShift, 1)
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
	lines, misses = c.probe(base>>c.lineShift, (base+length-1)>>c.lineShift, sampleMask+1)
	return lines * (sampleMask + 1), misses * (sampleMask + 1)
}

// probe accesses, in ascending order, every line of [first, last] that
// is a multiple of step (a power of two), and returns how many it
// accessed and how many of those missed.
func (c *LLC) probe(first, last, step int64) (lines, misses int64) {
	if first < 0 {
		panic(fmt.Sprintf("perf: negative line address %d", first))
	}
	first += -first & (step - 1)
	for line := first; line <= last; line += step {
		lines++
		idx := line & c.setMask
		set := &c.sets[idx]
		base := int(idx) * c.ways
		if line < int64(len(c.hint)) {
			if s := c.hint[line]; s < set.n && c.tags[base+int(s)] == line {
				c.toHead(set, base, s)
				continue
			}
		} else {
			c.growHint(line)
		}
		misses++
		var s uint8
		switch {
		case set.n == 0:
			set.n, set.head, set.tail = 1, 0, 0
		case int(set.n) < c.ways:
			s = set.n
			set.n++
			c.next[base+int(s)] = set.head
			c.prev[base+int(set.head)] = s
			set.head = s
		default:
			s = set.tail
			c.toHead(set, base, s)
		}
		c.tags[base+int(s)] = line
		c.hint[line] = s
	}
	c.accesses += lines
	c.misses += misses
	return lines, misses
}

// toHead makes filled slot s of the set at base its MRU slot.
func (c *LLC) toHead(set *llcSet, base int, s uint8) {
	if s == set.head {
		return
	}
	p, n := c.prev[base+int(s)], c.next[base+int(s)]
	c.next[base+int(p)] = n
	if s == set.tail {
		set.tail = p
	} else {
		c.prev[base+int(n)] = p
	}
	c.next[base+int(s)] = set.head
	c.prev[base+int(set.head)] = s
	set.head = s
}

// growHint makes line an index of the hint table, at least doubling it
// so that a stream of new lines grows it O(log n) times. The hints of
// resident lines move with it.
func (c *LLC) growHint(line int64) {
	h := make([]uint8, max(line+1, 2*int64(len(c.hint)), 1024))
	copy(h, c.hint)
	c.hint = h
}

// Stats returns the lifetime access and miss counts.
func (c *LLC) Stats() (accesses, misses int64) { return c.accesses, c.misses }

// Reset zeroes the counters but keeps cache contents (so measurement
// windows see warm caches, as hardware counters do).
func (c *LLC) Reset() { c.accesses, c.misses = 0, 0 }
