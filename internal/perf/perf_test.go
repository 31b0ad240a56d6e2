package perf

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"hetmp/internal/machine"
)

func smallCache() machine.CacheSpec {
	return machine.CacheSpec{LLCBytes: 64 * 1024, LineBytes: 64, Ways: 4}
}

func TestColdMissThenHit(t *testing.T) {
	c := NewLLC(smallCache())
	if !c.Access(0x1000) {
		t.Error("first access must miss (cold)")
	}
	if c.Access(0x1000) {
		t.Error("second access to the same line must hit")
	}
	if c.Access(0x1008) {
		t.Error("same line, different byte must hit")
	}
	if !c.Access(0x1040) {
		t.Error("next line must miss")
	}
	acc, miss := c.Stats()
	if acc != 4 || miss != 2 {
		t.Errorf("stats = (%d, %d), want (4, 2)", acc, miss)
	}
}

func TestWorkingSetFitsAllHitsOnRescan(t *testing.T) {
	c := NewLLC(smallCache()) // 64 KB
	const footprint = 32 * 1024
	c.AccessRange(0, footprint)
	c.Reset()
	lines, misses := c.AccessRange(0, footprint)
	if lines != footprint/64 {
		t.Fatalf("lines = %d, want %d", lines, footprint/64)
	}
	if misses != 0 {
		t.Errorf("rescan of a fitting working set missed %d times", misses)
	}
}

func TestWorkingSetExceedsCapacityThrashes(t *testing.T) {
	c := NewLLC(smallCache()) // 64 KB
	const footprint = 512 * 1024
	c.AccessRange(0, footprint)
	c.Reset()
	lines, misses := c.AccessRange(0, footprint)
	// A sequential scan 8× the capacity with LRU must miss on
	// essentially every line of the rescan.
	if misses < lines*9/10 {
		t.Errorf("rescan of 8× working set hit too often: %d/%d misses", misses, lines)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// 4-way cache: touch 4 lines mapping to one set, then a 5th evicts
	// the least recently used (the 1st); re-touching the 1st misses,
	// while 3rd/4th/5th still hit.
	c := NewLLC(smallCache())
	setStride := int64(len(c.sizes)) * 64
	addr := func(i int) int64 { return int64(i) * setStride } // all map to set 0
	for i := 0; i < 4; i++ {
		c.Access(addr(i))
	}
	if c.Access(addr(1)) {
		t.Fatal("line 1 should still be resident")
	}
	c.Access(addr(4)) // evicts line 0 (LRU)
	if c.Access(addr(4)) {
		t.Error("line 4 must be resident after insertion")
	}
	if !c.Access(addr(0)) {
		t.Error("line 0 must have been evicted as LRU")
	}
	if c.Access(addr(1)) {
		t.Error("line 1 must still be resident (was MRU-refreshed)")
	}
}

func TestAccessRangeEmpty(t *testing.T) {
	c := NewLLC(smallCache())
	if l, m := c.AccessRange(100, 0); l != 0 || m != 0 {
		t.Errorf("empty range touched (%d, %d)", l, m)
	}
	if l, m := c.AccessRange(100, -5); l != 0 || m != 0 {
		t.Errorf("negative range touched (%d, %d)", l, m)
	}
}

func TestAccessRangeSpansLineBoundary(t *testing.T) {
	c := NewLLC(smallCache())
	// 2 bytes straddling a line boundary touch 2 lines.
	if l, _ := c.AccessRange(63, 2); l != 2 {
		t.Errorf("straddling access touched %d lines, want 2", l)
	}
}

func TestCountersArithmetic(t *testing.T) {
	a := Counters{Instructions: 1000, LLCMisses: 10, LLCAccesses: 100, RemoteFaults: 2, FaultStall: time.Millisecond, Busy: time.Second}
	b := Counters{Instructions: 400, LLCMisses: 4, LLCAccesses: 40, RemoteFaults: 1, FaultStall: time.Microsecond, Busy: time.Millisecond}
	sum := a.Add(b)
	if sum.Instructions != 1400 || sum.LLCMisses != 14 {
		t.Errorf("Add wrong: %+v", sum)
	}
	if got := sum.Sub(b); got != a {
		t.Errorf("Sub(Add(b)) != a: %+v", got)
	}
}

func TestMissesPerKiloInstr(t *testing.T) {
	c := Counters{Instructions: 10000, LLCMisses: 35}
	if got := c.MissesPerKiloInstr(); got != 3.5 {
		t.Errorf("misses/kinst = %v, want 3.5", got)
	}
	if (Counters{}).MissesPerKiloInstr() != 0 {
		t.Error("zero instructions must give 0, not NaN")
	}
}

// Property: misses never exceed accesses, and stats are monotone.
func TestMissesNeverExceedAccessesProperty(t *testing.T) {
	prop := func(addrs []uint16) bool {
		c := NewLLC(smallCache())
		var prevAcc, prevMiss int64
		for _, a := range addrs {
			c.Access(int64(a) * 8)
			acc, miss := c.Stats()
			if miss > acc || acc < prevAcc || miss < prevMiss {
				return false
			}
			prevAcc, prevMiss = acc, miss
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// recycledLLC returns a cache NewLLC took back from the free list after
// it had served the dirty stream.
func recycledLLC(t *testing.T, spec machine.CacheSpec, dirty []uint16) *LLC {
	t.Helper()
	c := NewLLC(spec)
	for _, a := range dirty {
		c.Access(int64(a) * 64)
	}
	c.Release()
	r := NewLLC(spec)
	if r != c {
		t.Fatal("the free list did not hand the released cache back")
	}
	return r
}

// A released cache survives garbage collection: the next NewLLC of its
// geometry gets the same arrays back, however many GCs ran in between
// (a sync.Pool drops its items after two).
func TestReleasedLLCSurvivesGC(t *testing.T) {
	spec := machine.CacheSpec{LLCBytes: 8 * 1024, LineBytes: 128, Ways: 2}
	c := NewLLC(spec)
	tags, sizes := &c.tags[0], &c.sizes[0]
	c.Release()
	runtime.GC()
	runtime.GC()
	r := NewLLC(spec)
	if &r.tags[0] != tags || &r.sizes[0] != sizes {
		t.Fatal("NewLLC allocated fresh arrays: the released cache was lost to a GC")
	}
	r.Release()
}

// Concurrent Sims take and release caches of one geometry at once: no
// cache is ever handed to two holders.
func TestLLCFreeListConcurrent(t *testing.T) {
	spec := machine.CacheSpec{LLCBytes: 4 * 1024, LineBytes: 256, Ways: 2}
	var mu sync.Mutex
	held := map[*LLC]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := NewLLC(spec)
				mu.Lock()
				if held[c] {
					t.Error("one cache handed to two holders")
				}
				held[c] = true
				mu.Unlock()
				c.Access(int64(i) * 256)
				mu.Lock()
				delete(held, c)
				mu.Unlock()
				c.Release()
			}
		}()
	}
	wg.Wait()
}

// Property: a recycled cache is indistinguishable from a fresh one — the
// same hit/miss sequence and Stats for any stream, whatever the stream
// it served before release.
func TestRecycledLLCMatchesFreshProperty(t *testing.T) {
	spec := machine.CacheSpec{LLCBytes: 16 * 1024, LineBytes: 64, Ways: 4}
	prop := func(dirty, stream []uint16) bool {
		recycled := recycledLLC(t, spec, dirty)
		fresh := recycled.geometry().alloc()
		defer recycled.Release()
		for _, a := range stream {
			if fresh.Access(int64(a)*64) != recycled.Access(int64(a)*64) {
				return false
			}
		}
		fa, fm := fresh.Stats()
		ra, rm := recycled.Stats()
		return fa == ra && fm == rm
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Counters Add/Sub round-trips.
func TestCountersRoundTripProperty(t *testing.T) {
	prop := func(a, b Counters) bool {
		return a.Add(b).Sub(b) == a
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXeonVsThunderXPerCoreCachePressure(t *testing.T) {
	// The same per-thread working set that fits the Xeon's per-core LLC
	// share must thrash the ThunderX's: this drives Figure 8.
	xeon := machine.XeonE5_2620v4().ScaleCaches(1.0 / 64)
	tx := machine.ThunderX().ScaleCaches(1.0 / 64)
	perCoreXeon := xeon.Cache.LLCBytes / int64(xeon.Cores)
	perCoreTX := tx.Cache.LLCBytes / int64(tx.Cores)
	ws := (perCoreXeon + perCoreTX) / 2 // between the two shares
	if ws <= perCoreTX || ws >= perCoreXeon {
		t.Fatalf("test working set %d not between per-core shares (%d, %d)", ws, perCoreTX, perCoreXeon)
	}

	missRate := func(spec machine.NodeSpec) float64 {
		c := NewLLC(spec.Cache)
		// All cores stream their private working sets repeatedly.
		for pass := 0; pass < 3; pass++ {
			for core := 0; core < spec.Cores; core++ {
				base := int64(core) * ws
				c.AccessRange(base, ws)
			}
		}
		c.Reset()
		for core := 0; core < spec.Cores; core++ {
			base := int64(core) * ws
			c.AccessRange(base, ws)
		}
		acc, miss := c.Stats()
		return float64(miss) / float64(acc)
	}
	xr := missRate(xeon)
	tr := missRate(tx)
	if xr >= tr {
		t.Errorf("Xeon steady-state miss rate (%.3f) must be below ThunderX's (%.3f) for a mid-size working set", xr, tr)
	}
}
