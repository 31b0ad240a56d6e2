package perf

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
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
	setStride := int64(len(c.sets)) * 64
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
	c.Access(0)
	tags, sets, hint := &c.tags[0], &c.sets[0], &c.hint[0]
	c.Release()
	runtime.GC()
	runtime.GC()
	r := NewLLC(spec)
	if &r.tags[0] != tags || &r.sets[0] != sets || &r.hint[0] != hint {
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

// refLLC is the LRU the slot-linked LLC replaced: each set's tags kept
// in recency order (front = MRU), scanned on every probe and shifted on
// every hit or fill. It is FuzzLLCMatchesReference's oracle.
type refLLC struct {
	tags             []int64
	sizes            []int
	ways             int
	setMask          int64
	accesses, misses int64
}

func newRefLLC(sets, ways int) *refLLC {
	return &refLLC{tags: make([]int64, sets*ways), sizes: make([]int, sets), ways: ways, setMask: int64(sets - 1)}
}

func (r *refLLC) access(line int64) bool {
	r.accesses++
	idx := line & r.setMask
	base := int(idx) * r.ways
	n := r.sizes[idx]
	set := r.tags[base : base+n]
	for i, t := range set {
		if t == line {
			copy(set[1:i+1], set[:i])
			set[0] = line
			return false
		}
	}
	r.misses++
	if n < r.ways {
		r.sizes[idx]++
		set = r.tags[base : base+n+1]
	}
	copy(set[1:], set)
	set[0] = line
	return true
}

// accessRange probes the lines of [base, base+length) that are
// multiples of step, and scales the counts by step.
func (r *refLLC) accessRange(base, length, step int64) (lines, misses int64) {
	if length <= 0 {
		return 0, 0
	}
	for line := base >> 6; line <= (base+length-1)>>6; line++ {
		if line%step != 0 {
			continue
		}
		lines += step
		if r.access(line) {
			misses += step
		}
	}
	return lines, misses
}

// llcFuzzOp decodes one 4-byte operation of FuzzLLCMatchesReference:
// the kind (Access, AccessRange or SampledRange), whether the line is
// a near one (dense, so lines are reused) or a far one (128 lines
// apart within its set), the byte offset in the line and the length.
func llcFuzzOp(op []byte) (kind int, addr, length int64) {
	kind = int(op[0] % 3)
	a := int64(op[1])<<8 | int64(op[2])
	line := a & 1023
	if op[0]/3%2 == 1 {
		line = a&7 | a>>3<<7
	}
	return kind, line<<6 + int64(op[0]>>4)*4, int64(op[3]) * 8
}

// FuzzLLCMatchesReference runs one random stream of Access,
// AccessRange and SampledRange calls on an LLC of 8 sets and 1, 2, 3,
// 4 or 16 ways, fresh or recycled after serving the same stream, and on
// the MRU-array oracle: every hit/miss, line and miss count, and the
// Stats after every call, must match.
func FuzzLLCMatchesReference(f *testing.F) {
	for w := uint8(0); w < 5; w++ {
		// Twenty lines of set 0, far apart, twice: evictions at every
		// associativity.
		var evict []byte
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 20; i++ {
				evict = append(evict, 3, 0, byte(i*8), 0)
			}
		}
		f.Add(w, false, evict)
		f.Add(w, true, evict)
		// Ranges over near lines, re-read out of order, then sampled.
		f.Add(w, w%2 == 0, []byte{1, 0, 0, 40, 1, 0, 16, 64, 0, 0, 3, 0, 2, 0, 0, 255, 2, 0, 32, 255, 5, 0, 8, 9})
	}
	f.Fuzz(func(t *testing.T, waysSel uint8, recycle bool, ops []byte) {
		ways := []int{1, 2, 3, 4, 16}[waysSel%5]
		spec := machine.CacheSpec{LLCBytes: int64(8 * 64 * ways), LineBytes: 64, Ways: ways}
		ops = ops[:len(ops)/4*4]
		c := NewLLC(spec)
		if recycle {
			for i := 0; i < len(ops); i += 4 {
				_, addr, length := llcFuzzOp(ops[i:])
				c.AccessRange(addr, length+1)
			}
			c.Release()
			c = NewLLC(spec)
		}
		defer c.Release()
		ref := newRefLLC(len(c.sets), ways)
		for i := 0; i < len(ops); i += 4 {
			kind, addr, length := llcFuzzOp(ops[i:])
			var lines, misses, wantLines, wantMisses int64
			switch kind {
			case 0:
				if c.Access(addr) {
					misses = 1
				}
				if ref.access(addr >> 6) {
					wantMisses = 1
				}
			case 1:
				lines, misses = c.AccessRange(addr, length)
				wantLines, wantMisses = ref.accessRange(addr, length, 1)
			case 2:
				lines, misses = c.SampledRange(addr, length)
				wantLines, wantMisses = ref.accessRange(addr, length, sampleMask+1)
			}
			if lines != wantLines || misses != wantMisses {
				t.Fatalf("op %d (kind %d, addr %d, length %d): (lines, misses) = (%d, %d), oracle (%d, %d)",
					i/4, kind, addr, length, lines, misses, wantLines, wantMisses)
			}
			if acc, miss := c.Stats(); acc != ref.accesses || miss != ref.misses {
				t.Fatalf("op %d: Stats = (%d, %d), oracle (%d, %d)", i/4, acc, miss, ref.accesses, ref.misses)
			}
		}
	})
}

func TestNegativeLineAddressPanics(t *testing.T) {
	c := NewLLC(smallCache())
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "negative line address") {
			t.Errorf("recovered %v, want a negative line address panic", r)
		}
	}()
	c.Access(-64)
}

// The widest set machine.Validate allows, 255 ways, numbers its slots
// 0..254 in a uint8 and still replaces exactly as the oracle does.
func TestWidestSetMatchesReference(t *testing.T) {
	c := NewLLC(machine.CacheSpec{LLCBytes: 255 * 64, LineBytes: 64, Ways: 255})
	defer c.Release()
	ref := newRefLLC(len(c.sets), 255)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		line := r.Int63n(320)
		if got, want := c.Access(line<<6), ref.access(line); got != want {
			t.Fatalf("access %d (line %d): miss = %v, oracle %v", i, line, got, want)
		}
	}
}
