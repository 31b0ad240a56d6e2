package core

import (
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"hetmp/internal/machine"
)

// testPlatform is the platform facts of smallPlatform at the default
// threshold: a 4-core Xeon origin and a 12-core ThunderX.
func testPlatform() platform {
	return platform{specs: smallPlatform().Nodes, threshold: Options{}.withDefaults().FaultPeriodThreshold}
}

// TestRegionReadingRedecides: the remainder runs on the probe window's
// decision, and the region-wide misses/kinst then re-decides what is
// recorded. Here the cache-warm window reads 10 misses/kinst (Q3: the
// big-cache Xeon), the region 0.1 (Q3: the many-core ThunderX). On a
// later invocation the region reading is blended into the EWMA history
// from before that invocation's probe, not into the window's.
func TestRegionReadingRedecides(t *testing.T) {
	p := testPlatform()
	probe := probeStats{
		faultPeriod: 10 * time.Microsecond, // below the threshold: single-node
		perIter:     map[int]time.Duration{0: time.Microsecond, 1: 2 * time.Microsecond},
		missPerK:    10,
	}
	region := probeStats{instr: 1_000_000, misses: 100}
	var s regionState
	for inv := 1; inv <= 2; inv++ {
		var run, ran, record Decision
		s, run, _ = p.step(s, probeReading, probe)
		s, ran, record = p.step(s, regionReading, region)
		if run.CrossNode || run.Node != 0 || ran.Node != 0 {
			t.Fatalf("invocation %d: remainder ran under %s (reported %s), want the Xeon", inv, run, ran)
		}
		if record.CrossNode || record.Node != 1 || s.decision.Node != 1 {
			t.Fatalf("invocation %d: recorded %s, want the ThunderX", inv, record)
		}
		if math.Abs(s.missPerK-0.1) > 1e-12 {
			t.Fatalf("invocation %d: misses/kinst %v, want 0.1", inv, s.missPerK)
		}
	}
}

// TestRelabellingPermutesTheRule is the rule's half of relabelling: a
// Xeon origin and two ThunderX nodes at 1× and ½× clock. Swapping the
// two remote nodes in the specs and in every reading permutes Nodes
// and the CSR exactly, and Q1 enables both remotes or neither on the
// one global fault period (a two-node assumption, pinned as one). Q3
// reads cores and caches, not clocks, and breaks ties by the lower
// index, so a single-node pick between the two tied ThunderX is node 1
// under both labellings: a different machine, not a permuted one.
func TestRelabellingPermutesTheRule(t *testing.T) {
	xeon, tx := machine.XeonE5_2620v4(), machine.ThunderX()
	half := tx
	half.Name, half.ClockGHz, half.SerialClockGHz = "thunderx-half", tx.ClockGHz/2, tx.SerialClockGHz/2
	perm := []int{0, 2, 1}
	plats := [2]platform{
		{specs: []machine.NodeSpec{xeon, tx, half}, threshold: 100 * time.Microsecond},
		{specs: []machine.NodeSpec{xeon, half, tx}, threshold: 100 * time.Microsecond},
	}
	permDur := func(m map[int]time.Duration, relabel bool) map[int]time.Duration {
		out := make(map[int]time.Duration, len(m))
		for n, v := range m {
			if relabel {
				n = perm[n]
			}
			out[n] = v
		}
		return out
	}
	perIter := map[int]time.Duration{0: 100 * time.Nanosecond, 1: 247 * time.Nanosecond, 2: 494 * time.Nanosecond}
	for _, tc := range []struct {
		name     string
		period   time.Duration
		missPerK float64
		condemn  int // the remote (first labelling) a monitor window condemns, or 0
		nodes    []int
		single   int
	}{
		{name: "no faults", period: infinitePeriod, nodes: []int{0, 1, 2}},
		{name: "at the threshold", period: 100 * time.Microsecond, nodes: []int{0, 1, 2}},
		{name: "half-clock node condemned", period: infinitePeriod, condemn: 2, nodes: []int{0, 1}},
		{name: "low misses, single node", period: 99 * time.Microsecond, single: 1},
		{name: "high misses, single node", period: 99 * time.Microsecond, missPerK: 10, single: 0},
	} {
		var got [2]Decision
		for i, p := range plats {
			relabel := i == 1
			probe := probeStats{faultPeriod: tc.period, missPerK: tc.missPerK, perIter: permDur(perIter, relabel)}
			var s regionState
			s, got[i], _ = p.step(s, probeReading, probe)
			s, got[i], _ = p.step(s, probeReading, probe)
			if tc.condemn != 0 {
				slow := map[int]time.Duration{tc.condemn: time.Hour}
				s, got[i], _ = p.step(s, windowReading, probeStats{observed: permDur(slow, relabel)})
			}
		}
		a, b := got[0], got[1]
		if tc.nodes == nil {
			if a.CrossNode || b.CrossNode || a.Node != tc.single || b.Node != tc.single {
				t.Errorf("%s: decided %s and %s, want single-node on node %d under both labellings", tc.name, a, b, tc.single)
			}
			continue
		}
		if !a.CrossNode || !slices.Equal(a.Nodes, tc.nodes) {
			t.Errorf("%s: first labelling decided %s on nodes %v, want cross-node on %v", tc.name, a, a.Nodes, tc.nodes)
		}
		want := make([]int, len(a.Nodes))
		for j, n := range a.Nodes {
			want[j] = perm[n]
		}
		slices.Sort(want)
		if !b.CrossNode || !slices.Equal(b.Nodes, want) {
			t.Errorf("%s: swapped labelling enabled %v, want %v", tc.name, b.Nodes, want)
		}
		for n, w := range a.CSR {
			if b.CSR[perm[n]] != w {
				t.Errorf("%s: node %d weighs %v, its relabelled self %v", tc.name, n, w, b.CSR[perm[n]])
			}
		}
		if len(a.CSR) != len(b.CSR) {
			t.Errorf("%s: CSR %v against %v", tc.name, a.CSR, b.CSR)
		}
	}
}

// regionCase is one FuzzRegionStep input decoded from bytes: a
// platform of two to four nodes and a sequence of readings.
type regionCase struct {
	p     platform
	kinds []readingKind
	reads []probeStats
}

func decodeRegionCase(b []byte) regionCase {
	at := 0
	next := func() int {
		if at >= len(b) {
			return 0
		}
		at++
		return int(b[at-1])
	}
	// dur decodes a positive duration spanning nanoseconds to days, or
	// ok=false for a node that reported nothing.
	dur := func() (time.Duration, bool) {
		v, shift := next(), next()%44
		return time.Duration(v) << shift, v != 0
	}
	half := machine.ThunderX()
	half.ClockGHz /= 2
	kinds := []machine.NodeSpec{machine.XeonE5_2620v4(), machine.ThunderX(), half}
	var c regionCase
	n := 2 + next()%3
	c.p.origin = next() % n
	for range n {
		c.p.specs = append(c.p.specs, kinds[next()%len(kinds)])
	}
	c.p.threshold = time.Duration(next()+1) * 2 * time.Microsecond
	for len(c.kinds) < 16 && at < len(b) {
		var r probeStats
		k := readingKind(next() % 3)
		switch k {
		case probeReading:
			r.faultPeriod = infinitePeriod
			if v := next(); v != 255 {
				r.faultPeriod = time.Duration(v) * 2 * time.Microsecond
			}
			r.missPerK = float64(next()) / 16
			r.perIter = map[int]time.Duration{}
			for node := range n {
				if d, ok := dur(); ok {
					r.perIter[node] = d
				}
			}
		case windowReading:
			r.observed = map[int]time.Duration{}
			for node := range n {
				if d, ok := dur(); ok {
					r.observed[node] = d
				}
			}
		case regionReading:
			r.instr = int64(next()+1) << (next() % 32)
			r.misses = int64(next()) << (next() % 24)
		}
		c.kinds, c.reads = append(c.kinds, k), append(c.reads, r)
	}
	return c
}

// cloneState deep-copies a state, so a step that wrote a map of the
// state it was given shows up against the copy.
func cloneState(s regionState) regionState {
	s.perIter, s.suspects = maps.Clone(s.perIter), maps.Clone(s.suspects)
	d := s.decision
	d.CSR, d.Nodes, d.PerIterTime = maps.Clone(d.CSR), slices.Clone(d.Nodes), maps.Clone(d.PerIterTime)
	s.decision = d
	return s
}

// q1Enabled is the node set Q1 enabled for a decision: the cross-node
// set, or the origin alone.
func q1Enabled(p platform, d Decision) []int {
	if d.CrossNode {
		return d.Nodes
	}
	return []int{p.origin}
}

// checkDecision checks the properties every decision of the rule has.
func checkDecision(t *testing.T, p platform, s regionState, d Decision) {
	t.Helper()
	if d.CrossNode {
		if !slices.Contains(d.Nodes, p.origin) {
			t.Fatalf("cross-node decision %v leaves out origin %d", d.Nodes, p.origin)
		}
		for _, n := range d.Nodes {
			if s.suspects[n] {
				t.Fatalf("cross-node decision %v enables suspect %d", d.Nodes, n)
			}
		}
		lowest := math.Inf(1)
		for n, w := range d.CSR {
			if math.IsInf(w, 0) || math.IsNaN(w) || w < 1 {
				t.Fatalf("node %d weighs %v in CSR %v", n, w, d.CSR)
			}
			lowest = min(lowest, w)
		}
		if len(d.CSR) > 0 && lowest != 1 {
			t.Fatalf("lowest CSR weight %v, want exactly 1: %v", lowest, d.CSR)
		}
		return
	}
	if d.Node < 0 || d.Node >= len(p.specs) || s.suspects[d.Node] {
		t.Fatalf("single-node decision on node %d (suspects %v)", d.Node, s.suspects)
	}
	if len(s.suspects) > 0 && d.Node != p.origin {
		t.Fatalf("single-node decision on node %d under suspicion, want origin %d", d.Node, p.origin)
	}
}

// FuzzRegionStep checks the rule's properties over generated platforms
// and reading sequences: Q1 is monotone in the fault period and enables
// every non-suspect on a fault-free region; every CSR weight is finite
// and at least 1, the lowest exactly 1; the origin is always enabled
// and a suspect never is; a step writes nothing of the state it is
// given; and the same inputs give the same outputs.
func FuzzRegionStep(f *testing.F) {
	// Probe, monitor window, region reading, on two to four nodes.
	f.Add([]byte{0, 0, 0, 1, 50, 0, 255, 40, 10, 2, 25, 2, 1, 10, 2, 200, 5, 2, 9, 3, 7, 4})
	f.Add([]byte{1, 2, 1, 2, 0, 10, 0, 30, 100, 3, 200, 1, 90, 2, 1, 1, 250, 6, 0, 0, 0, 3, 3, 1, 7, 1, 1, 255, 0, 3})
	f.Add([]byte{2, 3, 0, 1, 2, 1, 49, 0, 49, 160, 50, 0, 100, 0, 150, 0, 200, 0, 1, 50, 0, 255, 8, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		c := decodeRegionCase(b)
		replay := func() []regionState {
			var s regionState
			var out []regionState
			for i, k := range c.kinds {
				before := cloneState(s)
				next, run, record := c.p.step(s, k, c.reads[i])
				if !reflect.DeepEqual(s, before) {
					t.Fatalf("reading %d wrote the state it was given", i)
				}
				if !reflect.DeepEqual(record, next.decision) {
					t.Fatalf("reading %d recorded %s, state holds %s", i, record, next.decision)
				}
				checkDecision(t, c.p, next, run)
				checkDecision(t, c.p, next, record)
				for _, hi := range []time.Duration{next.faultPeriod, next.faultPeriod + c.p.threshold/2, infinitePeriod} {
					if hi < next.faultPeriod {
						continue // overflowed
					}
					raised := next
					raised.faultPeriod = hi
					lower, higher := q1Enabled(c.p, c.p.decide(next)), q1Enabled(c.p, c.p.decide(raised))
					for _, n := range lower {
						if !slices.Contains(higher, n) {
							t.Fatalf("Q1 enables %v at fault period %v but %v at %v", lower, next.faultPeriod, higher, hi)
						}
					}
					if hi == infinitePeriod && len(higher) != len(c.p.specs)-len(next.suspects) {
						t.Fatalf("fault-free Q1 enables %v of %d nodes with suspects %v", higher, len(c.p.specs), next.suspects)
					}
				}
				s = next
				out = append(out, next)
			}
			return out
		}
		if a, b := replay(), replay(); !reflect.DeepEqual(a, b) {
			t.Fatal("the same readings gave different states")
		}
	})
}
