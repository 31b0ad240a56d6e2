package core

import (
	"runtime"
	"testing"
	"time"

	"hetmp/internal/cluster"
)

// A warm region allocates nothing: the team owns the region's
// descriptor, its static partition, its measurement slots and its
// reduction slots, and the App owns a reduction's master-side
// accumulators. Heap allocations are counted over two region counts
// inside one Run, so the run's setup and any one-off growth (a team's
// first reduction slots) cancel out; the difference is floored to
// allocations per region.
//
// Every case builds its body (and a reduction's reset and combine)
// once, before counting, and runs a region through a prebuilt func(),
// so no allocation counted is the test's own: what is counted is
// core's path alone.
func TestWarmRegionAllocatesNothing(t *testing.T) {
	const n = 640
	faults := func(a *App) func() {
		reg := a.Alloc("alloc:data", n*64)
		body := func(e cluster.Env, lo, hi int) {
			e.Store(reg, int64(lo)*64, int64(hi-lo)*64)
			e.Compute(float64(hi-lo)*1000, 0)
		}
		return func() { a.ParallelFor("r", n, HetProbeSchedule(), body) }
	}
	loop := func(sched Schedule) func(*App) func() {
		return func(a *App) func() {
			body := computeBody(1000, 0)
			return func() { a.ParallelFor("r", n, sched, body) }
		}
	}
	// A CG-like float64 dot product.
	dot := func(sched Schedule) func(*App) func() {
		return func(a *App) func() {
			body := func(e cluster.Env, lo, hi int, acc *float64) {
				for i := lo; i < hi; i++ {
					*acc += float64(i) * 0.5
				}
				e.Compute(float64(hi-lo)*1000, 0)
			}
			return func() { ParallelReduce(a, "r", n, sched, zeroFloat64, body, addFloat64) }
		}
	}
	// A kmeans-shaped accumulator: 128 floats of sums, counts, a cost.
	km := func(sched Schedule) func(*App) func() {
		return func(a *App) func() {
			body := func(e cluster.Env, lo, hi int, acc *kmAcc) {
				for i := lo; i < hi; i++ {
					acc.sums[i%len(acc.sums)] += float64(i)
					acc.counts[i%kmClusters]++
					acc.cost += 1
				}
				e.Compute(float64(hi-lo)*1000, 0)
			}
			return func() { ParallelReduce(a, "r", n, sched, resetKm, body, combineKm) }
		}
	}
	mature := Options{ProbeMaxInvocations: 2}
	// The ReDecide monitor folds a probing invocation's windows; a
	// mature region runs whole.
	matureRD := Options{ProbeMaxInvocations: 2, ReDecide: true}
	cases := []struct {
		name   string
		opts   Options
		region func(*App) func()
		hp     bool
		cross  bool // the mature decision's CrossNode
	}{
		{"static", Options{}, loop(StaticSchedule()), false, false},
		{"static-csr", Options{}, loop(StaticCSR(map[int]float64{0: 3, 1: 1})), false, false},
		{"hetprobe-cross-node", mature, loop(HetProbeSchedule()), true, true},
		// An hour's threshold fails Q1 on any fault: single node.
		{"hetprobe-single-node", Options{ProbeMaxInvocations: 2, FaultPeriodThreshold: time.Hour},
			faults, true, false},
		{"reduce-float64-static", Options{}, dot(StaticSchedule()), false, false},
		{"reduce-float64-hetprobe", matureRD, dot(HetProbeSchedule()), true, true},
		{"reduce-kmeans-static", Options{}, km(StaticSchedule()), false, false},
		{"reduce-kmeans-hetprobe", matureRD, km(HetProbeSchedule()), true, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rt := newSimRuntime(t, c.opts)
			var perRegion int64
			err := rt.Run(func(a *App) {
				region := c.region(a)
				regions := func(k int) int64 {
					var m0, m1 runtime.MemStats
					runtime.ReadMemStats(&m0)
					for range k {
						region()
					}
					runtime.ReadMemStats(&m1)
					return int64(m1.Mallocs - m0.Mallocs)
				}
				regions(4) // teams spawned, probes run, decision mature
				few, many := regions(4), regions(36)
				perRegion = (many - few) / 32
			})
			if err != nil {
				t.Fatal(err)
			}
			if c.hp {
				d, ok := rt.Decision("r")
				if !ok || d.CrossNode != c.cross {
					t.Fatalf("decision %v (ok %v), want CrossNode %v", d, ok, c.cross)
				}
			}
			if perRegion != 0 {
				t.Fatalf("a warm region makes %d heap allocations, want 0", perRegion)
			}
		})
	}
}

// A probing invocation's reduction allocates nothing of its own: the
// probe period, every ReDecide window and the final fold land in the
// App's accumulators. Probing itself allocates (its readings), so the
// count of a probing reduction is compared with that of the same
// probing loop without one. Each side builds its body once, before
// counting.
func TestProbingReductionAllocatesNothingMore(t *testing.T) {
	const n = 640
	probing := Options{ProbeMaxInvocations: 1 << 20, ReDecide: true}
	count := func(reduce bool) int64 {
		rt := newSimRuntime(t, probing)
		var perRegion int64
		err := rt.Run(func(a *App) {
			loop := computeBody(1000, 0)
			body := func(e cluster.Env, lo, hi int, acc *float64) {
				*acc += float64(hi - lo)
				e.Compute(float64(hi-lo)*1000, 0)
			}
			region := func() { a.ParallelFor("r", n, HetProbeSchedule(), loop) }
			if reduce {
				region = func() { ParallelReduce(a, "r", n, HetProbeSchedule(), zeroFloat64, body, addFloat64) }
			}
			regions := func(k int) int64 {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for range k {
					region()
				}
				runtime.ReadMemStats(&m1)
				return int64(m1.Mallocs - m0.Mallocs)
			}
			regions(4)
			few, many := regions(4), regions(36)
			perRegion = (many - few) / 32
		})
		if err != nil {
			t.Fatal(err)
		}
		if d, ok := rt.Decision("r"); !ok || !d.CrossNode {
			t.Fatalf("decision %v (ok %v), want cross-node", d, ok)
		}
		return perRegion
	}
	loop, reduce := count(false), count(true)
	if reduce != loop {
		t.Fatalf("a probing reduction makes %d heap allocations a region, the same loop %d; want equal", reduce, loop)
	}
}
