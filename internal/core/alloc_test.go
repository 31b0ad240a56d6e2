package core

import (
	"runtime"
	"testing"
	"time"

	"hetmp/internal/cluster"
)

// A warm static region and a mature HetProbe region allocate nothing:
// the team owns the region's descriptor, its static partition and its
// measurement slots. Heap allocations are counted over two region
// counts inside one Run, so the run's setup and any one-off growth
// cancel out; the difference is floored to allocations per region.
func TestWarmRegionAllocatesNothing(t *testing.T) {
	const n = 640
	faults := func(a *App) Body {
		reg := a.Alloc("alloc:data", n*64)
		return func(e cluster.Env, lo, hi int) {
			e.Store(reg, int64(lo)*64, int64(hi-lo)*64)
			e.Compute(float64(hi-lo)*1000, 0)
		}
	}
	compute := func(*App) Body { return computeBody(1000, 0) }
	cases := []struct {
		name  string
		opts  Options
		sched Schedule
		body  func(*App) Body
		cross bool // the mature decision's CrossNode
	}{
		{"static", Options{}, StaticSchedule(), compute, false},
		{"static-csr", Options{}, StaticCSR(map[int]float64{0: 3, 1: 1}), compute, false},
		{"hetprobe-cross-node", Options{ProbeMaxInvocations: 2}, HetProbeSchedule(), compute, true},
		// An hour's threshold fails Q1 on any fault: single node.
		{"hetprobe-single-node", Options{ProbeMaxInvocations: 2, FaultPeriodThreshold: time.Hour},
			HetProbeSchedule(), faults, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rt := newSimRuntime(t, c.opts)
			var perRegion int64
			err := rt.Run(func(a *App) {
				body := c.body(a)
				regions := func(k int) int64 {
					var m0, m1 runtime.MemStats
					runtime.ReadMemStats(&m0)
					for range k {
						a.ParallelFor("r", n, c.sched, body)
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
			if _, isHP := c.sched.(HetProbeSpec); isHP {
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
