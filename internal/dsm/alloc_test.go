package dsm_test

import (
	"testing"

	"hetmp/internal/dsm"
	"hetmp/internal/interconnect"
	"hetmp/internal/machine"
	"hetmp/internal/simtime"
)

// TestAccessAllocationFree extends the TestTelemetryOverheadGuard
// budget down to the allocator: with telemetry and chaos disabled (the
// benchmark configuration), the DSM access paths — satisfied skip
// scans, per-page faults, and batched fault runs — must not allocate.
// testing.AllocsPerRun runs inside the engine proc; none of the
// measured calls park (a single proc never yields), so measuring there
// is safe.
func TestAccessAllocationFree(t *testing.T) {
	measure := func(batch bool) (satisfied, gather, fault float64) {
		eng := simtime.NewEngine(1)
		proto := interconnect.TCPIP() // jittered: exercises the rng path
		proto.BatchFaults = batch
		nodes := machine.PaperPlatform(1).Nodes
		space, err := dsm.NewSpace(nodes, proto, eng.Rand())
		if err != nil {
			t.Fatal(err)
		}
		reg, err := space.Alloc("hot", 64*dsm.PageSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		pages := make([]int64, 64)
		for i := range pages {
			pages[i] = int64(i)
		}
		eng.Go("probe", 0, func(p *simtime.Proc) {
			reg.Access(p, 1, 0, 64*dsm.PageSize, true) // settle at node 1
			satisfied = testing.AllocsPerRun(100, func() {
				reg.Access(p, 1, 0, 64*dsm.PageSize, true)
			})
			gather = testing.AllocsPerRun(100, func() {
				reg.AccessPages(p, 1, pages, true)
			})
			n := 0 // ping-pong the writer so every access faults
			fault = testing.AllocsPerRun(100, func() {
				reg.Access(p, n, 0, 64*dsm.PageSize, true)
				n = 1 - n
			})
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return satisfied, gather, fault
	}
	for _, batch := range []bool{false, true} {
		satisfied, gather, fault := measure(batch)
		if satisfied != 0 {
			t.Errorf("batch=%v: satisfied Access allocates %.1f/call, want 0", batch, satisfied)
		}
		if gather != 0 {
			t.Errorf("batch=%v: satisfied AccessPages allocates %.1f/call, want 0", batch, gather)
		}
		if fault != 0 {
			t.Errorf("batch=%v: faulting Access allocates %.1f/call, want 0", batch, fault)
		}
	}
}

// TestAccessPagesAllHitEarlyReturn pins the gather fast path: when
// every requested page is already satisfied, AccessPages must return
// without entering the fault loop — zero faults, zero stall, zero
// allocations, no virtual time consumed — per-page and batched.
func TestAccessPagesAllHitEarlyReturn(t *testing.T) {
	run := func(batch bool) (read, write float64) {
		eng := simtime.NewEngine(1)
		proto := interconnect.TCPIP()
		proto.BatchFaults = batch
		nodes := machine.PaperPlatform(1).Nodes
		space, err := dsm.NewSpace(nodes, proto, eng.Rand())
		if err != nil {
			t.Fatal(err)
		}
		reg, err := space.Alloc("hit", 64*dsm.PageSize, 0)
		if err != nil {
			t.Fatal(err)
		}
		pages := make([]int64, 64)
		for i := range pages {
			pages[i] = int64(i)
		}
		eng.Go("probe", 0, func(p *simtime.Proc) {
			reg.Access(p, 1, 0, 64*dsm.PageSize, true) // settle at node 1
			start := p.Now()
			var res dsm.AccessResult
			read = testing.AllocsPerRun(100, func() {
				res = reg.AccessPages(p, 1, pages, false)
			})
			if res.Faults != 0 || res.Stall != 0 {
				t.Errorf("all-hit gather read: faults=%d stall=%v, want zero", res.Faults, res.Stall)
			}
			write = testing.AllocsPerRun(100, func() {
				res = reg.AccessPages(p, 1, pages, true)
			})
			if res.Faults != 0 || res.Stall != 0 {
				t.Errorf("all-hit gather write: faults=%d stall=%v, want zero", res.Faults, res.Stall)
			}
			if p.Now() != start {
				t.Errorf("all-hit gathers advanced virtual time by %v", p.Now()-start)
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return read, write
	}
	for _, batch := range []bool{false, true} {
		read, write := run(batch)
		if read != 0 {
			t.Errorf("batch=%v: all-hit gather read allocates %.1f/call, want 0", batch, read)
		}
		if write != 0 {
			t.Errorf("batch=%v: all-hit gather write allocates %.1f/call, want 0", batch, write)
		}
	}
}
