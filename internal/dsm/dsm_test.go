package dsm

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hetmp/internal/interconnect"
	"hetmp/internal/machine"
	"hetmp/internal/simtime"
	"hetmp/internal/telemetry"
)

func twoNodes() []machine.NodeSpec {
	return []machine.NodeSpec{machine.XeonE5_2620v4(), machine.ThunderX()}
}

// runOne executes fn as a single simulated thread and returns the
// engine error.
func runOne(t *testing.T, s *Space, fn func(p *simtime.Proc)) {
	t.Helper()
	e := engineOf(t)
	e.Go("t", 0, fn)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func engineOf(t *testing.T) *simtime.Engine {
	t.Helper()
	return simtime.NewEngine(1)
}

func newSpace(t *testing.T) *Space {
	t.Helper()
	s, err := NewSpace(twoNodes(), interconnect.RDMA56(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAllocHomesPagesAtHomeNode(t *testing.T) {
	s := newSpace(t)
	r, err := s.Alloc("a", 3*PageSize+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pages() != 4 {
		t.Fatalf("pages = %d, want 4", r.Pages())
	}
	for pg := int64(0); pg < 4; pg++ {
		w, cs := r.PageOwner(pg)
		if w != 0 || cs != 1 {
			t.Errorf("page %d: writer=%d copyset=%b, want exclusively home", pg, w, cs)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocErrors(t *testing.T) {
	s := newSpace(t)
	if _, err := s.Alloc("bad", 0, 0); err == nil {
		t.Error("accepted zero-size region")
	}
	if _, err := s.Alloc("bad", 100, 5); err == nil {
		t.Error("accepted out-of-range home")
	}
}

func TestRegionsGetDistinctAddresses(t *testing.T) {
	s := newSpace(t)
	a, _ := s.Alloc("a", PageSize, 0)
	b, _ := s.Alloc("b", PageSize, 0)
	if a.BaseAddr() == b.BaseAddr() {
		t.Error("regions share a base address")
	}
	if b.BaseAddr() < a.BaseAddr()+int64(a.Pages())*PageSize {
		t.Error("regions overlap")
	}
}

func TestLocalAccessIsFree(t *testing.T) {
	s := newSpace(t)
	r, _ := s.Alloc("a", 8*PageSize, 0)
	runOne(t, s, func(p *simtime.Proc) {
		res := r.Access(p, 0, 0, 8*PageSize, true)
		if res.Faults != 0 || res.Stall != 0 {
			t.Errorf("home-node access faulted: %+v", res)
		}
		if p.Now() != 0 {
			t.Errorf("home-node access advanced time to %v", p.Now())
		}
	})
}

func TestRemoteReadFaultReplicates(t *testing.T) {
	s := newSpace(t)
	r, _ := s.Alloc("a", PageSize, 0)
	runOne(t, s, func(p *simtime.Proc) {
		res := r.Access(p, 1, 0, 8, false)
		if res.Faults != 1 {
			t.Fatalf("faults = %d, want 1", res.Faults)
		}
		if res.Stall < 20*time.Microsecond || res.Stall > 45*time.Microsecond {
			t.Errorf("RDMA read fault stall = %v, want ≈30µs", res.Stall)
		}
		w, cs := r.PageOwner(0)
		if w != -1 || cs != 0b11 {
			t.Errorf("after remote read: writer=%d copyset=%b, want shared by both", w, cs)
		}
		// A second read from either node is free.
		if res := r.Access(p, 1, 0, 8, false); res.Faults != 0 {
			t.Error("re-read faulted")
		}
		if res := r.Access(p, 0, 0, 8, false); res.Faults != 0 {
			t.Error("home read of shared page faulted")
		}
	})
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteWriteFaultInvalidates(t *testing.T) {
	s := newSpace(t)
	r, _ := s.Alloc("a", PageSize, 0)
	runOne(t, s, func(p *simtime.Proc) {
		// Share the page first.
		r.Access(p, 1, 0, 8, false)
		// Now node 1 writes: node 0's copy must be invalidated.
		res := r.Access(p, 1, 0, 8, true)
		if res.Faults != 1 {
			t.Fatalf("write faults = %d, want 1", res.Faults)
		}
		w, cs := r.PageOwner(0)
		if w != 1 || cs != 0b10 {
			t.Errorf("after remote write: writer=%d copyset=%b, want exclusive at node 1", w, cs)
		}
		// Home node reading again must fault (its copy was invalidated).
		if res := r.Access(p, 0, 0, 8, false); res.Faults != 1 {
			t.Error("read of invalidated copy did not fault")
		}
	})
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if stats[0].Invalidations != 1 {
		t.Errorf("node 0 invalidations = %d, want 1", stats[0].Invalidations)
	}
}

func TestWriteUpgradeMovesNoData(t *testing.T) {
	// A node holding a read copy that upgrades to write pays for
	// invalidations but not for a page transfer; taking an exclusively
	// remote page pays for the full transfer.
	s := newSpace(t)
	shared, _ := s.Alloc("shared", PageSize, 0)
	exclusive, _ := s.Alloc("exclusive", PageSize, 0)
	var upgradeStall, exclStall time.Duration
	runOne(t, s, func(p *simtime.Proc) {
		shared.Access(p, 1, 0, 8, false) // replicate first
		before := s.Stats()[1].BytesIn
		upgradeStall = shared.Access(p, 1, 0, 8, true).Stall
		if got := s.Stats()[1].BytesIn; got != before {
			t.Errorf("upgrade transferred %d bytes, want 0", got-before)
		}
		exclStall = exclusive.Access(p, 1, 0, 8, true).Stall
		if got := s.Stats()[1].BytesIn; got != before+PageSize {
			t.Errorf("exclusive take transferred %d bytes, want one page", got-before)
		}
	})
	if upgradeStall <= 0 {
		t.Error("upgrade must still cost an invalidation round")
	}
	if exclStall <= upgradeStall {
		t.Errorf("full transfer (%v) must cost more than an upgrade (%v)", exclStall, upgradeStall)
	}
}

func TestPingPongWrites(t *testing.T) {
	// Alternating writers bounce the page; every write after the first
	// local one faults.
	s := newSpace(t)
	r, _ := s.Alloc("a", PageSize, 0)
	runOne(t, s, func(p *simtime.Proc) {
		var faults int64
		for i := 0; i < 10; i++ {
			faults += r.Access(p, i%2, 0, 8, true).Faults
		}
		if faults != 9 { // first write by node 0 is local
			t.Errorf("ping-pong faults = %d, want 9", faults)
		}
	})
}

func TestFalseSharingTwoWritersOnePage(t *testing.T) {
	// Two nodes writing disjoint halves of the same page still conflict:
	// that is the false sharing the paper blames for lud's behaviour.
	s := newSpace(t)
	r, _ := s.Alloc("a", PageSize, 0)
	runOne(t, s, func(p *simtime.Proc) {
		var faults int64
		for i := 0; i < 6; i++ {
			faults += r.Access(p, 0, 0, 8, true).Faults
			faults += r.Access(p, 1, PageSize/2, 8, true).Faults
		}
		if faults < 11 {
			t.Errorf("false sharing faults = %d, want ≥11", faults)
		}
	})
}

func TestDisjointPagesNoConflict(t *testing.T) {
	s := newSpace(t)
	r, _ := s.Alloc("a", 2*PageSize, 0)
	runOne(t, s, func(p *simtime.Proc) {
		r.Access(p, 1, PageSize, 8, true) // node 1 takes page 1
		var faults int64
		for i := 0; i < 5; i++ {
			faults += r.Access(p, 0, 0, 8, true).Faults
			faults += r.Access(p, 1, PageSize, 8, true).Faults
		}
		if faults != 0 {
			t.Errorf("disjoint pages faulted %d times", faults)
		}
	})
}

func TestStatsAccounting(t *testing.T) {
	s := newSpace(t)
	r, _ := s.Alloc("a", 4*PageSize, 0)
	runOne(t, s, func(p *simtime.Proc) {
		r.Access(p, 1, 0, 4*PageSize, false) // 4 read faults
		r.Access(p, 1, 0, PageSize, true)    // 1 write fault (upgrade)
	})
	st := s.Stats()[1]
	if st.ReadFaults != 4 || st.WriteFaults != 1 {
		t.Errorf("node1 faults = (%d, %d), want (4, 1)", st.ReadFaults, st.WriteFaults)
	}
	// The write fault is an upgrade of a page node 1 already holds, so
	// only the 4 read faults move data.
	if st.BytesIn != 4*PageSize {
		t.Errorf("bytes in = %d, want %d", st.BytesIn, 4*PageSize)
	}
	if s.TotalFaults() != 5 {
		t.Errorf("total faults = %d, want 5", s.TotalFaults())
	}
	if st.Stall <= 0 {
		t.Error("stall time not recorded")
	}
}

func TestSettleAt(t *testing.T) {
	s := newSpace(t)
	r, _ := s.Alloc("a", 4*PageSize, 0)
	runOne(t, s, func(p *simtime.Proc) {
		r.Access(p, 1, 0, 4*PageSize, true)
		r.SettleAt(0)
		if res := r.Access(p, 0, 0, 4*PageSize, true); res.Faults != 0 {
			t.Error("access after SettleAt(0) faulted on node 0")
		}
	})
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := newSpace(t)
	r, _ := s.Alloc("a", PageSize, 0)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access did not panic")
		}
	}()
	e := engineOf(t)
	e.Go("t", 0, func(p *simtime.Proc) {
		r.Access(p, 0, 0, 2*PageSize, false)
	})
	if err := e.Run(); err != nil {
		panic(err) // engine converts proc panic to error; re-panic for the deferred check
	}
}

func TestHandlerContentionQueues(t *testing.T) {
	// Many threads faulting simultaneously must queue at the owner's
	// DSM workers: aggregate stall grows superlinearly vs a single
	// fault.
	s := newSpace(t)
	r, _ := s.Alloc("a", 64*PageSize, 0)
	e := engineOf(t)
	stalls := make([]time.Duration, 32)
	for i := 0; i < 32; i++ {
		i := i
		e.Go("t", 0, func(p *simtime.Proc) {
			res := r.Access(p, 1, int64(i)*2*PageSize, 8, false)
			stalls[i] = res.Stall
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var max time.Duration
	for _, st := range stalls {
		if st > max {
			max = st
		}
	}
	single := stalls[0]
	if max < 2*single {
		t.Errorf("no queueing visible: max stall %v vs first %v", max, single)
	}
}

func TestTCPFaultsCostMoreThanRDMA(t *testing.T) {
	measure := func(proto interconnect.Spec) time.Duration {
		s, err := NewSpace(twoNodes(), proto, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, _ := s.Alloc("a", PageSize, 0)
		var stall time.Duration
		e := engineOf(t)
		e.Go("t", 0, func(p *simtime.Proc) {
			stall = r.Access(p, 1, 0, 8, false).Stall
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return stall
	}
	r := measure(interconnect.RDMA56())
	c := measure(interconnect.TCPIP())
	if c < 2*r {
		t.Errorf("TCP/IP fault %v should be ≥2× RDMA fault %v", c, r)
	}
}

func TestTooManyNodesRejected(t *testing.T) {
	nodes := make([]machine.NodeSpec, 17)
	for i := range nodes {
		nodes[i] = machine.XeonE5_2620v4()
	}
	if _, err := NewSpace(nodes, interconnect.RDMA56(), nil); err == nil {
		t.Error("accepted 17 nodes with a 16-bit copyset")
	}
}

// Property: after any random sequence of reads/writes from random
// nodes, protocol invariants hold and the last writer of each page can
// always re-write without faulting.
func TestProtocolInvariantsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewSpace(twoNodes(), interconnect.RDMA56(), nil)
		if err != nil {
			return false
		}
		r, err := s.Alloc("p", 8*PageSize, rng.Intn(2))
		if err != nil {
			return false
		}
		lastWriter := make(map[int64]int)
		e := simtime.NewEngine(seed)
		ok := true
		e.Go("t", 0, func(p *simtime.Proc) {
			for i := 0; i < 200; i++ {
				node := rng.Intn(2)
				pg := int64(rng.Intn(8))
				write := rng.Intn(2) == 0
				r.AccessPage(p, node, pg, write)
				if write {
					lastWriter[pg] = node
				}
				if s.CheckInvariants() != nil {
					ok = false
					return
				}
			}
			// Last writers must still have exclusive access. Iterate
			// in sorted page order: AccessPage consumes virtual time,
			// so map-order iteration would tie the proc's clock to
			// the map seed.
			pages := make([]int64, 0, len(lastWriter))
			for pg := range lastWriter {
				pages = append(pages, pg)
			}
			slices.Sort(pages)
			for _, pg := range pages {
				node := lastWriter[pg]
				w, _ := r.PageOwner(pg)
				if w != -1 && w != node {
					ok = false
					return
				}
				// If the page was downgraded by a later read, the
				// reader set must include someone; re-write must fault
				// at most once and then be exclusive.
				r.AccessPage(p, node, pg, true)
				if w, cs := r.PageOwner(pg); w != node || cs != 1<<node {
					ok = false
					return
				}
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok && s.CheckInvariants() == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: fault counts are monotone and stall is nonnegative for any
// access pattern.
func TestFaultMonotonicityProperty(t *testing.T) {
	prop := func(pattern []byte) bool {
		s, err := NewSpace(twoNodes(), interconnect.RDMA56(), nil)
		if err != nil {
			return false
		}
		r, err := s.Alloc("p", 4*PageSize, 0)
		if err != nil {
			return false
		}
		ok := true
		var prev int64
		e := simtime.NewEngine(1)
		e.Go("t", 0, func(p *simtime.Proc) {
			for _, b := range pattern {
				node := int(b) & 1
				pg := int64(b>>1) & 3
				write := b&8 != 0
				res := r.AccessPage(p, node, pg, write)
				if res.Stall < 0 || res.Faults < 0 {
					ok = false
					return
				}
				total := s.TotalFaults()
				if total < prev {
					ok = false
					return
				}
				prev = total
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func runProc(t *testing.T, eng *simtime.Engine, body func(p *simtime.Proc)) {
	t.Helper()
	eng.Go("t", 0, body)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSetTelemetryAfterAlloc is the regression test for the stale-
// handle bug: regions snapshot the space's telemetry handles at
// creation, so installing telemetry after Alloc must refresh existing
// regions — their faults must land in the registry, not in nil
// handles.
func TestSetTelemetryAfterAlloc(t *testing.T) {
	eng := simtime.NewEngine(1)
	s, err := NewSpace(machine.PaperPlatform(1).Nodes, interconnect.RDMA56(), eng.Rand())
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Alloc("late", 4*PageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(telemetry.Options{})
	s.SetTelemetry(tel) // after the region exists
	runProc(t, eng, func(p *simtime.Proc) {
		r.AccessPage(p, 1, 0, false)
	})
	node1 := s.nodes[1].Name
	got := tel.Metrics().Counter("hetmp_dsm_read_faults_total", telemetry.L("node", node1)).Value()
	if got != 1 {
		t.Errorf("read-fault counter after late SetTelemetry = %d, want 1", got)
	}
	// Disabling must also propagate (back to nil handles, not stale ones).
	s.SetTelemetry(nil)
	if r.tel != nil {
		t.Error("region still holds telemetry handles after SetTelemetry(nil)")
	}
}
