package dsm

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hetmp/internal/interconnect"
	"hetmp/internal/machine"
	"hetmp/internal/simtime"
)

func threeNodes() []machine.NodeSpec {
	a := machine.XeonE5_2620v4()
	b := machine.ThunderX()
	c := machine.ThunderX()
	c.Name = "ThunderX-B"
	return []machine.NodeSpec{a, b, c}
}

func TestThreeNodeReadReplication(t *testing.T) {
	s, err := NewSpace(threeNodes(), interconnect.RDMA56(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := s.Alloc("a", PageSize, 0)
	e := simtime.NewEngine(1)
	e.Go("t", 0, func(p *simtime.Proc) {
		// Both remote nodes read: the page ends up replicated on all
		// three.
		r.Access(p, 1, 0, 8, false)
		r.Access(p, 2, 0, 8, false)
		w, cs := r.PageOwner(0)
		if w != -1 || cs != 0b111 {
			t.Errorf("after two remote reads: writer=%d copyset=%03b, want shared by all", w, cs)
		}
		// A write from node 2 must invalidate both other copies.
		res := r.Access(p, 2, 0, 8, true)
		if res.Faults != 1 {
			t.Errorf("upgrade faults = %d", res.Faults)
		}
		w, cs = r.PageOwner(0)
		if w != 2 || cs != 0b100 {
			t.Errorf("after write: writer=%d copyset=%03b, want exclusive at node 2", w, cs)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	stats := s.Stats()
	if stats[0].Invalidations != 1 || stats[1].Invalidations != 1 {
		t.Errorf("invalidations = %d/%d, want one at each other node",
			stats[0].Invalidations, stats[1].Invalidations)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: three-node random access sequences preserve the protocol
// invariants and single-writer semantics.
func TestThreeNodeProtocolProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewSpace(threeNodes(), interconnect.RDMA56(), nil)
		if err != nil {
			return false
		}
		r, err := s.Alloc("p", 4*PageSize, rng.Intn(3))
		if err != nil {
			return false
		}
		ok := true
		e := simtime.NewEngine(seed)
		e.Go("t", 0, func(p *simtime.Proc) {
			for i := 0; i < 300; i++ {
				node := rng.Intn(3)
				pg := int64(rng.Intn(4))
				write := rng.Intn(3) == 0
				r.AccessPage(p, node, pg, write)
				if s.CheckInvariants() != nil {
					ok = false
					return
				}
				// Single-writer: a page with a writer has exactly that
				// one copy.
				if w, cs := r.PageOwner(pg); w >= 0 && cs != 1<<w {
					ok = false
					return
				}
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestThreeNodeSourceSelection(t *testing.T) {
	// When a page is shared by nodes 1 and 2 (home 0 invalidated), a
	// new reader must fetch it from a current holder, not the stale
	// home.
	s, err := NewSpace(threeNodes(), interconnect.RDMA56(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := s.Alloc("a", PageSize, 0)
	e := simtime.NewEngine(1)
	e.Go("t", 0, func(p *simtime.Proc) {
		r.Access(p, 1, 0, 8, true)  // node 1 takes the page exclusively
		r.Access(p, 2, 0, 8, false) // node 2 reads: shared {1,2}
		w, cs := r.PageOwner(0)
		if w != -1 || cs != 0b110 {
			t.Fatalf("intermediate state writer=%d copyset=%03b", w, cs)
		}
		before := s.Stats()[0].ReadFaults
		r.Access(p, 0, 0, 8, false) // home rereads its invalidated page
		if got := s.Stats()[0].ReadFaults - before; got != 1 {
			t.Errorf("home reread faulted %d times, want 1", got)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// A fault transaction yields while it waits on the owner and the wire,
// and another node's write may complete in that window. The fault must
// then build the page's final state from the live state, not from a
// copy taken when it started: node 1's read of page 3 starts while
// node 0's write of pages 0–7 is in flight and finishes after it, so
// the page must end shared by the writer and the reader, with home
// node 2's copy (invalidated by the write) gone. The per-page control
// runs the same accesses as eight write faults, which end after the
// read; page 3 then ends exclusive at node 0.
func TestConcurrentFaultReadsLiveState(t *testing.T) {
	for _, batch := range []bool{true, false} {
		name := "per-page"
		if batch {
			name = "batched"
		}
		t.Run(name, func(t *testing.T) {
			proto := interconnect.RDMA56()
			proto.BatchFaults = batch
			s, err := NewSpace(threeNodes(), proto, nil)
			if err != nil {
				t.Fatal(err)
			}
			r, err := s.Alloc("live", 8*PageSize, 2)
			if err != nil {
				t.Fatal(err)
			}
			e := simtime.NewEngine(1)
			var wrote, read time.Duration
			e.Go("writer", 0, func(p *simtime.Proc) {
				r.Access(p, 0, 0, 8*PageSize, true)
				wrote = p.Now()
			})
			e.Go("reader", time.Nanosecond, func(p *simtime.Proc) {
				r.Access(p, 1, 3*PageSize, 8, false)
				read = p.Now()
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if batch && read <= wrote {
				t.Fatalf("read finished at %v, not after the write (%v): the scenario lost its overlap", read, wrote)
			}
			w, cs := r.PageOwner(3)
			if cs&(1<<0) == 0 || cs&(1<<2) != 0 {
				t.Errorf("page 3: writer=%d copyset=%03b, want node 0 in the copyset and node 2 out", w, cs)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
