package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// fakeTeam builds a team skeleton for partitioning tests without
// spawning any threads.
func fakeTeam(perNode map[int]int) *team {
	t := &team{perNode: perNode}
	for n := range perNode {
		t.nodes = append(t.nodes, n)
	}
	sort.Ints(t.nodes)
	for _, n := range t.nodes {
		t.total += perNode[n]
	}
	return t
}

func TestStaticPartitionCoversExactly(t *testing.T) {
	tm := fakeTeam(map[int]int{0: 16, 1: 96})
	d := newStaticDispatch(tm, 0, 20000, nil)
	covered := 0
	prevHi := 0
	for _, s := range d.spans {
		if s.lo != prevHi {
			t.Fatalf("span starts at %d, want %d (gaps/overlaps)", s.lo, prevHi)
		}
		covered += s.hi - s.lo
		prevHi = s.hi
	}
	if covered != 20000 || prevHi != 20000 {
		t.Fatalf("covered %d ending at %d, want 20000", covered, prevHi)
	}
}

func TestStaticCSRSkew(t *testing.T) {
	// The paper's Figure 5: 20 cores (4 on node A at CSR 3, 16 on node
	// B at 1): node A threads get 3× the iterations of node B threads.
	tm := fakeTeam(map[int]int{0: 4, 1: 16})
	d := newStaticDispatch(tm, 0, 28000, map[int]float64{0: 3, 1: 1})
	aIters := 0
	for i := 0; i < 4; i++ {
		aIters += d.spans[i].hi - d.spans[i].lo
	}
	bIters := 0
	for i := 4; i < 20; i++ {
		bIters += d.spans[i].hi - d.spans[i].lo
	}
	// 4 threads × weight 3 = 12 shares; 16 × 1 = 16 shares; total 28.
	if aIters != 12000 {
		t.Errorf("node A iterations = %d, want 12000", aIters)
	}
	if bIters != 16000 {
		t.Errorf("node B iterations = %d, want 16000", bIters)
	}
}

func TestStaticPaperFigure5Example(t *testing.T) {
	// Figure 5's remaining-iteration distribution: 18000 iterations
	// over 20 cores — node A (4 cores, CSR 3) gets ≈1929 per thread,
	// node B (16 cores, CSR 1) gets ≈643 per thread.
	tm := fakeTeam(map[int]int{0: 4, 1: 16})
	d := newStaticDispatch(tm, 2000, 18000, map[int]float64{0: 3, 1: 1})
	for i := 0; i < 4; i++ {
		got := d.spans[i].hi - d.spans[i].lo
		if got < 1928 || got > 1930 {
			t.Errorf("node A thread %d got %d iterations, want ≈1929", i, got)
		}
	}
	for i := 4; i < 20; i++ {
		got := d.spans[i].hi - d.spans[i].lo
		if got < 642 || got > 644 {
			t.Errorf("node B thread %d got %d iterations, want ≈643", i, got)
		}
	}
	if d.spans[0].lo != 2000 {
		t.Errorf("first span starts at %d, want base 2000", d.spans[0].lo)
	}
	if last := d.spans[19]; last.hi != 20000 {
		t.Errorf("last span ends at %d, want 20000", last.hi)
	}
}

func TestStaticZeroIterations(t *testing.T) {
	tm := fakeTeam(map[int]int{0: 4})
	d := newStaticDispatch(tm, 0, 0, nil)
	for _, s := range d.spans {
		if s.hi != s.lo {
			t.Errorf("zero-iteration partition handed out span %+v", s)
		}
	}
}

func TestStaticFewerIterationsThanThreads(t *testing.T) {
	tm := fakeTeam(map[int]int{0: 16, 1: 96})
	d := newStaticDispatch(tm, 0, 7, nil)
	total := 0
	for _, s := range d.spans {
		total += s.hi - s.lo
	}
	if total != 7 {
		t.Fatalf("covered %d iterations, want 7", total)
	}
}

// Property: any iteration count, any weights, any thread counts — the
// partition is a perfect cover of [base, base+n).
func TestStaticPartitionProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + rng.Intn(4)
		perNode := make(map[int]int, nodes)
		csr := make(map[int]float64, nodes)
		for i := 0; i < nodes; i++ {
			perNode[i] = 1 + rng.Intn(32)
			csr[i] = 0.25 + 4*rng.Float64()
		}
		tm := fakeTeam(perNode)
		n := rng.Intn(100000)
		base := rng.Intn(1000)
		d := newStaticDispatch(tm, base, n, csr)
		prev := base
		for _, s := range d.spans {
			if s.lo != prev || s.hi < s.lo {
				return false
			}
			prev = s.hi
		}
		return prev == base+n
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with uniform weights the partition is balanced to within
// one iteration.
func TestStaticBalanceProperty(t *testing.T) {
	prop := func(nRaw uint16, threadsRaw uint8) bool {
		n := int(nRaw)
		threads := 1 + int(threadsRaw)%64
		tm := fakeTeam(map[int]int{0: threads})
		d := newStaticDispatch(tm, 0, n, nil)
		lo, hi := n, 0
		for _, s := range d.spans {
			c := s.hi - s.lo
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		return hi-lo <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
