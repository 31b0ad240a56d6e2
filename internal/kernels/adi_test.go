package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"hetmp/internal/core"
)

// TestSolve4MatchesSolve: solving four interleaved lines at once gives
// every line the bits one solve of it gives.
func TestSolve4MatchesSolve(t *testing.T) {
	rg := rand.New(rand.NewSource(4))
	for _, n := range []int{12, 13, 56, 100} {
		th := newThomas(n, 0.5)
		for trial := 0; trial < 50; trial++ {
			var lines [4][]float64
			buf := make([]float64, 4*n)
			for j := range lines {
				lines[j] = make([]float64, n)
				for i := range lines[j] {
					lines[j][i] = rg.Float64()*4 - 2
					buf[4*i+j] = lines[j][i]
				}
			}
			th.solve4(buf)
			for j, line := range lines {
				th.solve(line)
				for i, want := range line {
					if got := buf[4*i+j]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d trial %d line %d element %d: solve4 %v, solve %v", n, trial, j, i, got, want)
					}
				}
			}
		}
	}
}

// TestADIVerifiesUnderEverySpanShape: BT-C and SP-C pass Verify, whose
// checksum is bit-exact against the sequential reference, whatever
// spans the schedule hands a sweep body: dynamic chunks of 1, 3, 4 and
// 7 lines (all tail, tail only, four-wide only, both) and static spans
// that are not multiples of four.
func TestADIVerifiesUnderEverySpanShape(t *testing.T) {
	const scale = 0.06
	threads := 0
	for _, n := range testPlatform().Nodes {
		threads += n.Cores
	}
	scheds := map[string]core.Schedule{"static": core.StaticSchedule()}
	for _, chunk := range []int{1, 3, 4, 7} {
		scheds[fmt.Sprintf("dynamic%d", chunk)] = core.DynamicSchedule(chunk)
	}
	for _, name := range []string{"BT-C", "SP-C"} {
		for label, sched := range scheds {
			t.Run(name+"/"+label, func(t *testing.T) {
				k := runKernel(t, name, scale, sched)
				// An even static split of n² lines over the threads
				// gives spans of two consecutive lengths, so one of
				// them is not a multiple of four unless it is exact.
				_, static := sched.(core.StaticSpec)
				if n := k.(*adi).n; static && n*n%threads == 0 {
					t.Fatalf("%d lines split evenly over %d threads", n*n, threads)
				}
				if err := k.Verify(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestConcurrentSweepsShareScratch: simulations running on separate
// goroutines, as hetbench -parallel runs them, draw sweep scratch from
// one pool; each must still match its sequential reference (run it
// under -race).
func TestConcurrentSweepsShareScratch(t *testing.T) {
	names := []string{"BT-C", "SP-C", "BT-C", "SP-C"}
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, err := simulateKernel(name, 0.05, core.DynamicSchedule(4))
			if err == nil {
				err = k.Verify()
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s: %v", names[i], err)
		}
	}
}
