package kernels

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"hetmp/internal/core"
)

// inputPair is one read-only input array as a run held it and as a
// fresh generation draws it, both as bits.
type inputPair struct{ held, fresh []uint64 }

func f64Words(v []float64) []uint64 {
	w := make([]uint64, len(v))
	for i, x := range v {
		w[i] = math.Float64bits(x)
	}
	return w
}

// sharedInputs returns every input array k shares with other runs of
// its shape, by name, next to a fresh generation of it.
func sharedInputs(k Kernel) map[string]inputPair {
	f := func(held, fresh []float64) inputPair { return inputPair{f64Words(held), f64Words(fresh)} }
	i := func(held, fresh []int32) inputPair { return inputPair{intWords(held), intWords(fresh)} }
	switch k := k.(type) {
	case *kmeansK:
		return map[string]inputPair{
			"points": f(k.points.Data, kmeansInput{k.n, k.dims, k.k}.points()),
		}
	case *blackscholes:
		pf := bsInput{k.n}.portfolio()
		return map[string]inputPair{
			"spot":   f(k.spot.Data, pf.spot),
			"strike": f(k.strike.Data, pf.strike),
			"rate":   f(k.rate.Data, pf.rate),
			"vol":    f(k.vol.Data, pf.vol),
			"otime":  f(k.otime.Data, pf.otime),
			"otype":  i(k.otype.Data, pf.otype),
		}
	case *cg:
		m := cgInput{k.n, k.nnzRow}.matrix()
		return map[string]inputPair{
			"vals": f(k.vals.Data, m.vals),
			"cols": i(k.cols.Data, m.cols),
		}
	case *streamcluster:
		st := scInput{k.n, k.dims}.stream()
		return map[string]inputPair{
			"points": f(k.points.Data, st.points),
			"perm":   i(k.perm, st.perm),
		}
	case *lavaMD:
		return map[string]inputPair{"pos": f(k.pos.Data, k.lavaGrid.positions())}
	}
	return nil
}

// sharingKernels are the benchmarks whose read-only inputs are
// generated once per shape.
var sharingKernels = []string{"kmeans", "blackscholes", "CG-C", "streamcluster", "lavaMD"}

// A run reads its shared inputs and never writes them: after runs under
// the static and HetProbe schedules, each shared array equals a fresh
// generation bit for bit.
func TestSharedInputsStayPristine(t *testing.T) {
	for _, name := range sharingKernels {
		t.Run(name, func(t *testing.T) {
			for _, sched := range []core.Schedule{core.StaticSchedule(), core.HetProbeSchedule()} {
				k := runKernel(t, name, 0.1, sched)
				if err := k.Verify(); err != nil {
					t.Fatalf("%T: %v", sched, err)
				}
				inputs := sharedInputs(k)
				if len(inputs) == 0 {
					t.Fatalf("no shared inputs listed for %s", name)
				}
				for arr, p := range inputs {
					if len(p.held) != len(p.fresh) {
						t.Fatalf("%T: %s holds %d elements, a fresh generation %d", sched, arr, len(p.held), len(p.fresh))
					}
					for j := range p.held {
						if p.held[j] != p.fresh[j] {
							t.Fatalf("%T: %s[%d] = %#x after the run, fresh generation %#x", sched, arr, j, p.held[j], p.fresh[j])
						}
					}
				}
			}
		})
	}
}

// Simulations on separate goroutines, as hetbench -parallel runs them,
// share one generation of each input shape: every run holds the same
// backing arrays and verifies (run it under -race).
func TestConcurrentRunsShareInputs(t *testing.T) {
	names := []string{"kmeans", "blackscholes", "kmeans", "blackscholes"}
	runs := make([]Kernel, len(names))
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
			runs[i], errs[i] = k, err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
	}
	first := func(k Kernel) *float64 {
		switch k := k.(type) {
		case *kmeansK:
			return &k.points.Data[0]
		case *blackscholes:
			return &k.spot.Data[0]
		}
		return nil
	}
	for i := 2; i < len(runs); i++ {
		if first(runs[i]) != first(runs[i-2]) {
			t.Errorf("%s runs %d and %d hold separate input arrays", names[i], i-2, i)
		}
	}
}

// A second run of a shape generates no input: its host allocation stays
// below the size of the input it reads.
func TestRepeatRunAllocatesLessThanItsInput(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation count; the race detector adds its own")
	}
	const scale = 0.2 // the quick suite's
	run := func() (Kernel, uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		k := runKernel(t, "kmeans", scale, core.StaticSchedule())
		runtime.ReadMemStats(&m1)
		return k, m1.TotalAlloc - m0.TotalAlloc
	}
	run()
	k, alloc := run()
	km := k.(*kmeansK)
	input := uint64(km.n * km.dims * 8)
	if alloc >= input {
		t.Fatalf("second kmeans run allocated %d B, not below its %d B input: the input is generated again", alloc, input)
	}
}
