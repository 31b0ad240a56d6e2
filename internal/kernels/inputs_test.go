package kernels

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

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
	case *lud:
		return map[string]inputPair{"matrix": f(k.ref, ludInput{k.n}.matrix())}
	case *cfd:
		m := cfdShape{k.elems}.mesh()
		return map[string]inputPair{
			"momentum":  f(k.momentum.Data, m.momentum),
			"neighbors": i(k.neighbors, m.neighbors),
		}
	}
	return nil
}

// sharingKernels are the benchmarks whose read-only inputs are
// generated once per shape.
var sharingKernels = []string{"kmeans", "blackscholes", "CG-C", "streamcluster", "lavaMD", "lud", "cfd"}

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

// A second run of a shape generates no input and builds no table: its
// host allocation, beyond the output arrays it makes itself, stays below
// the size of the input or table it shares with every run of the shape.
func TestRepeatRunAllocatesLessThanItsInput(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation count; the race detector adds its own")
	}
	const scale = 0.2 // the quick suite's
	for _, name := range []string{"kmeans", "EP-C", "blackscholes", "lavaMD"} {
		t.Run(name, func(t *testing.T) {
			run := func() (Kernel, uint64) {
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				k := runKernel(t, name, scale, core.StaticSchedule())
				runtime.ReadMemStats(&m1)
				return k, m1.TotalAlloc - m0.TotalAlloc
			}
			run()
			k, alloc := run()
			own, shared := repeatSizes(k)
			if alloc >= own+shared {
				t.Fatalf("second %s run allocated %d B, not below its %d B of output plus the %d B it shares: the input or table is built again",
					name, alloc, own, shared)
			}
		})
	}
}

// repeatSizes returns the bytes of the output arrays a run of k makes
// itself, and of the smallest input or table it shares with every run
// of its shape.
func repeatSizes(k Kernel) (own, shared uint64) {
	switch k := k.(type) {
	case *kmeansK:
		return 0, uint64(k.n * k.dims * 8)
	case *ep:
		return 0, uint64(k.blocks) * uint64(unsafe.Sizeof(epResult{}))
	case *blackscholes:
		return uint64(k.n * 8), uint64(k.n * 8)
	case *lavaMD:
		return uint64(len(k.fv.Data) * 8), uint64(len(k.fv.Data) * 8)
	}
	panic(fmt.Sprintf("no repeat sizes for %T", k))
}

// Each schedule-free table, as a run of the quick and the default shape
// leaves it in its cell, equals a direct computation of its entries bit
// for bit: the first, middle and last entries and a seeded sample.
func TestScheduleFreeTablesMatchDirect(t *testing.T) {
	for _, scale := range []float64{0.2, 1} {
		for _, name := range []string{"EP-C", "blackscholes", "lavaMD"} {
			t.Run(fmt.Sprintf("%s/%g", name, scale), func(t *testing.T) {
				k := runKernel(t, name, scale, core.StaticSchedule())
				held, direct, n := scheduleFreeTable(k)
				entries := []int{0, n / 2, n - 1}
				r := rng(7)
				for range 16 {
					entries = append(entries, r.Intn(n))
				}
				for _, i := range entries {
					if h, d := held(i), direct(i); !slices.Equal(h, d) {
						t.Fatalf("entry %d of %d holds %#x, a direct computation gives %#x", i, n, h, d)
					}
				}
			})
		}
	}
}

// scheduleFreeTable returns entry i of k's table as its cell holds it
// and as a direct computation gives it, both as bits, and the number of
// entries.
func scheduleFreeTable(k Kernel) (held, direct func(i int) []uint64, n int) {
	switch k := k.(type) {
	case *ep:
		shape := epShape{k.blocks, k.perBlk}
		tallies := reference(shape, shape.tallies)
		words := func(r epResult) []uint64 {
			return append(f64Words([]float64{r.sx, r.sy}), intWords(r.q[:])...)
		}
		return func(b int) []uint64 { return words(tallies[b]) },
			func(b int) []uint64 { return words(epBlock(b, k.perBlk)) }, k.blocks
	case *blackscholes:
		key := bsPrices{bsInput{k.n}}
		prices := reference(key, key.table)
		pf := key.portfolio()
		return func(i int) []uint64 { return f64Words(prices[i : i+1]) },
			func(i int) []uint64 {
				p := bsPrice(pf.otype[i] == 1, pf.spot[i], pf.strike[i], pf.rate[i], pf.vol[i], pf.otime[i])
				return f64Words([]float64{p})
			}, k.n
	case *lavaMD:
		forces := lavaForces{k.lavaGrid}
		fv := reference(forces, forces.table)
		pos := k.lavaGrid.positions()
		bf := k.boxFloats()
		return func(b int) []uint64 { return f64Words(fv[b*bf : (b+1)*bf]) },
			func(b int) []uint64 {
				out := make([]float64, bf)
				for _, nb := range k.neighbors(b, nil) {
					k.interact(pos, b, nb, out)
				}
				return f64Words(out)
			}, k.boxes
	}
	panic(fmt.Sprintf("no schedule-free table for %T", k))
}
