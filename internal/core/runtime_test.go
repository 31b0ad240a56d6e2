package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"hetmp/internal/cluster"
	"hetmp/internal/interconnect"
	"hetmp/internal/machine"
)

// smallPlatform is a scaled-down two-node heterogeneous platform (4
// Xeon-like + 12 ThunderX-like cores) that keeps simulations fast while
// preserving the paper platform's asymmetry.
func smallPlatform() machine.Platform {
	xeon := machine.XeonE5_2620v4().ScaleCaches(1.0 / 64)
	xeon.Cores = 4
	tx := machine.ThunderX().ScaleCaches(1.0 / 64)
	tx.Cores = 12
	return machine.Platform{Nodes: []machine.NodeSpec{xeon, tx}, Origin: 0}
}

func newSimRuntime(t *testing.T, opts Options) *Runtime {
	t.Helper()
	cl, err := cluster.NewSim(cluster.SimConfig{
		Platform: smallPlatform(),
		Protocol: interconnect.RDMA56(),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(cl, opts)
}

// coverageBody returns a Body that marks covered iterations; the mutex
// makes it safe for the Local backend too.
func coverageBody(n int) (Body, func() (covered int, dup bool)) {
	seen := make([]int32, n)
	var mu sync.Mutex
	body := func(e cluster.Env, lo, hi int) {
		mu.Lock()
		for i := lo; i < hi; i++ {
			seen[i]++
		}
		mu.Unlock()
	}
	check := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		covered, dup := 0, false
		for _, c := range seen {
			if c >= 1 {
				covered++
			}
			if c > 1 {
				dup = true
			}
		}
		return covered, dup
	}
	return body, check
}

func TestStaticRegionCoversAllIterations(t *testing.T) {
	rt := newSimRuntime(t, Options{})
	const n = 5000
	body, check := coverageBody(n)
	err := rt.Run(func(a *App) {
		a.ParallelFor("r", n, StaticSchedule(), func(e cluster.Env, lo, hi int) {
			e.Compute(float64(hi-lo)*100, 0)
			body(e, lo, hi)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	covered, dup := check()
	if covered != n || dup {
		t.Fatalf("covered=%d dup=%v, want %d unique", covered, dup, n)
	}
}

func TestDynamicRegionCoversAllIterations(t *testing.T) {
	for _, chunk := range []int{1, 7, 64} {
		rt := newSimRuntime(t, Options{})
		const n = 3000
		body, check := coverageBody(n)
		err := rt.Run(func(a *App) {
			a.ParallelFor("r", n, DynamicSchedule(chunk), func(e cluster.Env, lo, hi int) {
				e.Compute(float64(hi-lo)*100, 0)
				body(e, lo, hi)
			})
		})
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		covered, dup := check()
		if covered != n || dup {
			t.Fatalf("chunk %d: covered=%d dup=%v, want %d unique", chunk, covered, dup, n)
		}
	}
}

func TestDynamicFlatCoversAllIterations(t *testing.T) {
	rt := newSimRuntime(t, Options{FlatHierarchy: true})
	const n = 2000
	body, check := coverageBody(n)
	err := rt.Run(func(a *App) {
		a.ParallelFor("r", n, DynamicSchedule(4), func(e cluster.Env, lo, hi int) {
			e.Compute(float64(hi-lo)*100, 0)
			body(e, lo, hi)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	covered, dup := check()
	if covered != n || dup {
		t.Fatalf("covered=%d dup=%v, want %d unique", covered, dup, n)
	}
}

func TestHierarchyReducesDSMTraffic(t *testing.T) {
	// The same dynamic region must generate far fewer DSM faults with
	// the two-level hierarchy than with the flat ablation (Section 3.1:
	// only leaders touch global state).
	faults := func(flat bool) int64 {
		rt := newSimRuntime(t, Options{FlatHierarchy: flat})
		err := rt.Run(func(a *App) {
			a.ParallelFor("r", 4000, DynamicSchedule(4), func(e cluster.Env, lo, hi int) {
				e.Compute(float64(hi-lo)*2000, 0)
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt.Cluster().DSMFaults()
	}
	hier := faults(false)
	flat := faults(true)
	if hier*2 >= flat {
		t.Errorf("hierarchy did not reduce traffic: hierarchical=%d faults, flat=%d", hier, flat)
	}
}

func TestHierarchicalReduction(t *testing.T) {
	rt := newSimRuntime(t, Options{})
	const n = 10000
	var got int64
	err := rt.Run(func(a *App) {
		got = *ParallelReduce(a, "sum", n, StaticSchedule(), zeroInt64,
			func(e cluster.Env, lo, hi int, acc *int64) {
				for i := lo; i < hi; i++ {
					*acc += int64(i)
				}
				e.Compute(float64(hi-lo), 0)
			},
			addInt64,
		)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(n) * (n - 1) / 2
	if got != want {
		t.Fatalf("reduction = %d, want %d", got, want)
	}
}

func TestFlatReductionSameResult(t *testing.T) {
	for _, flat := range []bool{false, true} {
		rt := newSimRuntime(t, Options{FlatHierarchy: flat})
		var got int64
		err := rt.Run(func(a *App) {
			got = *ParallelReduce(a, "sum", 999, DynamicSchedule(8), zeroInt64,
				func(e cluster.Env, lo, hi int, acc *int64) {
					for i := lo; i < hi; i++ {
						*acc += int64(i)
					}
				},
				addInt64,
			)
		})
		if err != nil {
			t.Fatalf("flat=%v: %v", flat, err)
		}
		if want := int64(999*998) / 2; got != want {
			t.Fatalf("flat=%v: reduction = %d, want %d", flat, got, want)
		}
	}
}

func TestRepeatedRegionsReuseTeam(t *testing.T) {
	rt := newSimRuntime(t, Options{})
	err := rt.Run(func(a *App) {
		for i := 0; i < 20; i++ {
			a.ParallelFor("r", 100, StaticSchedule(), func(e cluster.Env, lo, hi int) {
				e.Compute(float64(hi-lo)*10, 0)
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.teams) != 1 {
		t.Errorf("teams created = %d, want 1 (persistent team)", len(rt.teams))
	}
}

func TestNestedRegionPanics(t *testing.T) {
	rt := newSimRuntime(t, Options{})
	err := rt.Run(func(a *App) {
		defer func() {
			if recover() == nil {
				t.Error("nested region did not panic")
			}
		}()
		a.ParallelFor("outer", 10, StaticSchedule(), func(e cluster.Env, lo, hi int) {
			a.ParallelFor("inner", 10, StaticSchedule(), func(cluster.Env, int, int) {})
		})
	})
	// The panic is recovered inside the region body; the run itself may
	// or may not complete cleanly depending on which worker hit it.
	_ = err
}

func TestZeroIterationRegion(t *testing.T) {
	rt := newSimRuntime(t, Options{})
	err := rt.Run(func(a *App) {
		a.ParallelFor("empty", 0, StaticSchedule(), func(e cluster.Env, lo, hi int) {
			t.Error("body invoked for empty region")
		})
		out := *ParallelReduce(a, "emptyR", 0, StaticSchedule(),
			func(acc *int64) { *acc = 7 },
			func(e cluster.Env, lo, hi int, acc *int64) {},
			addInt64,
		)
		if out != 7 {
			t.Errorf("empty reduction = %v, want the reset value 7", out)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSerialPhaseRunsAtBoostClock(t *testing.T) {
	rt := newSimRuntime(t, Options{})
	var serial, parallelOneThread time.Duration
	err := rt.Run(func(a *App) {
		t0 := a.Env().Now()
		a.Serial(1e8, 0)
		serial = a.Env().Now() - t0
		t0 = a.Env().Now()
		a.Env().Compute(1e8, 0)
		parallelOneThread = a.Env().Now() - t0
	})
	if err != nil {
		t.Fatal(err)
	}
	if serial >= parallelOneThread {
		t.Errorf("serial phase (%v) must be faster than all-core-clock compute (%v) on the Xeon", serial, parallelOneThread)
	}
}

func TestLocalBackendRunsRegions(t *testing.T) {
	cl, err := cluster.NewLocal(cluster.LocalConfig{NodeCores: []int{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	rt := New(cl, Options{})
	const n = 1000
	body, check := coverageBody(n)
	err = rt.Run(func(a *App) {
		a.ParallelFor("r", n, DynamicSchedule(16), body)
		sum := *ParallelReduce(a, "sum", 100, StaticSchedule(), zeroInt,
			func(e cluster.Env, lo, hi int, acc *int) {
				for i := lo; i < hi; i++ {
					*acc += i
				}
			},
			addInt,
		)
		if sum != 4950 {
			t.Errorf("local reduction = %v, want 4950", sum)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	covered, dup := check()
	if covered != n || dup {
		t.Fatalf("local dynamic: covered=%d dup=%v", covered, dup)
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	run := func() time.Duration {
		rt := newSimRuntime(t, Options{})
		r := rt.Cluster().Alloc("data", 1<<20, 0)
		err := rt.Run(func(a *App) {
			for i := 0; i < 3; i++ {
				a.ParallelFor("r", 2048, StaticSchedule(), func(e cluster.Env, lo, hi int) {
					e.Load(r, int64(lo)*512, int64(hi-lo)*512)
					e.Compute(float64(hi-lo)*500, 0.5)
				})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return rt.Cluster().Elapsed()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

// TestBodyPanicIsReported: a region body that panics on one worker
// leaves the others blocked at the end barrier; Run must report the
// panic, not only the deadlock it leaves behind.
func TestBodyPanicIsReported(t *testing.T) {
	xeon := machine.XeonE5_2620v4().ScaleCaches(1.0 / 64)
	xeon.Cores = 4
	cl, err := cluster.NewSim(cluster.SimConfig{
		Platform: machine.Platform{Nodes: []machine.NodeSpec{xeon}},
		Protocol: interconnect.RDMA56(),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = New(cl, Options{}).Run(func(a *App) {
		a.ParallelFor("boom", 64, StaticSchedule(), func(e cluster.Env, lo, hi int) {
			e.Compute(float64(hi-lo)*10, 0)
			if lo == 0 {
				panic("body failed")
			}
		})
	})
	if err == nil || !strings.Contains(err.Error(), "body failed") {
		t.Fatalf("Run error = %v, want the body's panic", err)
	}
}
