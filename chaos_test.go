package hetmp_test

import (
	"testing"
	"time"

	"hetmp/internal/chaos"
	"hetmp/internal/cluster"
	"hetmp/internal/core"
	"hetmp/internal/interconnect"
	"hetmp/internal/kernels"
)

const chaosPage = 4096

// chaosRun holds one monitored ping-pong region execution under an
// optional injector.
type chaosRun struct {
	rt      *core.Runtime
	sum     int
	elapsed time.Duration
	faults  int64
}

// runChaosRegion executes a forced-cross-node region whose iterations
// interleave compute with writes to a shared page set — DSM traffic
// that never settles, so injected link degradation shows up as fault
// stalls the ReDecide monitor can see.
func runChaosRegion(t *testing.T, inj *chaos.Injector, seed int64, n int) chaosRun {
	t.Helper()
	cl, err := cluster.NewSim(cluster.SimConfig{
		Platform: quickPlatform(),
		Protocol: interconnect.RDMA56(),
		Seed:     seed,
		Chaos:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(cl, core.Options{
		ReDecide: true,
		// Far below any measured period: the initial decision is always
		// cross-node, the configuration the monitor must then defend.
		FaultPeriodThreshold: time.Nanosecond,
	})
	var sum int
	err = rt.Run(func(a *core.App) {
		r := a.Alloc("shared", 64*chaosPage)
		sum = *core.ParallelReduce(a, "soak", n, core.HetProbeSchedule(),
			func(acc *int) { *acc = 0 },
			func(e cluster.Env, lo, hi int, acc *int) {
				for i := lo; i < hi; i++ {
					e.Compute(400_000, 0)
					e.Store(r, (int64(i)%64)*chaosPage, 8)
					*acc += i
				}
			},
			func(dst, src *int) { *dst += *src },
		)
	})
	if err != nil {
		t.Fatal(err)
	}
	return chaosRun{rt: rt, sum: sum, elapsed: cl.Elapsed(), faults: cl.DSMFaults()}
}

// TestChaosSoak is the acceptance scenario across three seeds: a link
// that degrades a quarter into the region must trigger at least one
// HetProbe re-decision into origin-node fallback, while every
// iteration stays accounted exactly once.
func TestChaosSoak(t *testing.T) {
	const n = 6400
	want := n * (n - 1) / 2
	for seed := int64(1); seed <= 3; seed++ {
		healthy := runChaosRegion(t, nil, seed, n)
		if healthy.sum != want {
			t.Fatalf("seed %d: healthy run reduced to %d, want %d", seed, healthy.sum, want)
		}
		if healthy.rt.ReDecisions() != 0 {
			t.Fatalf("seed %d: healthy run performed %d re-decisions", seed, healthy.rt.ReDecisions())
		}

		inj := chaos.New(chaos.Profile{
			Name: "soak-degrade",
			Links: []chaos.LinkEvent{{
				Start:           healthy.elapsed / 4,
				LatencyFactor:   300,
				BandwidthFactor: 300,
			}},
		}, seed)
		degraded := runChaosRegion(t, inj, seed, n)
		if degraded.sum != want {
			t.Fatalf("seed %d: degraded run reduced to %d, want %d (exactly-once accounting broken)",
				seed, degraded.sum, want)
		}
		if degraded.rt.ReDecisions() < 1 {
			t.Fatalf("seed %d: link degradation did not trigger a re-decision", seed)
		}
		d, ok := degraded.rt.Decision("soak")
		if !ok {
			t.Fatalf("seed %d: no cached decision after the degraded run", seed)
		}
		if d.CrossNode || d.Node != 0 {
			t.Fatalf("seed %d: re-decision should fall back to the origin node, got %+v", seed, d)
		}
	}
}

// TestChaosReproducible: under every named profile, the same chaos
// seed reproduces the monitored run bit for bit — virtual elapsed
// time, fault count, re-decision count and the reduced value are all
// identical — and the reduction counts every iteration exactly once.
func TestChaosReproducible(t *testing.T) {
	const n = 3200
	want := n * (n - 1) / 2
	for _, name := range chaos.Profiles() {
		t.Run(name, func(t *testing.T) {
			run := func() chaosRun {
				p, err := chaos.Named(name, 42)
				if err != nil {
					t.Fatal(err)
				}
				return runChaosRegion(t, chaos.New(p, 42), 1, n)
			}
			a, b := run(), run()
			if a.elapsed != b.elapsed || a.faults != b.faults || a.sum != b.sum ||
				a.rt.ReDecisions() != b.rt.ReDecisions() {
				t.Fatalf("same chaos seed diverged: elapsed %v vs %v, faults %d vs %d, sum %d vs %d, re-decisions %d vs %d",
					a.elapsed, b.elapsed, a.faults, b.faults, a.sum, b.sum,
					a.rt.ReDecisions(), b.rt.ReDecisions())
			}
			if a.sum != want {
				t.Fatalf("reduced to %d, want %d (exactly-once accounting broken)", a.sum, want)
			}
		})
	}
}

// runKernelChaos mirrors runKernel with an injector attached to the
// simulation (nil = no chaos); it returns the virtual elapsed time,
// fault count and wall-clock duration.
func runKernelChaos(tb testing.TB, bench string, inj *chaos.Injector) (time.Duration, int64, time.Duration) {
	tb.Helper()
	const timeScale = 0.05
	k, err := kernels.New(bench, 0.2)
	if err != nil {
		tb.Fatal(err)
	}
	cl, err := cluster.NewSim(cluster.SimConfig{
		Platform:      quickPlatform(),
		Protocol:      interconnect.RDMA56().Scaled(timeScale),
		Seed:          1,
		MigrationCost: time.Duration(200 * float64(time.Microsecond) * timeScale),
		Chaos:         inj,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rt := core.New(cl, core.Options{
		FaultPeriodThreshold: 50 * time.Microsecond,
		ProbeRegionID:        k.ProbeRegion(),
	})
	start := time.Now()
	if err := rt.Run(func(a *core.App) { k.Run(a, kernels.Fixed(core.HetProbeSchedule())) }); err != nil {
		tb.Fatal(err)
	}
	return cl.Elapsed(), cl.DSMFaults(), time.Since(start)
}

// TestChaosOffZeroDelta: attaching an injector with an empty profile
// must not change the EP kernel's behaviour at all — virtual time and
// fault counts are bit-identical to a run with no injector. This is
// the behavioural half of the "chaos off costs nothing" guarantee.
func TestChaosOffZeroDelta(t *testing.T) {
	e1, f1, _ := runKernelChaos(t, "EP-C", nil)
	e2, f2, _ := runKernelChaos(t, "EP-C", chaos.New(chaos.Profile{Name: "empty"}, 1))
	if e1 != e2 || f1 != f2 {
		t.Fatalf("empty injector changed the run: elapsed %v vs %v, faults %d vs %d", e1, e2, f1, f2)
	}
}

// TestChaosOffWallBudget is the timing half: with an (empty) injector
// attached the injection points are live — one nil/empty test per
// transfer, fault and compute burst — and the wall-clock cost of that
// must stay within the 5 % budget of the no-injector baseline. The
// claim being defended is ~0 (the checks are pointer tests).
func TestChaosOffWallBudget(t *testing.T) {
	checkWallBudget(t, "an empty chaos injector",
		func() time.Duration { _, _, w := runKernelChaos(t, "EP-C", nil); return w },
		func() time.Duration {
			_, _, w := runKernelChaos(t, "EP-C", chaos.New(chaos.Profile{Name: "empty"}, 1))
			return w
		})
}
