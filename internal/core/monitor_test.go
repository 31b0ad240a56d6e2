package core

import (
	"testing"
	"time"

	"hetmp/internal/chaos"
	"hetmp/internal/cluster"
	"hetmp/internal/interconnect"
	"hetmp/internal/perf"
	"hetmp/internal/telemetry"
)

// newChaosRuntime is newSimRuntime with a degradation injector
// attached to the simulated cluster.
func newChaosRuntime(t *testing.T, opts Options, inj *chaos.Injector) (*Runtime, *cluster.Sim) {
	t.Helper()
	cl, err := cluster.NewSim(cluster.SimConfig{
		Platform: smallPlatform(),
		Protocol: interconnect.RDMA56(),
		Seed:     1,
		Chaos:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(cl, opts), cl
}

// pingPongBody writes one shared page per iteration (write-invalidate
// traffic that never settles while both nodes participate) and burns
// opsPerIter of compute. The compute dominates on a healthy link, so
// the region is legitimately cross-node; a degraded link blows the
// fault stalls — and only the fault stalls — up.
func pingPongBody(r *cluster.Region, pages int64, opsPerIter float64) BodyReduce {
	return func(e cluster.Env, lo, hi int, acc any) any {
		sum := acc.(int)
		for i := lo; i < hi; i++ {
			// Compute BEFORE the store so writes from different
			// workers interleave in virtual time (a single burst of
			// stores would all land at one instant and barely
			// alternate ownership).
			e.Compute(opsPerIter, 0)
			e.Store(r, (int64(i)%pages)*page, 8)
			sum += i
		}
		return sum
	}
}

// runMonitored executes one forced-cross-node ping-pong region under
// the ReDecide monitor and returns the runtime, the reduction result
// and the virtual elapsed time.
func runMonitored(t *testing.T, inj *chaos.Injector, n int) (*Runtime, int, time.Duration) {
	t.Helper()
	rt, cl := newChaosRuntime(t, Options{
		ReDecide: true,
		// Far below any measured period: the initial decision is
		// always cross-node, which is the configuration the monitor
		// must then defend.
		FaultPeriodThreshold: time.Nanosecond,
	}, inj)
	var got int
	err := rt.Run(func(a *App) {
		r := a.Alloc("shared", 64*page)
		got = a.ParallelReduce("chaotic", n, HetProbeSchedule(),
			func() any { return 0 },
			pingPongBody(r, 64, 400_000),
			func(x, y any) any { return x.(int) + y.(int) },
		).(int)
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt, got, cl.Elapsed()
}

// TestReDecideFallsBackUnderLinkDegradation is the core-level version
// of the soak scenario: the link degrades mid-region, the watermark
// monitor detects it, and a re-probe → re-decision revises the
// cross-node split into origin-only execution — without dropping or
// double-counting a single iteration.
func TestReDecideFallsBackUnderLinkDegradation(t *testing.T) {
	const n = 1600
	want := n * (n - 1) / 2

	// Healthy pass: learn the run's virtual duration, and require that
	// the monitor leaves a good decision alone.
	rt, got, elapsed := runMonitored(t, nil, n)
	if got != want {
		t.Fatalf("healthy run reduced to %d, want %d", got, want)
	}
	if rt.ReDecisions() != 0 {
		t.Fatalf("healthy run performed %d re-decisions", rt.ReDecisions())
	}
	if d, ok := rt.Decision("chaotic"); !ok || !d.CrossNode {
		t.Fatalf("healthy run should stay cross-node, got %+v", d)
	}

	// Chaos pass: the link degrades a quarter into the run — after the
	// probe decided, before the region ends.
	inj := chaos.New(chaos.Profile{
		Name: "test-degrade",
		Links: []chaos.LinkEvent{{
			Start:           elapsed / 4,
			LatencyFactor:   300,
			BandwidthFactor: 300,
		}},
	}, 1)
	rt, got, _ = runMonitored(t, inj, n)
	if got != want {
		t.Fatalf("degraded run reduced to %d, want %d (exactly-once accounting broken)", got, want)
	}
	if rt.ReDecisions() < 1 {
		t.Fatal("link degradation did not trigger a re-decision")
	}
	d, ok := rt.Decision("chaotic")
	if !ok {
		t.Fatal("no cached decision after the degraded run")
	}
	if d.CrossNode || d.Node != 0 {
		t.Fatalf("re-decision should fall back to the origin node, got %+v", d)
	}
}

// TestMonitorFinalWindowDoesNotScheduleReprobe is the regression test
// for the last-window accounting bug: a breach detected on the final
// window used to set pendingReprobe — incrementing
// hetmp_hetprobe_reprobes_total for a re-probe that no later window
// could ever dispatch. A breach with no window remaining must not be
// counted as a scheduled re-probe.
func TestMonitorFinalWindowDoesNotScheduleReprobe(t *testing.T) {
	const n = 1600
	want := n * (n - 1) / 2

	// Healthy pass to learn the run's virtual duration.
	_, _, elapsed := runMonitored(t, nil, n)

	// Degrade the link a quarter in, with a single monitor window: the
	// breach can only ever be observed on the final (= only) window.
	inj := chaos.New(chaos.Profile{
		Name: "test-degrade-final",
		Links: []chaos.LinkEvent{{
			Start:           elapsed / 4,
			LatencyFactor:   300,
			BandwidthFactor: 300,
		}},
	}, 1)
	tel := telemetry.New(telemetry.Options{})
	rt, _ := newChaosRuntime(t, Options{
		ReDecide:             true,
		FaultPeriodThreshold: time.Nanosecond,
		MonitorWindows:       1,
		Telemetry:            tel,
	}, inj)
	var got int
	err := rt.Run(func(a *App) {
		r := a.Alloc("shared", 64*page)
		got = a.ParallelReduce("chaotic", n, HetProbeSchedule(),
			func() any { return 0 },
			pingPongBody(r, 64, 400_000),
			func(x, y any) any { return x.(int) + y.(int) },
		).(int)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("degraded run reduced to %d, want %d", got, want)
	}
	if v := rt.reprobeCtr.Value(); v != 0 {
		t.Fatalf("final-window breach scheduled %d re-probe(s) that can never dispatch", v)
	}
	if rt.ReDecisions() != 0 {
		t.Fatalf("single-window run performed %d re-decisions", rt.ReDecisions())
	}
}

// TestReDecideDisabledPathUnchanged: with ReDecide off, a run with an
// empty injector attached is bit-for-bit identical to a run with no
// injector at all — the injection points are free when chaos is off.
func TestReDecideDisabledPathUnchanged(t *testing.T) {
	run := func(inj *chaos.Injector) (time.Duration, int64, int) {
		rt, cl := newChaosRuntime(t, Options{FaultPeriodThreshold: time.Nanosecond}, inj)
		var got int
		err := rt.Run(func(a *App) {
			r := a.Alloc("shared", 64*page)
			got = a.ParallelReduce("chaotic", 1600, HetProbeSchedule(),
				func() any { return 0 },
				pingPongBody(r, 64, 50_000),
				func(x, y any) any { return x.(int) + y.(int) },
			).(int)
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl.Elapsed(), cl.DSMFaults(), got
	}
	e1, f1, g1 := run(nil)
	e2, f2, g2 := run(chaos.New(chaos.Profile{Name: "empty"}, 7))
	if e1 != e2 || f1 != f2 || g1 != g2 {
		t.Fatalf("empty injector changed the run: elapsed %v vs %v, faults %d vs %d, result %d vs %d",
			e1, e2, f1, f2, g1, g2)
	}
}

// TestDecideWithExclusionFallsBackToOrigin pins the suspect-set
// semantics: excluding the only remote node collapses the decision to
// the origin even when Q3's heuristics would pick the remote node.
func TestDecideWithExclusionFallsBackToOrigin(t *testing.T) {
	rt := newSimRuntime(t, Options{})
	ent := &probeEntry{
		faultPeriod: infinitePeriod, // no faults: every node passes Q1
		perIter:     map[int]time.Duration{0: time.Microsecond, 1: 2 * time.Microsecond},
		// Low miss rate: Q3 would pick the many-core (remote) node.
		missPerK: 0,
	}
	spec := HetProbeSpec{ForceNode: -1}
	if d := rt.decideWith(ent, spec, nil); !d.CrossNode {
		t.Fatalf("without exclusions the decision should be cross-node, got %+v", d)
	}
	d := rt.decideWith(ent, spec, map[int]bool{1: true})
	if d.CrossNode {
		t.Fatalf("excluding the only remote must collapse to single-node, got %+v", d)
	}
	if d.Node != rt.cl.Origin() {
		t.Fatalf("fallback picked node %d, want origin %d", d.Node, rt.cl.Origin())
	}
}

// TestSanitizeRejectsCorruptMeasurements pins the clamps: negative or
// time-free measurements are dropped (and counted), idle workers are
// skipped silently, and valid data flows through untouched.
func TestSanitizeRejectsCorruptMeasurements(t *testing.T) {
	ms := []measurement{
		{node: 0, iters: 10, elapsed: 10 * time.Microsecond,
			delta: perf.Counters{Instructions: 1000, RemoteFaults: 2}},
		{node: 1, iters: 10, elapsed: 40 * time.Microsecond},
		{node: 1, iters: 0, elapsed: 0},                      // idle: skipped, not rejected
		{node: 0, iters: -3, elapsed: time.Microsecond},      // corrupt iters
		{node: 1, iters: 5, elapsed: -time.Microsecond},      // negative elapsed
		{node: 1, iters: 5, elapsed: 0},                      // iterations took no time
		{node: 0, iters: 10, elapsed: 10 * time.Microsecond}, // valid duplicate
	}
	stats, rejected := summarizeMeasurements(ms)
	if rejected != 3 {
		t.Fatalf("rejected %d measurements, want 3", rejected)
	}
	if got := stats.perIter[0]; got != time.Microsecond {
		t.Errorf("node 0 per-iter %v, want 1µs", got)
	}
	if got := stats.perIter[1]; got != 4*time.Microsecond {
		t.Errorf("node 1 per-iter %v, want 4µs", got)
	}
	if stats.instr != 1000 {
		t.Errorf("instructions %d, want 1000", stats.instr)
	}

	obs, rej := nodeWatermarks(ms)
	if rej != 3 {
		t.Fatalf("watermarks rejected %d, want 3", rej)
	}
	if obs[0] != time.Microsecond || obs[1] != 4*time.Microsecond {
		t.Errorf("watermarks %v", obs)
	}
}

// TestBreachedNodes pins the watermark comparison: only non-origin
// nodes with a sane baseline can breach, and only beyond the factor.
func TestBreachedNodes(t *testing.T) {
	baseline := map[int]time.Duration{0: time.Microsecond, 1: time.Microsecond, 2: 0}
	obs := map[int]time.Duration{
		0: 100 * time.Microsecond, // origin: never a suspect
		1: 4 * time.Microsecond,   // 4× > 3×: breach
		2: time.Hour,              // no sane baseline: cannot breach
		3: time.Hour,              // no baseline at all
	}
	got := breachedNodes(obs, baseline, 0)
	if len(got) != 1 || !got[1] {
		t.Fatalf("breached = %v, want {1}", got)
	}
	if breachedNodes(map[int]time.Duration{1: 2 * time.Microsecond}, baseline, 0) != nil {
		t.Error("2× should not breach a 3× factor")
	}
}
