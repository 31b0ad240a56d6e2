package core

import (
	"sync"
	"testing"
	"time"

	"hetmp/internal/chaos"
	"hetmp/internal/cluster"
	"hetmp/internal/interconnect"
	"hetmp/internal/perf"
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
// the ReDecide monitor and returns the runtime, the reduction result,
// the virtual elapsed time and the highest iteration the remote node
// ran.
func runMonitored(t *testing.T, inj *chaos.Injector, n int) (*Runtime, int, time.Duration, int) {
	t.Helper()
	rt, cl := newChaosRuntime(t, Options{
		ReDecide: true,
		// Far below any measured period: the initial decision is
		// always cross-node, which is the configuration the monitor
		// must then defend.
		FaultPeriodThreshold: time.Nanosecond,
	}, inj)
	var got int
	var mu sync.Mutex
	lastRemote := -1
	err := rt.Run(func(a *App) {
		r := a.Alloc("shared", 64*page)
		body := pingPongBody(r, 64, 400_000)
		got = a.ParallelReduce("chaotic", n, HetProbeSchedule(),
			func() any { return 0 },
			func(e cluster.Env, lo, hi int, acc any) any {
				if e.Node() != cl.Origin() {
					mu.Lock()
					lastRemote = max(lastRemote, hi-1)
					mu.Unlock()
				}
				return body(e, lo, hi, acc)
			},
			func(x, y any) any { return x.(int) + y.(int) },
		).(int)
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt, got, cl.Elapsed(), lastRemote
}

// TestReDecideFallsBackUnderLinkDegradation is the core-level version
// of the soak scenario: the link degrades mid-region, the watermark
// monitor detects it, and a re-decision revises the cross-node split
// into origin-only execution — without dropping or double-counting a
// single iteration.
func TestReDecideFallsBackUnderLinkDegradation(t *testing.T) {
	const n = 1600
	want := n * (n - 1) / 2

	// Healthy pass: learn the run's virtual duration, and require that
	// the monitor leaves a good decision alone.
	rt, got, elapsed, _ := runMonitored(t, nil, n)
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
	rt, got, _, _ = runMonitored(t, degradeAt(elapsed/4), n)
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

// degradeAt is a link degradation from virtual time start to the end
// of the run, severe enough to breach any watermark.
func degradeAt(start time.Duration) *chaos.Injector {
	return chaos.New(chaos.Profile{
		Name:  "test-degrade",
		Links: []chaos.LinkEvent{{Start: start, LatencyFactor: 300, BandwidthFactor: 300}},
	}, 1)
}

// TestMonitorRedecidesBeforeTheNextWindow: a link that degrades inside
// the first monitored window is acted on before the second window is
// dispatched — the remote node runs no iteration past window 1 — and
// the reduction still counts every iteration exactly once.
func TestMonitorRedecidesBeforeTheNextWindow(t *testing.T) {
	const n = 1600
	want := n * (n - 1) / 2
	total := 0
	for _, s := range smallPlatform().Nodes {
		total += s.Cores
	}
	probeIters := n * probePercent / total / 100 * total
	window1End := probeIters + (n-probeIters)/monitorWindows

	_, _, elapsed, healthyLast := runMonitored(t, nil, n)
	if healthyLast < window1End {
		t.Fatalf("healthy run: remote node stopped at iteration %d, inside window 1 (ends %d)", healthyLast, window1End)
	}
	// A fifth of the run in: past the probe (10 % of the iterations),
	// inside the first window.
	rt, got, _, last := runMonitored(t, degradeAt(elapsed/5), n)
	if got != want {
		t.Fatalf("degraded run reduced to %d, want %d (exactly-once accounting broken)", got, want)
	}
	if rt.ReDecisions() != 1 {
		t.Fatalf("degraded run performed %d re-decisions, want 1", rt.ReDecisions())
	}
	if last >= window1End {
		t.Fatalf("remote node ran iteration %d, past window 1 (ends %d): the re-decision came late", last, window1End)
	}
}

// TestMonitorFinalWindowDoesNotScheduleReprobe: a breach that only the
// final window could show has no window left to act in, so it changes
// nothing — no re-decision.
func TestMonitorFinalWindowDoesNotScheduleReprobe(t *testing.T) {
	const n = 1600
	want := n * (n - 1) / 2

	// Healthy pass to learn the run's virtual duration.
	_, _, elapsed, _ := runMonitored(t, nil, n)

	// Degrade the link nine tenths in: the probe and every window but
	// the last (iterations up to 77.5 %) have run, so the breach can
	// only ever be observed on the final window.
	rt, got, degraded, _ := runMonitored(t, degradeAt(elapsed*9/10), n)
	if got != want {
		t.Fatalf("degraded run reduced to %d, want %d", got, want)
	}
	// The degradation must have bitten the final window, or the
	// assertion below proves nothing.
	if degraded < 2*elapsed {
		t.Fatalf("degraded run took %v against %v healthy: the final window was not degraded", degraded, elapsed)
	}
	if rt.ReDecisions() != 0 {
		t.Fatalf("final-window breach performed %d re-decisions", rt.ReDecisions())
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
	if d := rt.decide(ent); !d.CrossNode {
		t.Fatalf("without exclusions the decision should be cross-node, got %+v", d)
	}
	ent.suspects = map[int]bool{1: true}
	d := rt.decide(ent)
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
		{node: 0, iters: 10, elapsed: 20 * time.Microsecond,
			delta: perf.Counters{Instructions: 1000, RemoteFaults: 2, FaultStall: 10 * time.Microsecond}},
		{node: 1, iters: 10, elapsed: 40 * time.Microsecond},
		{node: 1, iters: 0, elapsed: 0},                 // idle: skipped, not rejected
		{node: 0, iters: -3, elapsed: time.Microsecond}, // corrupt iters
		{node: 1, iters: 5, elapsed: -time.Microsecond}, // negative elapsed
		{node: 1, iters: 5, elapsed: 0},                 // iterations took no time
		{node: 0, iters: 10, elapsed: 20 * time.Microsecond, // valid duplicate
			delta: perf.Counters{FaultStall: 10 * time.Microsecond}},
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
	// The watermark keeps the fault stalls the per-iteration model drops.
	if got := stats.observed[0]; got != 2*time.Microsecond {
		t.Errorf("node 0 watermark %v, want 2µs", got)
	}
	if got := stats.observed[1]; got != 4*time.Microsecond {
		t.Errorf("node 1 watermark %v, want 4µs", got)
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
