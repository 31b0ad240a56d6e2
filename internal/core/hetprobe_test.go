package core

import (
	"testing"
	"time"

	"hetmp/internal/cluster"
	"hetmp/internal/dsm"
)

const page = dsm.PageSize

// computeBody is a communication-free, compute-heavy body: the shape of
// EP (fully local computation).
func computeBody(opsPerIter float64, vec float64) Body {
	return func(e cluster.Env, lo, hi int) {
		e.Compute(float64(hi-lo)*opsPerIter, vec)
	}
}

func TestHetProbeChoosesCrossNodeForComputeHeavy(t *testing.T) {
	rt := newSimRuntime(t, Options{})
	const n = 3200
	err := rt.Run(func(a *App) {
		a.ParallelFor("ep", n, HetProbeSchedule(), computeBody(50_000, 0))
	})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := rt.Decision("ep")
	if !ok {
		t.Fatal("no decision recorded")
	}
	if !d.CrossNode {
		t.Fatalf("compute-heavy region not run cross-node: %s", d)
	}
	// The measured CSR must recover the calibrated scalar core speed
	// ratio (Xeon ≈ 2.47 × ThunderX).
	csr := d.CSR[0] / d.CSR[1]
	if csr < 2.1 || csr > 2.9 {
		t.Errorf("measured CSR Xeon:ThunderX = %.2f, want ≈2.47", csr)
	}
	if d.FaultPeriod < rt.Options().FaultPeriodThreshold {
		t.Errorf("fault period %v below threshold yet cross-node chosen", d.FaultPeriod)
	}
}

func TestHetProbeMeasuresVectorCSR(t *testing.T) {
	// Highly vectorizable work must yield a larger CSR (≈3.5, the
	// blackscholes/lavaMD end of Table 2).
	rt := newSimRuntime(t, Options{})
	err := rt.Run(func(a *App) {
		a.ParallelFor("vec", 3200, HetProbeSchedule(), computeBody(50_000, 1))
	})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := rt.Decision("vec")
	if !d.CrossNode {
		t.Fatalf("vector region not cross-node: %s", d)
	}
	csr := d.CSR[0] / d.CSR[1]
	if csr < 3.0 || csr > 4.0 {
		t.Errorf("vector CSR = %.2f, want ≈3.5", csr)
	}
}

func TestHetProbeChoosesXeonForMissHeavy(t *testing.T) {
	// Streaming writes over a large footprint: heavy communication
	// (below the fault-period threshold) plus high LLC miss rates ⇒
	// single-node on the big-cache node (the Xeon), like CG-C / SP-C /
	// streamcluster in Figure 8.
	rt := newSimRuntime(t, Options{})
	const n = 3200
	var r *cluster.Region
	err := rt.Run(func(a *App) {
		r = a.Alloc("stream", int64(n)*page)
		a.ParallelFor("miss-heavy", n, HetProbeSchedule(), func(e cluster.Env, lo, hi int) {
			e.Store(r, int64(lo)*page, int64(hi-lo)*page)
			e.Compute(float64(hi-lo)*500, 0)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := rt.Decision("miss-heavy")
	if !ok {
		t.Fatal("no decision recorded")
	}
	if d.CrossNode {
		t.Fatalf("communication-heavy region was run cross-node: %s", d)
	}
	if d.Node != 0 {
		t.Errorf("chose node %d, want 0 (Xeon, big per-core cache) — misses/kinst=%.1f", d.Node, d.MissesPerKinst)
	}
	if d.MissesPerKinst <= MissThreshold {
		t.Errorf("expected misses/kinst above threshold, got %.2f", d.MissesPerKinst)
	}
}

func TestHetProbeChoosesThunderXForLowMissCommHeavy(t *testing.T) {
	// Ping-pong writes on a tiny hot footprint: heavy coherence
	// traffic but almost no cache misses ⇒ single-node on the
	// many-core node (the ThunderX), like BT-C / cfd / lud.
	rt := newSimRuntime(t, Options{})
	const n = 3200
	var r *cluster.Region
	err := rt.Run(func(a *App) {
		r = a.Alloc("hot", 4*page)
		a.ParallelFor("ping-pong", n, HetProbeSchedule(), func(e cluster.Env, lo, hi int) {
			for i := lo; i < hi; i++ {
				e.Store(r, int64(i%4)*page, 8)
			}
			e.Compute(float64(hi-lo)*2000, 0)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := rt.Decision("ping-pong")
	if !ok {
		t.Fatal("no decision recorded")
	}
	if d.CrossNode {
		t.Fatalf("ping-pong region was run cross-node: %s", d)
	}
	if d.Node != 1 {
		t.Errorf("chose node %d, want 1 (ThunderX, many cores) — misses/kinst=%.2f, period=%v",
			d.Node, d.MissesPerKinst, d.FaultPeriod)
	}
	if d.MissesPerKinst > MissThreshold {
		t.Errorf("expected misses/kinst below threshold, got %.2f", d.MissesPerKinst)
	}
}

func TestHetProbeCoversAllIterations(t *testing.T) {
	for _, name := range []string{"cross", "single"} {
		rt := newSimRuntime(t, Options{})
		const n = 3000
		body, check := coverageBody(n)
		var r *cluster.Region
		err := rt.Run(func(a *App) {
			r = a.Alloc("d", int64(n)*page)
			a.ParallelFor(name, n, HetProbeSchedule(), func(e cluster.Env, lo, hi int) {
				if name == "cross" {
					e.Compute(float64(hi-lo)*50_000, 0)
				} else {
					e.Store(r, int64(lo)*page, int64(hi-lo)*page)
					e.Compute(float64(hi-lo)*200, 0)
				}
				body(e, lo, hi)
			})
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		covered, dup := check()
		if covered != n || dup {
			t.Fatalf("%s: covered=%d dup=%v, want %d unique", name, covered, dup, n)
		}
	}
}

func TestHetProbeCacheMatures(t *testing.T) {
	rt := newSimRuntime(t, Options{ProbeMaxInvocations: 3})
	err := rt.Run(func(a *App) {
		for i := 0; i < 10; i++ {
			a.ParallelFor("r", 3200, HetProbeSchedule(), computeBody(10_000, 0))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ent, ok := rt.cache["r"]
	if !ok {
		t.Fatal("no cache entry")
	}
	if ent.invocations != 3 {
		t.Errorf("probe invocations = %d, want exactly ProbeMaxInvocations=3", ent.invocations)
	}
}

func TestHetProbeTinyRegionSkipsProbe(t *testing.T) {
	rt := newSimRuntime(t, Options{})
	const n = 8 // fewer iterations than threads
	body, check := coverageBody(n)
	err := rt.Run(func(a *App) {
		a.ParallelFor("tiny", n, HetProbeSchedule(), func(e cluster.Env, lo, hi int) {
			e.Compute(float64(hi-lo)*100, 0)
			body(e, lo, hi)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	covered, dup := check()
	if covered != n || dup {
		t.Fatalf("tiny region: covered=%d dup=%v", covered, dup)
	}
	if _, ok := rt.Decision("tiny"); ok {
		t.Error("tiny region should not record a probe decision")
	}
}

func TestHetProbeWithReduction(t *testing.T) {
	rt := newSimRuntime(t, Options{})
	const n = 3200
	var got int64
	err := rt.Run(func(a *App) {
		for i := 0; i < 3; i++ {
			out := a.ParallelReduce("sum", n, HetProbeSchedule(),
				func() any { return int64(0) },
				func(e cluster.Env, lo, hi int, acc any) any {
					s := acc.(int64)
					for i := lo; i < hi; i++ {
						s += int64(i)
					}
					e.Compute(float64(hi-lo)*10_000, 0)
					return s
				},
				func(x, y any) any { return x.(int64) + y.(int64) },
			)
			got = out.(int64)
			if want := int64(n) * (n - 1) / 2; got != want {
				t.Fatalf("invocation %d: reduction = %d, want %d", i, got, want)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicProbeLetsDataSettle(t *testing.T) {
	// Repeatedly invoking a region whose iterations write "their" pages
	// must stop faulting once pages settle — but only if the probe
	// distribution is deterministic (Section 3.1's settling argument,
	// and the blackscholes analysis in Section 5).
	faultsAfterWarmup := func(random bool) int64 {
		rt := newSimRuntime(t, Options{RandomProbe: random, ProbeMaxInvocations: 100})
		const n = 1600
		var r *cluster.Region
		var before, after int64
		err := rt.Run(func(a *App) {
			r = a.Alloc("results", int64(n)*page)
			body := func(e cluster.Env, lo, hi int) {
				e.Store(r, int64(lo)*page, int64(hi-lo)*page)
				e.Compute(float64(hi-lo)*60_000, 0) // enough compute to stay cross-node
			}
			for i := 0; i < 4; i++ {
				a.ParallelFor("settle", n, HetProbeSchedule(), body)
			}
			before = rt.Cluster().DSMFaults()
			for i := 0; i < 4; i++ {
				a.ParallelFor("settle", n, HetProbeSchedule(), body)
			}
			after = rt.Cluster().DSMFaults()
		})
		if err != nil {
			t.Fatal(err)
		}
		return after - before
	}
	settled := faultsAfterWarmup(false)
	churned := faultsAfterWarmup(true)
	if settled*2 >= churned {
		t.Errorf("deterministic probing did not settle: %d faults vs %d with rotated probes", settled, churned)
	}
}

func TestSingleNodePlatformAlwaysLocal(t *testing.T) {
	xeon := smallPlatform()
	xeon.Nodes = xeon.Nodes[:1]
	cl, err := cluster.NewSim(cluster.SimConfig{Platform: xeon, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt := New(cl, Options{})
	err = rt.Run(func(a *App) {
		a.ParallelFor("r", 3200, HetProbeSchedule(), computeBody(10_000, 0))
	})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := rt.Decision("r")
	if !ok {
		t.Fatal("no decision")
	}
	if d.CrossNode || d.Node != 0 {
		t.Errorf("single-node platform decision = %s", d)
	}
}

func TestEWMAFavorsRecentMeasurements(t *testing.T) {
	e := &probeEntry{}
	e.update(probeStats{faultPeriod: 100 * time.Microsecond, missPerK: 10}, 0.5)
	if e.faultPeriod != 100*time.Microsecond {
		t.Fatalf("first update not taken verbatim: %v", e.faultPeriod)
	}
	e.invocations++
	e.update(probeStats{faultPeriod: 200 * time.Microsecond, missPerK: 2}, 0.5)
	if e.faultPeriod != 150*time.Microsecond {
		t.Errorf("EWMA fault period = %v, want 150µs", e.faultPeriod)
	}
	if e.missPerK != 6 {
		t.Errorf("EWMA misses = %v, want 6", e.missPerK)
	}
}

func TestEWMAInfinitySaturates(t *testing.T) {
	if got := ewmaDur(infinitePeriod, time.Second, 0.5); got != infinitePeriod {
		t.Errorf("EWMA with infinite sample = %v, want saturation", got)
	}
	if got := ewmaDur(time.Second, infinitePeriod, 0.5); got != infinitePeriod {
		t.Errorf("EWMA with infinite history = %v, want saturation", got)
	}
}

func TestDecisionString(t *testing.T) {
	d := Decision{CrossNode: true, CSR: map[int]float64{0: 2.5, 1: 1}, FaultPeriod: time.Millisecond}
	if s := d.String(); s == "" {
		t.Error("empty decision string")
	}
	d2 := Decision{Node: 1, FaultPeriod: time.Microsecond}
	if s := d2.String(); s == "" {
		t.Error("empty single-node decision string")
	}
}

// TestProbeRotationCoprime pins the RandomProbe stride: it must be
// coprime with the team size so rotation cycles every slot through
// every position. The regression case is total == 2, where the naive
// total/2+1 stride is ≡ 0 mod 2 — every invocation rotated by zero,
// silently turning the settling ablation into deterministic
// assignment.
func TestProbeRotationCoprime(t *testing.T) {
	for total := 2; total <= 33; total++ {
		step := rotationStep(total)
		if gcd(step, total) != 1 {
			t.Errorf("rotationStep(%d) = %d shares a factor with the team size", total, step)
		}
		if step < total/2+1 {
			t.Errorf("rotationStep(%d) = %d below the half-team stride", total, step)
		}
	}
	rotated := false
	for inv := 0; inv < 4; inv++ {
		if probeRotation(inv, 2) != 0 {
			rotated = true
		}
	}
	if !rotated {
		t.Error("2-thread team never rotates under RandomProbe")
	}
	if probeRotation(3, 1) != 0 {
		t.Error("singleton team must not rotate")
	}
}

// TestDecisionCSRSlowestNodeIsOne pins the documented CSR invariant:
// cross-node weights are normalized so the slowest enabled node has
// weight exactly 1 (the paper's "X : 1" form), not the fastest.
func TestDecisionCSRSlowestNodeIsOne(t *testing.T) {
	rt := newSimRuntime(t, Options{})
	ent := &probeEntry{
		faultPeriod: infinitePeriod, // no faults: every node passes Q1
		perIter: map[int]time.Duration{
			0: 100 * time.Nanosecond,
			1: 250 * time.Nanosecond,
		},
	}
	d := rt.decide(ent)
	if !d.CrossNode {
		t.Fatalf("fault-free region should go cross-node, got %+v", d)
	}
	if d.CSR[1] != 1 {
		t.Fatalf("slowest enabled node weight = %v, want exactly 1", d.CSR[1])
	}
	if d.CSR[0] < 2.49 || d.CSR[0] > 2.51 {
		t.Fatalf("fast node weight = %v, want 2.5", d.CSR[0])
	}
}
