package experiments

import (
	"math"
	"testing"
	"time"

	"hetmp/internal/cluster"
	"hetmp/internal/core"
	"hetmp/internal/interconnect"
	"hetmp/internal/kernels"
)

// epCSR runs EP-C under HetProbe on the quick suite's two-node
// platform over RDMA, with the Xeon's and the ThunderX's clocks
// multiplied by the given factors, and returns the CSR of the probe
// region's decision. EP-C takes no DSM faults, so the decision is
// cross-node whatever the threshold.
func epCSR(t *testing.T, xeonClock, txClock float64) map[int]float64 {
	t.Helper()
	s := Quick()
	cfg := s.simConfig("both", interconnect.RDMA56())
	cfg.Platform.Nodes[0].ClockGHz *= xeonClock
	cfg.Platform.Nodes[1].ClockGHz *= txClock
	cl, err := cluster.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernels.New("EP-C", s.Scale)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(cl, core.Options{ProbeRegionID: k.ProbeRegion()})
	if err := rt.Run(func(a *core.App) { k.Run(a, kernels.Fixed(core.HetProbeSchedule())) }); err != nil {
		t.Fatal(err)
	}
	d, ok := rt.Decision(k.ProbeRegion())
	if !ok || !d.CrossNode || len(d.CSR) != 2 {
		t.Fatalf("clocks ×%g, ×%g: decision %s, want cross-node over both nodes", xeonClock, txClock, d)
	}
	return d.CSR
}

// TestCSREquivariance is a metamorphic check of Q2 (ROADMAP item 3(c)):
// the CSR is a ratio of measured per-core speeds, normalised so the
// slowest node weighs 1. Multiplying the ThunderX's clock by f must
// scale the Xeon's weight by 1/f within 2 % and leave the ThunderX at
// exactly 1; multiplying both clocks by f must change neither weight.
func TestCSREquivariance(t *testing.T) {
	base := epCSR(t, 1, 1)
	if base[1] != 1 || base[0] <= 1 {
		t.Fatalf("CSR %v: want the faster Xeon above the ThunderX's 1", base)
	}
	for _, tc := range []struct{ xeon, tx, want float64 }{
		{1, 0.5, 2 * base[0]},
		{1, 2, base[0] / 2},
		{2, 2, base[0]},
		{0.5, 0.5, base[0]},
	} {
		got := epCSR(t, tc.xeon, tc.tx)
		if got[1] != 1 || math.Abs(got[0]/tc.want-1) > 0.02 {
			t.Errorf("clocks ×%g, ×%g: CSR %.4f : %.4f, want %.4f : 1 (base %.4f : 1)",
				tc.xeon, tc.tx, got[0], got[1], tc.want, base[0])
		}
	}
}

// cgDecision runs CG-C under HetProbe on the quick suite's two-node
// platform over RDMA at the given Q1 threshold and returns its probe
// region's decision. The region probes once (ProbeMaxInvocations 1),
// and the other regions run static across both nodes until it has, so
// everything before that probe, and the fault period it measures, is
// the same at every threshold.
func cgDecision(t *testing.T, threshold time.Duration) core.Decision {
	t.Helper()
	s := Quick()
	cl, err := cluster.NewSim(s.simConfig("both", interconnect.RDMA56()))
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernels.New("CG-C", s.Scale)
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(cl, core.Options{FaultPeriodThreshold: threshold, ProbeMaxInvocations: 1, ProbeRegionID: k.ProbeRegion()})
	if err := rt.Run(func(a *core.App) { k.Run(a, kernels.Fixed(core.HetProbeSchedule())) }); err != nil {
		t.Fatal(err)
	}
	d, ok := rt.Decision(k.ProbeRegion())
	if !ok {
		t.Fatalf("threshold %v: no decision for %s", threshold, k.ProbeRegion())
	}
	return d
}

// TestQ1FlipsAtMeasuredFaultPeriod checks Q1's threshold relation end
// to end, on CG-C, the benchmark whose fault period sits nearest the
// suite's threshold: the fault period the shell measures is the one
// the step compares. Q1 enables the remote node when the period is at
// least the threshold, so with the threshold set 1 ns below and then
// equal to the measured period the region runs cross-node, and 1 ns
// above it single-node. The step-level check is TestDecideQ1AtThreshold.
func TestQ1FlipsAtMeasuredFaultPeriod(t *testing.T) {
	th, err := Quick().Threshold(interconnect.RDMA56())
	if err != nil {
		t.Fatal(err)
	}
	period := cgDecision(t, th).FaultPeriod
	if period <= 0 || period == time.Duration(math.MaxInt64) {
		t.Fatalf("CG-C measured a fault period of %v, want a finite positive one", period)
	}
	t.Logf("CG-C's probe measures a %v fault period; the suite's threshold is %v", period, th)
	for _, tc := range []struct {
		threshold time.Duration
		cross     bool
	}{{period - 1, true}, {period, true}, {period + 1, false}} {
		d := cgDecision(t, tc.threshold)
		if d.FaultPeriod != period {
			t.Errorf("threshold %v: fault period %v, want the %v every threshold measures", tc.threshold, d.FaultPeriod, period)
		}
		if d.CrossNode != tc.cross {
			t.Errorf("threshold %v, measured period %v: decision %s, want cross-node %v", tc.threshold, period, d, tc.cross)
		}
	}
}
