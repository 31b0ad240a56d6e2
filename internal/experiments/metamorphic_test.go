package experiments

import (
	"math"
	"testing"

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
