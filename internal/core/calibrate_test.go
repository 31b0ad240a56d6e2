package core

import (
	"testing"
	"time"

	"hetmp/internal/cluster"
	"hetmp/internal/interconnect"
)

func mkCalCluster(t *testing.T, proto interconnect.Spec) func() (cluster.Cluster, error) {
	t.Helper()
	return func() (cluster.Cluster, error) {
		return cluster.NewSim(cluster.SimConfig{
			Platform: smallPlatform(),
			Protocol: proto,
			Seed:     1,
		})
	}
}

var calIntensities = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536}

func TestCalibrateCurveShape(t *testing.T) {
	points, err := Calibrate(mkCalCluster(t, interconnect.RDMA56()), calIntensities)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(calIntensities) {
		t.Fatalf("points = %d, want %d", len(points), len(calIntensities))
	}
	// Figure 4a: throughput must rise with compute intensity and
	// saturate: the last point must dwarf the first.
	first, last := points[0].Throughput, points[len(points)-1].Throughput
	if last < 10*first {
		t.Errorf("throughput did not rise to a plateau: first=%.3g last=%.3g ops/s", first, last)
	}
	// Figure 4b: fault period grows with intensity.
	for i := 1; i < len(points); i++ {
		if points[i].FaultPeriod < points[i-1].FaultPeriod {
			t.Errorf("fault period decreased: %v at %g ops/byte after %v at %g",
				points[i].FaultPeriod, points[i].OpsPerByte,
				points[i-1].FaultPeriod, points[i-1].OpsPerByte)
		}
	}
	// Low intensities must sit near the raw fault cost (~tens of µs).
	if points[0].FaultPeriod > 200*time.Microsecond {
		t.Errorf("fault period at 1 op/byte = %v, want tens of µs", points[0].FaultPeriod)
	}
}

func TestDeriveThresholdOrdering(t *testing.T) {
	thR, err := DeriveThreshold(mkCalCluster(t, interconnect.RDMA56()))
	if err != nil {
		t.Fatal(err)
	}
	thT, err := DeriveThreshold(mkCalCluster(t, interconnect.TCPIP()))
	if err != nil {
		t.Fatal(err)
	}
	if thR <= 0 || thR == infinitePeriod {
		t.Fatalf("RDMA threshold = %v", thR)
	}
	if thT <= thR {
		t.Errorf("TCP/IP threshold (%v) must exceed RDMA threshold (%v), cf. 7600µs vs 100µs in the paper", thT, thR)
	}
	// Same order of magnitude as the paper's numbers: RDMA threshold
	// within tens of µs to low ms.
	if thR < 10*time.Microsecond || thR > 50*time.Millisecond {
		t.Errorf("RDMA threshold %v implausible", thR)
	}
}

func TestDeriveThresholdEdgeCases(t *testing.T) {
	pts := []CalibrationPoint{{OpsPerByte: 1, Throughput: 100, FaultPeriod: time.Millisecond}}
	if got := knee(pts); got != time.Millisecond {
		t.Errorf("single-point threshold = %v", got)
	}
	// The knee is interpolated between the samples that bracket a
	// quarter of the plateau: 25 of 100 lies halfway from 10 to 40.
	pts = []CalibrationPoint{
		{OpsPerByte: 1, Throughput: 10, FaultPeriod: 10 * time.Microsecond},
		{OpsPerByte: 2, Throughput: 40, FaultPeriod: 30 * time.Microsecond},
		{OpsPerByte: 4, Throughput: 100, FaultPeriod: infinitePeriod},
	}
	if got := knee(pts); got != 20*time.Microsecond {
		t.Errorf("interpolated knee = %v, want 20µs", got)
	}
}

func TestCalibrateRequiresRemoteNode(t *testing.T) {
	solo := smallPlatform()
	solo.Nodes = solo.Nodes[:1]
	mk := func() (cluster.Cluster, error) {
		return cluster.NewSim(cluster.SimConfig{Platform: solo, Seed: 1})
	}
	if _, err := Calibrate(mk, []float64{1}); err == nil {
		t.Error("calibration succeeded without a remote node")
	}
	if _, err := DeriveThreshold(mk); err == nil {
		t.Error("threshold derived without a remote node")
	}
}
