package core

import (
	"testing"

	"hetmp/internal/cluster"
	"hetmp/internal/interconnect"
	"hetmp/internal/machine"
)

// threeNodePlatform adds a second, smaller ThunderX-like node to the
// test platform: three nodes under one threshold must still decide and
// reduce.
func threeNodePlatform() machine.Platform {
	xeon := machine.XeonE5_2620v4().ScaleCaches(1.0 / 64)
	xeon.Cores = 4
	txA := machine.ThunderX().ScaleCaches(1.0 / 64)
	txA.Cores = 8
	txA.Name = "ThunderX-A"
	txB := machine.ThunderX().ScaleCaches(1.0 / 64)
	txB.Cores = 8
	txB.Name = "ThunderX-B"
	return machine.Platform{Nodes: []machine.NodeSpec{xeon, txA, txB}, Origin: 0}
}

func newThreeNodeRuntime(t *testing.T, opts Options) *Runtime {
	t.Helper()
	cl, err := cluster.NewSim(cluster.SimConfig{
		Platform: threeNodePlatform(),
		Protocol: interconnect.RDMA56(),
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(cl, opts)
}

func TestThreeNodeCrossExecution(t *testing.T) {
	// A compute-heavy region must enable and use all three nodes.
	rt := newThreeNodeRuntime(t, Options{})
	const n = 4000
	body, check := coverageBody(n)
	err := rt.Run(func(a *App) {
		a.ParallelFor("r", n, HetProbeSchedule(), func(e cluster.Env, lo, hi int) {
			e.Compute(float64(hi-lo)*50_000, 0)
			body(e, lo, hi)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	covered, dup := check()
	if covered != n || dup {
		t.Fatalf("covered=%d dup=%v", covered, dup)
	}
	d, ok := rt.Decision("r")
	if !ok || !d.CrossNode {
		t.Fatalf("expected cross-node decision, got %v", d)
	}
	if len(d.Nodes) != 3 {
		t.Fatalf("enabled nodes = %v, want all 3", d.Nodes)
	}
	// Both ThunderX nodes are identical, so their CSRs must match and
	// the Xeon's must be larger.
	if d.CSR[1] != d.CSR[2] {
		t.Errorf("identical nodes got different CSRs: %v vs %v", d.CSR[1], d.CSR[2])
	}
	if d.CSR[0] <= d.CSR[1] {
		t.Errorf("Xeon CSR %v not above ThunderX %v", d.CSR[0], d.CSR[1])
	}
}

func TestThreeNodeReduction(t *testing.T) {
	rt := newThreeNodeRuntime(t, Options{})
	const n = 9999
	var got int64
	err := rt.Run(func(a *App) {
		got = *ParallelReduce(a, "sum", n, DynamicSchedule(16), zeroInt64,
			func(e cluster.Env, lo, hi int, acc *int64) {
				for i := lo; i < hi; i++ {
					*acc += int64(i)
				}
				e.Compute(float64(hi-lo)*100, 0)
			},
			addInt64,
		)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(n) * (n - 1) / 2; got != want {
		t.Fatalf("three-node reduction = %d, want %d", got, want)
	}
}
