package kernels

import (
	"fmt"
	"testing"

	"hetmp/internal/cluster"
	"hetmp/internal/core"
	"hetmp/internal/interconnect"
	"hetmp/internal/machine"
)

// testPlatform is a scaled-down paper platform: fewer cores so the
// simulations stay fast, caches scaled with the kernels' scale-model
// footprints.
func testPlatform() machine.Platform {
	xeon := machine.XeonE5_2620v4().ScaleCaches(0.25 / 8)
	xeon.Cores = 4
	tx := machine.ThunderX().ScaleCaches(0.25 / 8)
	tx.Cores = 12
	return machine.Platform{Nodes: []machine.NodeSpec{xeon, tx}, Origin: 0}
}

func runKernel(t *testing.T, name string, scale float64, sched core.Schedule) Kernel {
	t.Helper()
	k, err := simulateKernel(name, scale, sched)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// simulateKernel is runKernel for any goroutine: it returns what
// runKernel fails on.
func simulateKernel(name string, scale float64, sched core.Schedule) (Kernel, error) {
	k, err := New(name, scale)
	if err != nil {
		return nil, err
	}
	cl, err := cluster.NewSim(cluster.SimConfig{
		Platform: testPlatform(),
		Protocol: interconnect.RDMA56(),
		Seed:     1,
	})
	if err != nil {
		return nil, err
	}
	rt := core.New(cl, core.Options{})
	if err := rt.Run(func(a *core.App) { k.Run(a, Fixed(sched)) }); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if cl.Elapsed() <= 0 {
		return nil, fmt.Errorf("%s: no virtual time elapsed", name)
	}
	return k, nil
}

// TestAllKernelsVerifyUnderStatic runs every benchmark at a reduced
// scale under the static scheduler and checks its numerical results.
func TestAllKernelsVerifyUnderStatic(t *testing.T) {
	for _, name := range PaperOrder {
		name := name
		t.Run(name, func(t *testing.T) {
			k := runKernel(t, name, 0.25, core.StaticSchedule())
			if err := k.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKernelsVerifyUnderDynamic spot-checks result correctness under
// the hierarchical dynamic scheduler (nondeterministic mapping must
// not change results).
func TestKernelsVerifyUnderDynamic(t *testing.T) {
	for _, name := range []string{"blackscholes", "EP-C", "kmeans", "CG-C"} {
		name := name
		t.Run(name, func(t *testing.T) {
			k := runKernel(t, name, 0.2, core.DynamicSchedule(8))
			if err := k.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKernelsVerifyUnderHetProbe spot-checks correctness when HetProbe
// splits regions into probe + remainder phases.
func TestKernelsVerifyUnderHetProbe(t *testing.T) {
	for _, name := range []string{"blackscholes", "EP-C", "lavaMD", "lud", "streamcluster"} {
		name := name
		t.Run(name, func(t *testing.T) {
			k := runKernel(t, name, 0.2, core.HetProbeSchedule())
			if err := k.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) != 10 {
		t.Fatalf("registered %d benchmarks, want 10: %v", len(names), names)
	}
	for _, n := range PaperOrder {
		if _, err := New(n, 1); err != nil {
			t.Errorf("paper benchmark %q missing: %v", n, err)
		}
	}
	if _, err := New("nonsense", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestVerifyBeforeRunFails(t *testing.T) {
	for _, name := range PaperOrder {
		k, err := New(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.Verify(); err == nil {
			t.Errorf("%s: Verify passed before Run", name)
		}
	}
}

func TestKernelOnLocalBackend(t *testing.T) {
	// The kernels are real computations: they must run (and verify) on
	// plain goroutines too.
	k, err := New("blackscholes", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.NewLocal(cluster.LocalConfig{NodeCores: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	rt := core.New(cl, core.Options{})
	if err := rt.Run(func(a *core.App) { k.Run(a, Fixed(core.DynamicSchedule(64))) }); err != nil {
		t.Fatal(err)
	}
	if err := k.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestScaledSizes(t *testing.T) {
	small, _ := New("kmeans", 0.1)
	big, _ := New("kmeans", 1)
	if small.(*kmeansK).n >= big.(*kmeansK).n {
		t.Error("scale did not grow kmeans")
	}
	if s := scaled(100, 0.001, 16); s != 16 {
		t.Errorf("scaled floor = %d, want 16", s)
	}
}
