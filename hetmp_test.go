package hetmp_test

import (
	"testing"
	"time"

	"hetmp"
)

func TestPublicAPILocalQuickstart(t *testing.T) {
	cl, err := hetmp.NewLocalCluster(hetmp.LocalConfig{NodeCores: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	rt := hetmp.New(cl, hetmp.Options{})
	v := make([]float64, 10000)
	for i := range v {
		v[i] = float64(i)
	}
	var sum float64
	err = rt.Run(func(a *hetmp.App) {
		a.ParallelFor("double", len(v), hetmp.Dynamic(64), func(e hetmp.Env, lo, hi int) {
			for i := lo; i < hi; i++ {
				v[i] *= 2
			}
		})
		sum = hetmp.Reduce(a, "sum", len(v), hetmp.Static(),
			0.0,
			func(e hetmp.Env, lo, hi int, acc float64) float64 {
				for i := lo; i < hi; i++ {
					acc += v[i]
				}
				return acc
			},
			func(x, y float64) float64 { return x + y },
		)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(len(v)) * float64(len(v)-1) // Σ 2i = n(n-1)
	if sum != want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
}

func TestPublicAPISimHetProbe(t *testing.T) {
	plat := hetmp.PaperPlatform(1.0 / 64)
	plat.Nodes[0].Cores = 4
	plat.Nodes[1].Cores = 12
	cl, err := hetmp.NewSimCluster(hetmp.SimConfig{Platform: plat, Protocol: hetmp.RDMA(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt := hetmp.New(cl, hetmp.Options{})
	err = rt.Run(func(a *hetmp.App) {
		a.ParallelFor("work", 3200, hetmp.HetProbe(), func(e hetmp.Env, lo, hi int) {
			e.Compute(float64(hi-lo)*50_000, 0.5)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	d, ok := rt.Decision("work")
	if !ok {
		t.Fatal("no HetProbe decision recorded")
	}
	if !d.CrossNode {
		t.Fatalf("compute-heavy region should run cross-node: %s", d)
	}
	if cl.Elapsed() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestPublicAPICalibration(t *testing.T) {
	plat := hetmp.PaperPlatform(1.0 / 64)
	plat.Nodes[0].Cores = 2
	plat.Nodes[1].Cores = 6
	mk := func() (hetmp.Cluster, error) {
		return hetmp.NewSimCluster(hetmp.SimConfig{Platform: plat, Protocol: hetmp.RDMA(), Seed: 1})
	}
	points, err := hetmp.Calibrate(mk, []float64{1, 64, 4096, 262144})
	if err != nil {
		t.Fatal(err)
	}
	th, err := hetmp.DeriveThreshold(mk)
	if err != nil {
		t.Fatal(err)
	}
	if th <= 0 || th > time.Second {
		t.Fatalf("implausible threshold %v", th)
	}
	if points[len(points)-1].Throughput <= points[0].Throughput {
		t.Fatal("throughput curve did not rise")
	}
}

func TestPublicAPISpecs(t *testing.T) {
	if hetmp.Xeon().Cores != 16 || hetmp.ThunderX().Cores != 96 {
		t.Fatal("paper node specs wrong (Table 1: 16 + 96 hardware threads)")
	}
	if hetmp.RDMA().Name != "rdma" || hetmp.TCPIP().Name != "tcpip" {
		t.Fatal("interconnect specs misnamed")
	}
	p := hetmp.PaperPlatform(1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}
