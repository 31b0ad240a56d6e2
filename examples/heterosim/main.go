// Heterosim: the paper's scenario end to end. Simulate the Xeon +
// ThunderX platform with its page-granularity DSM, run two workloads
// with opposite communication profiles under the HetProbe scheduler,
// and watch it choose cross-node execution for one and single-node
// execution for the other (Sections 3 and 5 of the paper).
package main

import (
	"fmt"
	"log"

	"hetmp"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	platform := hetmp.PaperPlatform(1.0 / 8) // scale-model caches

	// Derive the cross-node profitability threshold for this platform
	// with the paper's microbenchmark (Section 3.2) — the step a real
	// deployment runs once per (architecture, interconnect) pair.
	threshold, err := hetmp.DeriveThreshold(func() (hetmp.Cluster, error) {
		return hetmp.NewSimCluster(hetmp.SimConfig{Platform: platform, Protocol: hetmp.RDMA(), Seed: 1})
	})
	if err != nil {
		return err
	}
	fmt.Printf("calibrated cross-node threshold: %v\n\n", threshold)

	cl, err := hetmp.NewSimCluster(hetmp.SimConfig{
		Platform: platform,
		Protocol: hetmp.RDMA(),
		Seed:     1,
	})
	if err != nil {
		return err
	}
	rt := hetmp.New(cl, hetmp.Options{
		FaultPeriodThreshold: threshold,
		Logf:                 func(f string, args ...any) { fmt.Printf("  [runtime] "+f+"\n", args...) },
	})

	const n = 200_000
	shared := cl.Alloc("results", int64(n/512)*4096, 0)

	return rt.Run(func(a *hetmp.App) {
		fmt.Println("== compute-heavy region (EP-like): expect a cross-node decision ==")
		a.ParallelFor("compute-heavy", n, hetmp.HetProbe(), func(e hetmp.Env, lo, hi int) {
			e.Compute(float64(hi-lo)*20_000, 0.3)
		})
		d, _ := rt.Decision("compute-heavy")
		fmt.Printf("  decision: %s\n\n", d)

		fmt.Println("== communication-heavy region (streaming writes): expect single-node ==")
		a.ParallelFor("comm-heavy", n/512, hetmp.HetProbe(), func(e hetmp.Env, lo, hi int) {
			// Each iteration dirties a whole page but computes little:
			// no way to amortize the transfer costs.
			e.Store(shared, int64(lo)*4096, int64(hi-lo)*4096)
			e.Compute(float64(hi-lo)*100, 0.3)
		})
		d2, _ := rt.Decision("comm-heavy")
		fmt.Printf("  decision: %s\n\n", d2)

		specs := cl.NodeSpecs()
		fmt.Printf("platform: %s (%d cores) + %s (%d cores), %d DSM faults total, %v model time\n",
			specs[0].Name, specs[0].Cores, specs[1].Name, specs[1].Cores,
			cl.DSMFaults(), a.Env().Now())
	})
}
