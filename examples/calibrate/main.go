// Calibrate: derive the cross-node profitability threshold for a
// platform, following the paper's Section 3.2 procedure: run the DSM
// microbenchmark across compute intensities, find the break-even knee,
// and read off the page-fault period to use as the HetProbe threshold.
package main

import (
	"fmt"
	"log"

	"hetmp"
)

func main() {
	for _, proto := range []hetmp.InterconnectSpec{hetmp.RDMA(), hetmp.TCPIP()} {
		mk := func() (hetmp.Cluster, error) {
			return hetmp.NewSimCluster(hetmp.SimConfig{
				Platform: hetmp.PaperPlatform(1.0 / 8),
				Protocol: proto,
				Seed:     1,
			})
		}
		points, err := hetmp.Calibrate(mk, []float64{1, 8, 64, 512, 4096, 32768, 262144})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", proto.Name)
		for _, p := range points {
			fmt.Printf("  %8.0f ops/byte  %10.1f Mops/s  %10.1f µs/fault\n",
				p.OpsPerByte, p.Throughput/1e6, float64(p.FaultPeriod)/1e3)
		}
		threshold, err := hetmp.DeriveThreshold(mk)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  → threshold: %v (Options.FaultPeriodThreshold)\n\n", threshold)
	}
}
