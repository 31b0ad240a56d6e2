// Command microcal runs the paper's Section 3.2 DSM microbenchmark on
// the simulated platform and derives the cross-node profitability
// threshold for a chosen interconnect protocol — the tool the paper
// says "can be re-used to automatically determine the threshold value
// when the interconnect changes".
//
// Usage:
//
//	microcal                  # RDMA, paper platform
//	microcal -protocol tcpip  # TCP/IP
package main

import (
	"flag"
	"fmt"
	"os"

	"hetmp"
	"hetmp/internal/interconnect"
)

func main() {
	var (
		protocol   = flag.String("protocol", "rdma", "interconnect protocol: rdma or tcpip")
		cacheScale = flag.Float64("cache-scale", 1, "platform cache scale factor")
		pages      = flag.Int("pages", 16, "pages touched per remote thread")
		frac       = flag.Float64("frac", 0.25, "break-even fraction of plateau throughput")
	)
	flag.Parse()
	if err := run(*protocol, *cacheScale, *pages, *frac); err != nil {
		fmt.Fprintln(os.Stderr, "microcal:", err)
		os.Exit(1)
	}
}

func run(protocol string, cacheScale float64, pages int, frac float64) error {
	proto, err := interconnect.ByName(protocol)
	if err != nil {
		return err
	}
	mk := func() (hetmp.Cluster, error) {
		return hetmp.NewSimCluster(hetmp.SimConfig{
			Platform: hetmp.PaperPlatform(cacheScale),
			Protocol: proto,
			Seed:     1,
		})
	}
	intensities := []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072}
	points, err := hetmp.Calibrate(mk, intensities, pages)
	if err != nil {
		return err
	}
	fmt.Printf("DSM microbenchmark over %s (Figure 4):\n", protocol)
	fmt.Printf("%12s %16s %16s\n", "ops/byte", "Mops/s", "µs/fault")
	for _, p := range points {
		fmt.Printf("%12.0f %16.1f %16.1f\n", p.OpsPerByte, p.Throughput/1e6, float64(p.FaultPeriod)/1e3)
	}
	th := hetmp.DeriveThreshold(points, frac)
	fmt.Printf("\ncross-node profitability threshold (at %.0f%% of plateau): %v\n", frac*100, th)
	fmt.Printf("pass this as Options.FaultPeriodThreshold\n")
	return nil
}
