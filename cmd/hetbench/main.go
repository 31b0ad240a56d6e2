// Command hetbench runs the paper's full evaluation (every table and
// figure of Section 5) on the simulated Xeon + ThunderX platform and
// prints the results as text tables.
//
// Usage:
//
//	hetbench                 # the whole evaluation, full-size
//	hetbench -quick          # reduced sizes (seconds instead of minutes)
//	hetbench -run fig6,tbl2  # selected experiments only
//	hetbench -setup          # print the platform (Table 1)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"hetmp/internal/chaos"
	"hetmp/internal/experiments"
	"hetmp/internal/machine"
	"hetmp/internal/profiling"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "run reduced problem sizes on a smaller platform")
		only    = flag.String("run", "", "comma-separated experiments: fig1,fig4,tbl2,tbl3,fig6,fig7,fig8,fig9,overhead,ablation (default: all)")
		setup   = flag.Bool("setup", false, "print the simulated platform (Table 1) and exit")
		scale   = flag.Float64("scale", 0, "override the benchmark scale factor")
		jsonOut = flag.String("json", "", `also write results as JSON to this file ("-" = stdout; durations are nanoseconds)`)

		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "max experiment runs in flight; results are byte-identical to -parallel 1")
		batch    = flag.Bool("batch-faults", false, "enable the DSM's batched-fault protocol in every run and in calibration")

		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole evaluation to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (post-GC, at exit) to this file")

		chaosProfile = flag.String("chaos-profile", "", "inject a named degradation profile into every run: "+strings.Join(chaos.Profiles(), " | "))
		chaosSeed    = flag.Int64("chaos-seed", 1, "seed for the chaos schedule; same seed = same degradation, bit for bit")

		decisionStore = flag.String("decision-store", "", "directory of persistent HetProbe decision stores: seed decisions from prior runs (skipping the probing period) and save learned ones back")
	)
	flag.Parse()
	stop, err := profiling.Start(*cpuProfile, *memProfile)
	if err == nil {
		err = run(*quick, *only, *setup, *scale, *jsonOut, *chaosProfile, *chaosSeed, *parallel, *batch, *decisionStore, os.Stdout, os.Stderr)
		if perr := stop(); err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetbench:", err)
		os.Exit(1)
	}
}

// writeReport writes the -json output; internal/experiments' golden
// test compares against exactly these bytes.
func writeReport(rep *experiments.Report, path string, stdout io.Writer) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "JSON report written to %s\n", path)
	return nil
}

func run(quick bool, only string, setup bool, scale float64, jsonOut, chaosProfile string, chaosSeed int64, parallel int, batch bool, decisionStore string, stdout, stderr io.Writer) error {
	if scale < 0 {
		return fmt.Errorf("-scale %g is negative", scale)
	}
	if setup {
		printSetup()
		return nil
	}
	s := experiments.Default()
	if quick {
		s = experiments.Quick()
	}
	if scale > 0 {
		s.Scale = scale
	}
	s.ChaosProfile = chaosProfile
	s.ChaosSeed = chaosSeed
	s.Parallel = parallel
	s.BatchFaults = batch
	s.DecisionStore = decisionStore
	// With -json - standard output carries the JSON and nothing else.
	text := stdout
	if jsonOut == "-" {
		text = stderr
	}
	if chaosProfile != "" {
		fmt.Fprintf(text, "chaos profile %s (seed %d) active for every run\n\n", chaosProfile, chaosSeed)
	}
	if decisionStore != "" {
		fmt.Fprintf(text, "decision store %s active for every HetProbe run\n\n", decisionStore)
	}
	rep, err := s.Report(only, text)
	if err != nil {
		return err
	}
	if jsonOut != "" {
		return writeReport(rep, jsonOut, stdout)
	}
	return nil
}

func printSetup() {
	p := machine.PaperPlatform(1)
	fmt.Println("Table 1 — simulated experimental setup")
	for _, n := range p.Nodes {
		fmt.Printf("  %-9s %s, %d cores @ %.1f GHz (boost %.1f), LLC %d MB (%d-level), mem %.0f GB/s, DSM handler %s\n",
			n.Name, n.Arch, n.Cores, n.ClockGHz, n.SerialClockGHz,
			n.Cache.LLCBytes>>20, n.Cache.Levels, n.Mem.BandwidthBytesPerSec/1e9, n.DSMHandlerCost)
	}
	fmt.Println("  Interconnect: 56 Gbps InfiniBand models (RDMA ≈30µs/fault, TCP/IP ≈90–120µs/fault)")
}
