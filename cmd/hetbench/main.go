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

	"hetmp/internal/experiments"
	"hetmp/internal/interconnect"
	"hetmp/internal/machine"
	"hetmp/internal/runconfig"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
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

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hetbench", flag.ExitOnError)
	fs.SetOutput(stderr)
	sim := runconfig.Register(fs, false)
	var (
		only     = fs.String("run", "", "comma-separated experiments: fig1,fig4,tbl2,tbl3,fig6,fig7,fig8,fig9,overhead,ablation (default: all)")
		setup    = fs.Bool("setup", false, "print the simulated platform (Table 1) and exit")
		jsonOut  = fs.String("json", "", `also write results as JSON to this file ("-" = stdout; durations are nanoseconds)`)
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "max experiment runs in flight; results are byte-identical to -parallel 1")
	)
	fs.Parse(args)
	// With -json - standard output carries the JSON and nothing else.
	text := stdout
	if *jsonOut == "-" {
		text = stderr
	}
	return sim.Run(text, func(s *experiments.Suite, _ interconnect.Spec) error {
		if *setup {
			printSetup(stdout)
			return nil
		}
		s.Parallel = *parallel
		if s.ChaosProfile != "" {
			fmt.Fprintf(text, "chaos profile %s (seed %d) active for every run\n\n", s.ChaosProfile, s.ChaosSeed)
		}
		if s.DecisionStore != "" {
			fmt.Fprintf(text, "decision store %s active for every HetProbe run\n\n", s.DecisionStore)
		}
		rep, err := s.Report(*only, text)
		if err != nil {
			return err
		}
		if *jsonOut != "" {
			return writeReport(rep, *jsonOut, stdout)
		}
		return nil
	})
}

func printSetup(w io.Writer) {
	p := machine.PaperPlatform(1)
	fmt.Fprintln(w, "Table 1 — simulated experimental setup")
	for _, n := range p.Nodes {
		fmt.Fprintf(w, "  %-9s %s, %d cores @ %.1f GHz (boost %.1f), LLC %d MB (%d-level), mem %.0f GB/s, DSM handler %s\n",
			n.Name, n.Arch, n.Cores, n.ClockGHz, n.SerialClockGHz,
			n.Cache.LLCBytes>>20, n.Cache.Levels, n.Mem.BandwidthBytesPerSec/1e9, n.DSMHandlerCost)
	}
	fmt.Fprintln(w, "  Interconnect: 56 Gbps InfiniBand models (RDMA ≈30µs/fault, TCP/IP ≈90–120µs/fault)")
}
