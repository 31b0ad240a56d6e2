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
		err = run(*quick, *only, *setup, *scale, *jsonOut, *chaosProfile, *chaosSeed, *parallel, *batch, *decisionStore)
		if perr := stop(); err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetbench:", err)
		os.Exit(1)
	}
}

// Report is the -json output: one entry per selected experiment, keyed
// by the -run names. time.Duration fields serialize as nanoseconds.
type Report struct {
	Fig1     []experiments.Fig1Row                `json:"fig1,omitempty"`
	Fig4     []experiments.Fig4Point              `json:"fig4,omitempty"`
	Tbl2     []experiments.Table2Row              `json:"tbl2,omitempty"`
	Tbl3     []experiments.Table3Row              `json:"tbl3,omitempty"`
	Fig6     *experiments.Fig6                    `json:"fig6,omitempty"`
	Fig7     *Fig7Report                          `json:"fig7,omitempty"`
	Fig8     *Fig8Report                          `json:"fig8,omitempty"`
	Fig9     *Fig9Report                          `json:"fig9,omitempty"`
	Overhead []experiments.OverheadRow            `json:"overhead,omitempty"`
	Ablation map[string][]experiments.AblationRow `json:"ablation,omitempty"`
}

// Fig7Report pairs the fault-period rows with the threshold they are
// judged against.
type Fig7Report struct {
	Rows      []experiments.Fig7Row `json:"rows"`
	Threshold int64                 `json:"threshold_ns"`
}

// Fig8Report pairs the miss-rate rows with the node-selection
// threshold.
type Fig8Report struct {
	Rows      []experiments.Fig8Row `json:"rows"`
	Threshold float64               `json:"misses_per_kinst_threshold"`
}

// Fig9Report pairs the TCP/IP case-study rows with that protocol's
// threshold.
type Fig9Report struct {
	Rows      []experiments.Fig9Row `json:"rows"`
	Threshold int64                 `json:"threshold_ns"`
}

func writeReport(rep *Report, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("JSON report written to %s\n", path)
	return nil
}

func run(quick bool, only string, setup bool, scale float64, jsonOut, chaosProfile string, chaosSeed int64, parallel int, batch bool, decisionStore string) error {
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
	if chaosProfile != "" {
		fmt.Printf("chaos profile %s (seed %d) active for every run\n\n", chaosProfile, chaosSeed)
	}
	if decisionStore != "" {
		fmt.Printf("decision store %s active for every HetProbe run\n\n", decisionStore)
	}

	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	selected := func(name string) bool { return len(want) == 0 || want[name] }

	var rep Report
	if selected("fig1") {
		rows, err := s.Figure1()
		if err != nil {
			return err
		}
		rep.Fig1 = rows
		fmt.Println(experiments.RenderFigure1(rows))
	}
	if selected("fig4") {
		points, err := s.Figure4()
		if err != nil {
			return err
		}
		rep.Fig4 = points
		fmt.Println(experiments.RenderFigure4(points))
	}
	if selected("tbl2") {
		rows, err := s.Table2()
		if err != nil {
			return err
		}
		rep.Tbl2 = rows
		fmt.Println(experiments.RenderTable2(rows))
	}
	if selected("tbl3") {
		rows, err := s.Table3()
		if err != nil {
			return err
		}
		rep.Tbl3 = rows
		fmt.Println(experiments.RenderTable3(rows))
	}
	var fig6 experiments.Fig6
	haveFig6 := false
	if selected("fig6") || selected("overhead") {
		var err error
		fig6, err = s.Figure6()
		if err != nil {
			return err
		}
		haveFig6 = true
	}
	if selected("fig6") {
		rep.Fig6 = &fig6
		fmt.Println(experiments.RenderFigure6(fig6))
	}
	if selected("fig7") {
		rows, th, err := s.Figure7()
		if err != nil {
			return err
		}
		rep.Fig7 = &Fig7Report{Rows: rows, Threshold: int64(th)}
		fmt.Println(experiments.RenderFigure7(rows, th))
	}
	if selected("fig8") {
		rows, th, err := s.Figure8()
		if err != nil {
			return err
		}
		rep.Fig8 = &Fig8Report{Rows: rows, Threshold: th}
		fmt.Println(experiments.RenderFigure8(rows, th))
	}
	if selected("fig9") {
		rows, th, err := s.Figure9()
		if err != nil {
			return err
		}
		rep.Fig9 = &Fig9Report{Rows: rows, Threshold: int64(th)}
		fmt.Println(experiments.RenderFigure9(rows, th))
	}
	if selected("overhead") && haveFig6 {
		rep.Overhead = experiments.ProbeOverhead(fig6)
		fmt.Println(experiments.RenderOverheads(rep.Overhead))
	}
	if selected("ablation") {
		rows, err := s.AblationHierarchy()
		if err != nil {
			return err
		}
		rep.Ablation = map[string][]experiments.AblationRow{"hierarchy": rows}
		fmt.Println(experiments.RenderAblation("Ablation — two-level thread hierarchy (kmeans, cross-node dynamic)", rows))
		rows, err = s.AblationSettling()
		if err != nil {
			return err
		}
		rep.Ablation["settling"] = rows
		fmt.Println(experiments.RenderAblation("Ablation — deterministic probe distribution (blackscholes, 12 rounds)", rows))
	}
	if jsonOut != "" {
		return writeReport(&rep, jsonOut)
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
