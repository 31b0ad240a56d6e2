package experiments

import (
	"fmt"
	"time"

	"hetmp/internal/cluster"
	"hetmp/internal/core"
	"hetmp/internal/interconnect"
	"hetmp/internal/kernels"
)

// ---------------------------------------------------------------- Fig 1

// Fig1Row is one benchmark of the motivating figure: absolute times on
// Xeon only, ThunderX only and under libHetMP.
type Fig1Row struct {
	Benchmark string
	Xeon      time.Duration
	ThunderX  time.Duration
	HetMP     time.Duration
}

// Figure1 reproduces the motivating example: BT-C is fastest on the
// ThunderX, streamcluster on the Xeon, and lavaMD when using both.
func (s *Suite) Figure1() ([]Fig1Row, error) {
	proto := interconnect.RDMA56()
	benches := []string{"BT-C", "streamcluster", "lavaMD"}
	cfgs := []string{CfgXeon, CfgThunderX, CfgHetProbe}
	// Every (bench, config) run is independent: fan out across the
	// suite's workers, collect into an indexed slice for deterministic
	// assembly.
	times := make([]time.Duration, len(benches)*len(cfgs))
	err := s.forEach(len(times), func(i int) error {
		res, err := s.Run(benches[i/len(cfgs)], cfgs[i%len(cfgs)], proto)
		if err != nil {
			return err
		}
		times[i] = res.Time
		return nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig1Row, len(benches))
	for b, bench := range benches {
		rows[b] = Fig1Row{
			Benchmark: bench,
			Xeon:      times[b*len(cfgs)],
			ThunderX:  times[b*len(cfgs)+1],
			HetMP:     times[b*len(cfgs)+2],
		}
	}
	return rows, nil
}

// ---------------------------------------------------------------- Fig 4

// Fig4Point is one compute intensity of the DSM microbenchmark under
// both protocols.
type Fig4Point struct {
	OpsPerByte float64
	RDMA       core.CalibrationPoint
	TCPIP      core.CalibrationPoint
}

// Figure4 reproduces the microbenchmark curves: throughput (4a) and
// page-fault period (4b) vs compute intensity for RDMA and TCP/IP.
func (s *Suite) Figure4() ([]Fig4Point, error) {
	intensities := []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072}
	protos := []interconnect.Spec{interconnect.RDMA56(), interconnect.TCPIP()}
	curves := make([][]core.CalibrationPoint, len(protos))
	err := s.forEach(len(protos), func(i int) error {
		// The figure shows the real protocols, not the time-scaled ones.
		cfg := s.simConfig("both", protos[i])
		cfg.Protocol = protos[i]
		cfg.Protocol.BatchFaults = s.BatchFaults
		pts, err := calibrate(cfg, intensities)
		if err != nil {
			return err
		}
		curves[i] = pts
		return nil
	})
	if err != nil {
		return nil, err
	}
	points := make([]Fig4Point, len(intensities))
	for i := range intensities {
		points[i] = Fig4Point{OpsPerByte: intensities[i], RDMA: curves[0][i], TCPIP: curves[1][i]}
	}
	return points, nil
}

// ---------------------------------------------------------------- Tbl 2

// Table2Row is one benchmark's HetProbe-computed core speed ratio.
type Table2Row struct {
	Benchmark string
	// CSR is Xeon : ThunderX with ThunderX normalized to 1.
	CSR float64
}

// Table2 reproduces the measured core speed ratios for the four
// cross-node benchmarks (paper: blackscholes 3:1, EP-C 2.5:1, kmeans
// 1:1, lavaMD 3.666:1).
func (s *Suite) Table2() ([]Table2Row, error) {
	proto := interconnect.RDMA56()
	benches := []string{"blackscholes", "EP-C", "kmeans", "lavaMD"}
	rows := make([]Table2Row, len(benches))
	err := s.forEach(len(benches), func(i int) error {
		csr, err := s.csrFor(benches[i], proto)
		if err != nil {
			return err
		}
		ratio := 0.0
		if csr[1] > 0 {
			ratio = csr[0] / csr[1]
		}
		rows[i] = Table2Row{Benchmark: benches[i], CSR: ratio}
		return nil
	})
	return rows, err
}

// ---------------------------------------------------------------- Tbl 3

// Table3Row is one benchmark's baseline (Xeon, 16 threads, static)
// execution time.
type Table3Row struct {
	Benchmark string
	Time      time.Duration
}

// Table3 reproduces the baseline execution-time table.
func (s *Suite) Table3() ([]Table3Row, error) {
	rows := make([]Table3Row, len(kernels.PaperOrder))
	err := s.forEach(len(kernels.PaperOrder), func(i int) error {
		res, err := s.Run(kernels.PaperOrder[i], CfgXeon, interconnect.RDMA56())
		if err != nil {
			return err
		}
		rows[i] = Table3Row{Benchmark: kernels.PaperOrder[i], Time: res.Time}
		return nil
	})
	return rows, err
}

// ---------------------------------------------------------------- Fig 6

// Fig6Row is one benchmark's result across all work-distribution
// configurations.
type Fig6Row struct {
	Benchmark string
	Times     map[string]time.Duration
	// Speedup is vs the Xeon configuration (values < 1 are slowdowns).
	Speedup map[string]float64
	// Best is the fastest configuration (the figure's asterisk).
	Best string
}

// Fig6 is the whole main-results figure.
type Fig6 struct {
	Rows []Fig6Row
	// Geomean per configuration, plus "Oracle" (best-per-benchmark).
	Geomean map[string]float64
}

// Figure6 reproduces the paper's main result: per-benchmark speedups
// of every configuration against Xeon-only execution.
func (s *Suite) Figure6() (Fig6, error) {
	proto := interconnect.RDMA56()
	out := Fig6{Geomean: make(map[string]float64)}
	ratios := make(map[string][]float64)
	var oracleRatios []float64
	// The full benchmark × configuration grid fans out; derived
	// speedups, bests and geomeans are assembled sequentially from the
	// indexed times, so the result is identical to a sequential pass.
	grid := make([]time.Duration, len(kernels.PaperOrder)*len(Configs))
	err := s.forEach(len(grid), func(i int) error {
		res, err := s.Run(kernels.PaperOrder[i/len(Configs)], Configs[i%len(Configs)], proto)
		if err != nil {
			return err
		}
		grid[i] = res.Time
		return nil
	})
	if err != nil {
		return Fig6{}, err
	}
	for b, bench := range kernels.PaperOrder {
		row := Fig6Row{
			Benchmark: bench,
			Times:     make(map[string]time.Duration, len(Configs)),
			Speedup:   make(map[string]float64, len(Configs)),
		}
		for c, cfg := range Configs {
			row.Times[cfg] = grid[b*len(Configs)+c]
		}
		base := row.Times[CfgXeon]
		best, bestSp := CfgXeon, 1.0
		for _, cfg := range Configs {
			sp := float64(base) / float64(row.Times[cfg])
			row.Speedup[cfg] = sp
			ratios[cfg] = append(ratios[cfg], sp)
			if sp > bestSp {
				best, bestSp = cfg, sp
			}
		}
		row.Best = best
		oracleRatios = append(oracleRatios, bestSp)
		out.Rows = append(out.Rows, row)
	}
	for cfg, vals := range ratios {
		out.Geomean[cfg] = geomean(vals)
	}
	out.Geomean["Oracle"] = geomean(oracleRatios)
	return out, nil
}

// ---------------------------------------------------------------- Fig 7

// Fig7Row is one benchmark's measured page-fault period and the
// resulting cross-node verdict.
type Fig7Row struct {
	Benchmark   string
	Region      string
	FaultPeriod time.Duration
	CrossNode   bool
}

// Figure7 reproduces the fault-period chart that drives the cross-node
// decision.
func (s *Suite) Figure7() ([]Fig7Row, time.Duration, error) {
	proto := interconnect.RDMA56()
	th, err := s.Threshold(proto)
	if err != nil {
		return nil, 0, err
	}
	rows := make([]Fig7Row, len(kernels.PaperOrder))
	err = s.forEach(len(kernels.PaperOrder), func(i int) error {
		bench := kernels.PaperOrder[i]
		decs, err := s.hetProbeDecisions(bench, proto)
		if err != nil {
			return err
		}
		region, d, ok := mainDecision(decs)
		if !ok {
			return fmt.Errorf("experiments: %s recorded no probe decision", bench)
		}
		rows[i] = Fig7Row{
			Benchmark:   bench,
			Region:      region,
			FaultPeriod: d.FaultPeriod,
			CrossNode:   d.CrossNode,
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return rows, th, nil
}

// ---------------------------------------------------------------- Fig 8

// Fig8Row is one single-node benchmark's cache-miss metric and chosen
// node.
type Fig8Row struct {
	Benchmark      string
	MissesPerKinst float64
	Node           string
}

// Figure8 reproduces the node-selection chart: misses per
// kilo-instruction for the benchmarks HetProbe keeps on a single node.
func (s *Suite) Figure8() ([]Fig8Row, float64, error) {
	proto := interconnect.RDMA56()
	candidates := make([]*Fig8Row, len(kernels.PaperOrder))
	err := s.forEach(len(kernels.PaperOrder), func(i int) error {
		bench := kernels.PaperOrder[i]
		decs, err := s.hetProbeDecisions(bench, proto)
		if err != nil {
			return err
		}
		_, d, ok := mainDecision(decs)
		if !ok || d.CrossNode {
			return nil
		}
		name := "Xeon"
		if d.Node == 1 {
			name = "ThunderX"
		}
		candidates[i] = &Fig8Row{Benchmark: bench, MissesPerKinst: d.MissesPerKinst, Node: name}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	var rows []Fig8Row
	for _, r := range candidates {
		if r != nil {
			rows = append(rows, *r)
		}
	}
	return rows, core.MissThreshold, nil
}

// ---------------------------------------------------------------- Fig 9

// Fig9Row is one point of the TCP/IP case study: blackscholes with a
// growing number of pricing rounds.
type Fig9Row struct {
	Rounds      int
	Homogeneous time.Duration
	HetProbe    time.Duration
	FaultPeriod time.Duration
	CrossNode   bool
}

// Figure9 reproduces the TCP/IP case study: as rounds grow, data
// settling raises the fault period past the (much higher) TCP/IP
// threshold and cross-node execution starts to pay off.
func (s *Suite) Figure9() ([]Fig9Row, time.Duration, error) {
	proto := interconnect.TCPIP()
	th, err := s.Threshold(proto)
	if err != nil {
		return nil, 0, err
	}
	allRounds := []int{1, 2, 4, 8, 16, 32}
	rows := make([]Fig9Row, len(allRounds))
	err = s.forEach(len(allRounds), func(i int) error {
		rounds := allRounds[i]
		homog, err := s.runBlackscholesRounds(rounds, "xeon", proto, th)
		if err != nil {
			return err
		}
		het, err := s.runBlackscholesRounds(rounds, "both", proto, th)
		if err != nil {
			return err
		}
		_, d, _ := mainDecision(het.Decisions)
		rows[i] = Fig9Row{
			Rounds:      rounds,
			Homogeneous: homog.Time,
			HetProbe:    het.Time,
			FaultPeriod: d.FaultPeriod,
			CrossNode:   d.CrossNode,
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return rows, th, nil
}

func (s *Suite) runBlackscholesRounds(rounds int, which string, proto interconnect.Spec, th time.Duration) (Result, error) {
	k := kernels.NewBlackscholesRounds(s.Scale, rounds)
	cfg := s.simConfig(which, proto)
	cfg.Jitter = true // the paper notes TCP/IP results are noisy
	cl, err := cluster.NewSim(cfg)
	if err != nil {
		return Result{}, err
	}
	sched := core.Schedule(core.HetProbeSchedule())
	if which == "xeon" {
		sched = core.StaticSchedule()
	}
	rt := core.New(cl, core.Options{FaultPeriodThreshold: th})
	if err := rt.Run(func(a *core.App) { k.Run(a, kernels.Fixed(sched)) }); err != nil {
		return Result{}, err
	}
	if s.Verify {
		if err := k.Verify(); err != nil {
			return Result{}, err
		}
	}
	return Result{Time: cl.Elapsed(), Faults: cl.DSMFaults(), Decisions: rt.Decisions()}, nil
}

// ------------------------------------------------------ probe overhead

// OverheadRow is one benchmark's HetProbe probing overhead vs its
// functional equivalent (Ideal CSR for cross-node benchmarks, the
// chosen single node for the others) — Section 5's 5.5% / 6.1% numbers.
type OverheadRow struct {
	Benchmark string
	Baseline  string
	Overhead  float64 // fraction, e.g. 0.052 = 5.2%
}

// ProbeOverhead derives the probing overhead from Figure 6 data.
func ProbeOverhead(fig Fig6) []OverheadRow {
	rows := make([]OverheadRow, 0, len(fig.Rows))
	for _, r := range fig.Rows {
		het := r.Times[CfgHetProbe]
		// Functional equivalent after probing.
		base, name := r.Times[CfgIdealCSR], CfgIdealCSR
		if x := r.Times[CfgXeon]; x < base {
			base, name = x, CfgXeon
		}
		if t := r.Times[CfgThunderX]; t < base {
			base, name = t, CfgThunderX
		}
		rows = append(rows, OverheadRow{
			Benchmark: r.Benchmark,
			Baseline:  name,
			Overhead:  float64(het-base) / float64(base),
		})
	}
	return rows
}

// ------------------------------------------------------------ ablations

// AblationRow compares a design choice against its ablation.
type AblationRow struct {
	Variant string
	Time    time.Duration
	Faults  int64
}

// AblationHierarchy quantifies the two-level thread hierarchy: the
// kmeans benchmark under the hierarchical dynamic scheduler vs the
// flat ablation (every thread synchronizing and grabbing work
// globally).
func (s *Suite) AblationHierarchy() ([]AblationRow, error) {
	proto := interconnect.RDMA56()
	th, err := s.Threshold(proto)
	if err != nil {
		return nil, err
	}
	variants := []bool{false, true}
	rows := make([]AblationRow, len(variants))
	err = s.forEach(len(variants), func(i int) error {
		flat := variants[i]
		k, err := kernels.New("kmeans", s.Scale)
		if err != nil {
			return err
		}
		cl, err := cluster.NewSim(s.simConfig("both", proto))
		if err != nil {
			return err
		}
		rt := core.New(cl, core.Options{FaultPeriodThreshold: th, FlatHierarchy: flat})
		if err := rt.Run(func(a *core.App) {
			k.Run(a, kernels.Fixed(core.DynamicSchedule(dynChunks["kmeans"])))
		}); err != nil {
			return err
		}
		name := "two-level hierarchy"
		if flat {
			name = "flat (ablation)"
		}
		rows[i] = AblationRow{Variant: name, Time: cl.Elapsed(), Faults: cl.DSMFaults()}
		return nil
	})
	return rows, err
}

// AblationSettling quantifies deterministic probe distribution:
// repeated blackscholes regions with deterministic vs rotated probe
// assignment.
func (s *Suite) AblationSettling() ([]AblationRow, error) {
	proto := interconnect.RDMA56()
	th, err := s.Threshold(proto)
	if err != nil {
		return nil, err
	}
	variants := []bool{false, true}
	rows := make([]AblationRow, len(variants))
	err = s.forEach(len(variants), func(i int) error {
		random := variants[i]
		k := kernels.NewBlackscholesRounds(s.Scale, 12)
		cl, err := cluster.NewSim(s.simConfig("both", proto))
		if err != nil {
			return err
		}
		rt := core.New(cl, core.Options{
			FaultPeriodThreshold: th,
			RandomProbe:          random,
			ProbeMaxInvocations:  100, // keep probing so the assignment keeps rotating
		})
		if err := rt.Run(func(a *core.App) {
			k.Run(a, kernels.Fixed(core.HetProbeSchedule()))
		}); err != nil {
			return err
		}
		name := "deterministic probe"
		if random {
			name = "rotated probe (ablation)"
		}
		rows[i] = AblationRow{Variant: name, Time: cl.Elapsed(), Faults: cl.DSMFaults()}
		return nil
	})
	return rows, err
}

// FormatDuration renders virtual times the way the reports print them.
func FormatDuration(d time.Duration) string {
	if d == time.Duration(1<<63-1) {
		return "∞"
	}
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/1e3)
	}
}
