package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"
	"time"
)

// reportNames are the experiments a Report can hold, in the order
// Suite.Report runs and prints them.
var reportNames = []string{"fig1", "fig4", "tbl2", "tbl3", "fig6", "fig7", "fig8", "fig9", "overhead", "ablation"}

// Report is hetbench's -json output and the golden file's content: one
// entry per selected experiment, keyed by the -run names.
// time.Duration fields serialize as nanoseconds.
type Report struct {
	Fig1     []Fig1Row                `json:"fig1,omitempty"`
	Fig4     []Fig4Point              `json:"fig4,omitempty"`
	Tbl2     []Table2Row              `json:"tbl2,omitempty"`
	Tbl3     []Table3Row              `json:"tbl3,omitempty"`
	Fig6     *Fig6                    `json:"fig6,omitempty"`
	Fig7     *Fig7Report              `json:"fig7,omitempty"`
	Fig8     *Fig8Report              `json:"fig8,omitempty"`
	Fig9     *Fig9Report              `json:"fig9,omitempty"`
	Overhead []OverheadRow            `json:"overhead,omitempty"`
	Ablation map[string][]AblationRow `json:"ablation,omitempty"`
}

// Fig7Report pairs the fault-period rows with the threshold they are
// judged against.
type Fig7Report struct {
	Rows      []Fig7Row `json:"rows"`
	Threshold int64     `json:"threshold_ns"`
}

// Fig8Report pairs the miss-rate rows with the node-selection
// threshold.
type Fig8Report struct {
	Rows      []Fig8Row `json:"rows"`
	Threshold float64   `json:"misses_per_kinst_threshold"`
}

// Fig9Report pairs the TCP/IP case-study rows with that protocol's
// threshold.
type Fig9Report struct {
	Rows      []Fig9Row `json:"rows"`
	Threshold int64     `json:"threshold_ns"`
}

// Report runs the experiments named in only (comma-separated
// reportNames; empty selects all of them), printing each one's table to
// text as it completes, and collects their results. A name it does not
// know is an error, returned before anything runs.
func (s *Suite) Report(only string, text io.Writer) (*Report, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		if !slices.Contains(reportNames, name) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(reportNames, " "))
		}
		want[name] = true
	}
	selected := func(name string) bool { return len(want) == 0 || want[name] }

	var rep Report
	var err error
	if selected("fig1") {
		if rep.Fig1, err = s.Figure1(); err != nil {
			return nil, err
		}
		fmt.Fprintln(text, RenderFigure1(rep.Fig1))
	}
	if selected("fig4") {
		if rep.Fig4, err = s.Figure4(); err != nil {
			return nil, err
		}
		fmt.Fprintln(text, RenderFigure4(rep.Fig4))
	}
	if selected("tbl2") {
		if rep.Tbl2, err = s.Table2(); err != nil {
			return nil, err
		}
		fmt.Fprintln(text, RenderTable2(rep.Tbl2))
	}
	if selected("tbl3") {
		if rep.Tbl3, err = s.Table3(); err != nil {
			return nil, err
		}
		fmt.Fprintln(text, RenderTable3(rep.Tbl3))
	}
	// The overhead table is derived from Figure 6's grid: one run of
	// it serves both.
	var fig6 Fig6
	if selected("fig6") || selected("overhead") {
		if fig6, err = s.Figure6(); err != nil {
			return nil, err
		}
	}
	if selected("fig6") {
		rep.Fig6 = &fig6
		fmt.Fprintln(text, RenderFigure6(fig6))
	}
	if selected("fig7") {
		rows, th, err := s.Figure7()
		if err != nil {
			return nil, err
		}
		rep.Fig7 = &Fig7Report{Rows: rows, Threshold: int64(th)}
		fmt.Fprintln(text, RenderFigure7(rows, th))
	}
	if selected("fig8") {
		rows, th, err := s.Figure8()
		if err != nil {
			return nil, err
		}
		rep.Fig8 = &Fig8Report{Rows: rows, Threshold: th}
		fmt.Fprintln(text, RenderFigure8(rows, th))
	}
	if selected("fig9") {
		rows, th, err := s.Figure9()
		if err != nil {
			return nil, err
		}
		rep.Fig9 = &Fig9Report{Rows: rows, Threshold: int64(th)}
		fmt.Fprintln(text, RenderFigure9(rows, th))
	}
	if selected("overhead") {
		rep.Overhead = ProbeOverhead(fig6)
		fmt.Fprintln(text, RenderOverheads(rep.Overhead))
	}
	if selected("ablation") {
		hier, err := s.AblationHierarchy()
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(text, RenderAblation("Ablation — two-level thread hierarchy (kmeans, cross-node dynamic)", hier))
		settle, err := s.AblationSettling()
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(text, RenderAblation("Ablation — deterministic probe distribution (blackscholes, 12 rounds)", settle))
		rep.Ablation = map[string][]AblationRow{"hierarchy": hier, "settling": settle}
	}
	return &rep, nil
}

// table is a tiny helper building aligned text tables.
type table struct {
	sb strings.Builder
	tw *tabwriter.Writer
}

func newTable(title string) *table {
	t := &table{}
	t.sb.WriteString(title + "\n")
	t.tw = tabwriter.NewWriter(&t.sb, 2, 4, 2, ' ', 0)
	return t
}

func (t *table) row(cells ...string) {
	fmt.Fprintln(t.tw, strings.Join(cells, "\t"))
}

func (t *table) String() string {
	t.tw.Flush()
	return t.sb.String()
}

// RenderFigure1 prints the motivating-example table.
func RenderFigure1(rows []Fig1Row) string {
	t := newTable("Figure 1 — motivating example: execution time by placement")
	t.row("benchmark", "Xeon", "ThunderX", "libHetMP", "best")
	for _, r := range rows {
		best := "libHetMP"
		if r.Xeon <= r.ThunderX && r.Xeon <= r.HetMP {
			best = "Xeon"
		} else if r.ThunderX <= r.Xeon && r.ThunderX <= r.HetMP {
			best = "ThunderX"
		}
		t.row(r.Benchmark, FormatDuration(r.Xeon), FormatDuration(r.ThunderX), FormatDuration(r.HetMP), best)
	}
	return t.String()
}

// RenderFigure4 prints the microbenchmark curves.
func RenderFigure4(points []Fig4Point) string {
	t := newTable("Figure 4 — DSM microbenchmark: throughput (4a) and fault period (4b) vs ops/byte")
	t.row("ops/byte", "RDMA Mop/s", "TCP/IP Mop/s", "RDMA µs/fault", "TCP/IP µs/fault")
	for _, p := range points {
		t.row(
			fmt.Sprintf("%.0f", p.OpsPerByte),
			fmt.Sprintf("%.1f", p.RDMA.Throughput/1e6),
			fmt.Sprintf("%.1f", p.TCPIP.Throughput/1e6),
			fmt.Sprintf("%.1f", float64(p.RDMA.FaultPeriod)/1e3),
			fmt.Sprintf("%.1f", float64(p.TCPIP.FaultPeriod)/1e3),
		)
	}
	return t.String()
}

// RenderTable2 prints the measured core speed ratios.
func RenderTable2(rows []Table2Row) string {
	paper := map[string]float64{"blackscholes": 3, "EP-C": 2.5, "kmeans": 1, "lavaMD": 3.666}
	t := newTable("Table 2 — core speed ratios measured by HetProbe (Xeon : ThunderX)")
	t.row("benchmark", "measured", "paper")
	for _, r := range rows {
		t.row(r.Benchmark, fmt.Sprintf("%.2f : 1", r.CSR), fmt.Sprintf("%.3g : 1", paper[r.Benchmark]))
	}
	return t.String()
}

// RenderTable3 prints the Xeon baselines.
func RenderTable3(rows []Table3Row) string {
	t := newTable("Table 3 — baseline execution times (Xeon, 16 threads, static)")
	t.row("benchmark", "model time")
	for _, r := range rows {
		t.row(r.Benchmark, FormatDuration(r.Time))
	}
	return t.String()
}

// RenderFigure6 prints the main-results table.
func RenderFigure6(fig Fig6) string {
	t := newTable("Figure 6 — speedup vs Xeon for every work-distribution configuration")
	header := append([]string{"benchmark"}, Configs...)
	header = append(header, "best")
	t.row(header...)
	for _, r := range fig.Rows {
		cells := []string{r.Benchmark}
		for _, cfg := range Configs {
			mark := ""
			if cfg == r.Best {
				mark = " *"
			}
			cells = append(cells, fmt.Sprintf("%.2fx%s", r.Speedup[cfg], mark))
		}
		cells = append(cells, r.Best)
		t.row(cells...)
	}
	cells := []string{"geomean"}
	for _, cfg := range Configs {
		cells = append(cells, fmt.Sprintf("%.2fx", fig.Geomean[cfg]))
	}
	cells = append(cells, fmt.Sprintf("Oracle %.2fx", fig.Geomean["Oracle"]))
	t.row(cells...)
	return t.String()
}

// RenderFigure7 prints the fault periods against the threshold.
func RenderFigure7(rows []Fig7Row, threshold time.Duration) string {
	t := newTable(fmt.Sprintf("Figure 7 — page-fault periods (cross-node threshold %s)", FormatDuration(threshold)))
	t.row("benchmark", "region", "fault period", "cross-node?")
	for _, r := range rows {
		t.row(r.Benchmark, r.Region, FormatDuration(r.FaultPeriod), fmt.Sprintf("%v", r.CrossNode))
	}
	return t.String()
}

// RenderFigure8 prints the cache-miss node selection.
func RenderFigure8(rows []Fig8Row, threshold float64) string {
	t := newTable(fmt.Sprintf("Figure 8 — LLC misses per kilo-instruction (node threshold %.1f)", threshold))
	t.row("benchmark", "misses/kinst", "chosen node")
	for _, r := range rows {
		t.row(r.Benchmark, fmt.Sprintf("%.2f", r.MissesPerKinst), r.Node)
	}
	return t.String()
}

// RenderFigure9 prints the TCP/IP case study.
func RenderFigure9(rows []Fig9Row, threshold time.Duration) string {
	t := newTable(fmt.Sprintf("Figure 9 — blackscholes over TCP/IP (threshold %s)", FormatDuration(threshold)))
	t.row("rounds", "homogeneous", "HetProbe", "fault period", "cross-node?")
	for _, r := range rows {
		t.row(
			fmt.Sprintf("%d", r.Rounds),
			FormatDuration(r.Homogeneous),
			FormatDuration(r.HetProbe),
			FormatDuration(r.FaultPeriod),
			fmt.Sprintf("%v", r.CrossNode),
		)
	}
	return t.String()
}

// RenderOverheads prints the probing-overhead analysis.
func RenderOverheads(rows []OverheadRow) string {
	t := newTable("Probing overhead — HetProbe vs its post-probe equivalent (paper: geomean ≈5.5% / 6.1%)")
	t.row("benchmark", "baseline", "overhead")
	vals := make([]float64, 0, len(rows))
	for _, r := range rows {
		t.row(r.Benchmark, r.Baseline, fmt.Sprintf("%+.1f%%", r.Overhead*100))
		vals = append(vals, 1+r.Overhead)
	}
	t.row("geomean", "", fmt.Sprintf("%+.1f%%", (geomean(vals)-1)*100))
	return t.String()
}

// RenderAblation prints an ablation comparison.
func RenderAblation(title string, rows []AblationRow) string {
	t := newTable(title)
	t.row("variant", "time", "DSM faults")
	for _, r := range rows {
		t.row(r.Variant, FormatDuration(r.Time), fmt.Sprintf("%d", r.Faults))
	}
	return t.String()
}
