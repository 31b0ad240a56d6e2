package experiments

import (
	"testing"
	"time"

	"hetmp/internal/interconnect"
	"hetmp/internal/kernels"
)

// The paper's qualitative claims, asserted against the reduced suite.
// Absolute numbers are model time; what must hold are the decisions,
// orderings and rough factors (DESIGN.md §3). The rows come from the
// one report golden_test.go computes (quickReport); the exact values
// are pinned there.

// paperDecisions is Figure 7 + Figure 8: which benchmarks HetProbe runs
// across nodes, and where the single-node ones land.
var paperDecisions = map[string]struct {
	crossNode bool
	node      string // for single-node decisions
}{
	"blackscholes":  {crossNode: true},
	"EP-C":          {crossNode: true},
	"kmeans":        {crossNode: true},
	"lavaMD":        {crossNode: true},
	"BT-C":          {crossNode: false, node: "ThunderX"},
	"cfd":           {crossNode: false, node: "ThunderX"},
	"lud":           {crossNode: false, node: "ThunderX"},
	"CG-C":          {crossNode: false, node: "Xeon"},
	"SP-C":          {crossNode: false, node: "Xeon"},
	"streamcluster": {crossNode: false, node: "Xeon"},
}

// TestHetProbeMakesThePaperDecisions is the paper's headline claim:
// "the HetProbe scheduler is able to make the right workload
// distribution choice in all benchmarks".
func TestHetProbeMakesThePaperDecisions(t *testing.T) {
	s, _ := quickReport(t)
	proto := interconnect.RDMA56()
	th, err := s.Threshold(proto)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range kernels.PaperOrder {
		decs, err := s.hetProbeDecisions(bench, proto)
		if err != nil {
			t.Fatal(err)
		}
		_, d, ok := mainDecision(decs)
		if !ok {
			t.Fatalf("%s: no decision", bench)
		}
		want := paperDecisions[bench]
		if d.CrossNode != want.crossNode {
			t.Errorf("%s: cross-node = %v, paper says %v (fault period %v vs threshold %v)",
				bench, d.CrossNode, want.crossNode, d.FaultPeriod, th)
			continue
		}
		if !want.crossNode {
			got := "Xeon"
			if d.Node == 1 {
				got = "ThunderX"
			}
			if got != want.node {
				t.Errorf("%s: placed on %s, paper places it on %s (misses/kinst %.2f)",
					bench, got, want.node, d.MissesPerKinst)
			}
		}
	}
}

// TestTable2CoreSpeedRatios checks the measured CSRs stay in the
// paper's bands (Table 2): compute-bound CSRs between ~2.4 and ~3.8.
// kmeans is a documented deviation (the paper measured 1:1 via a
// ThunderX cache-residency effect our scale model cannot reproduce; see
// EXPERIMENTS.md).
func TestTable2CoreSpeedRatios(t *testing.T) {
	_, rep := quickReport(t)
	want := map[string][2]float64{
		"blackscholes": {2.4, 3.5}, // paper 3:1
		"EP-C":         {2.2, 3.0}, // paper 2.5:1
		"kmeans":       {1.0, 4.0}, // paper 1:1 (documented deviation)
		"lavaMD":       {2.9, 4.2}, // paper 3.666:1
	}
	for _, r := range rep.Tbl2 {
		band := want[r.Benchmark]
		if r.CSR < band[0] || r.CSR > band[1] {
			t.Errorf("%s: CSR %.2f outside band [%.2f, %.2f]", r.Benchmark, r.CSR, band[0], band[1])
		}
	}
}

// TestFigure6Orderings checks the main result's structure: HetProbe is
// the best overall strategy (geomean ordering HetProbe > Ideal CSR >
// Cross-Node Dynamic, and HetProbe ≥ ThunderX-only), cross-node
// benchmarks beat Xeon under cross-node configurations, and the
// catastrophic cross-node slowdowns for communication-bound benchmarks
// appear.
func TestFigure6Orderings(t *testing.T) {
	_, rep := quickReport(t)
	fig := *rep.Fig6
	g := fig.Geomean
	if !(g[CfgHetProbe] > g[CfgIdealCSR] && g[CfgIdealCSR] > g[CfgCrossDyn]) {
		t.Errorf("geomean ordering violated: HetProbe %.2f, Ideal %.2f, CrossDyn %.2f",
			g[CfgHetProbe], g[CfgIdealCSR], g[CfgCrossDyn])
	}
	if g[CfgHetProbe] < g[CfgThunderX] {
		t.Errorf("HetProbe geomean (%.2f) below ThunderX-only (%.2f)", g[CfgHetProbe], g[CfgThunderX])
	}
	if g["Oracle"] < g[CfgHetProbe] {
		t.Errorf("Oracle (%.2f) below HetProbe (%.2f)?!", g["Oracle"], g[CfgHetProbe])
	}

	byName := make(map[string]Fig6Row, len(fig.Rows))
	for _, r := range fig.Rows {
		byName[r.Benchmark] = r
	}
	// Cross-node benchmarks: Ideal CSR beats Xeon-only; paper's up-to
	// factors (EP ≈ 2.3×, lavaMD ≈ 2×).
	for _, bench := range []string{"blackscholes", "EP-C", "kmeans", "lavaMD"} {
		if sp := byName[bench].Speedup[CfgIdealCSR]; sp <= 1 {
			t.Errorf("%s: Ideal CSR speedup %.2f, want > 1 (cross-node beneficial)", bench, sp)
		}
		het := byName[bench].Speedup[CfgHetProbe]
		ideal := byName[bench].Speedup[CfgIdealCSR]
		if het < 0.85*ideal {
			t.Errorf("%s: HetProbe %.2f more than 15%% behind Ideal CSR %.2f (paper: ≈5%% probing overhead)",
				bench, het, ideal)
		}
	}
	if sp := byName["EP-C"].Speedup[CfgIdealCSR]; sp < 1.8 {
		t.Errorf("EP-C cross-node speedup %.2f, want ≈2×+", sp)
	}
	// Communication-bound benchmarks collapse under forced cross-node
	// execution (paper: geomean slowdowns of 3.6× / 5.9×).
	for _, bench := range []string{"lud", "cfd", "SP-C"} {
		if sp := byName[bench].Speedup[CfgIdealCSR]; sp > 0.7 {
			t.Errorf("%s: Ideal CSR speedup %.2f, want a clear slowdown", bench, sp)
		}
	}
	// HetProbe avoids those collapses: it always beats the worst
	// cross-node configuration.
	for _, r := range fig.Rows {
		if r.Speedup[CfgHetProbe] < r.Speedup[CfgCrossDyn]*0.95 {
			t.Errorf("%s: HetProbe (%.2f) below Cross-Node Dynamic (%.2f)",
				r.Benchmark, r.Speedup[CfgHetProbe], r.Speedup[CfgCrossDyn])
		}
	}
	// BT-C runs best on the ThunderX (Figure 1 / Figure 6).
	if byName["BT-C"].Best != CfgThunderX {
		t.Errorf("BT-C best = %s, paper says ThunderX", byName["BT-C"].Best)
	}
	// streamcluster and CG-C run best on the Xeon.
	for _, bench := range []string{"streamcluster", "CG-C", "SP-C"} {
		if byName[bench].Best != CfgXeon {
			t.Errorf("%s best = %s, paper says Xeon", bench, byName[bench].Best)
		}
	}
}

// TestThresholdOrderingAcrossProtocols: the TCP/IP break-even threshold
// must exceed RDMA's (paper: 7600 µs vs 100 µs).
func TestThresholdOrderingAcrossProtocols(t *testing.T) {
	s := Quick()
	rdma, err := s.Threshold(interconnect.RDMA56())
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := s.Threshold(interconnect.TCPIP())
	if err != nil {
		t.Fatal(err)
	}
	if tcp <= rdma {
		t.Errorf("TCP/IP threshold %v not above RDMA %v", tcp, rdma)
	}
}

// TestFigure9Crossover: over TCP/IP, cross-node execution starts paying
// off only once repeated rounds let the data settle (the paper's case
// study).
func TestFigure9Crossover(t *testing.T) {
	_, rep := quickReport(t)
	rows := rep.Fig9.Rows
	first, last := rows[0], rows[len(rows)-1]
	if float64(first.HetProbe) > float64(first.Homogeneous)*1.15 {
		t.Errorf("1 round: HetProbe %v should be near homogeneous %v (single-node or marginal)",
			first.HetProbe, first.Homogeneous)
	}
	if last.HetProbe >= last.Homogeneous {
		t.Errorf("%d rounds: HetProbe %v did not beat homogeneous %v", last.Rounds, last.HetProbe, last.Homogeneous)
	}
	if !last.CrossNode {
		t.Error("many-round blackscholes should be judged cross-node profitable")
	}
	if last.FaultPeriod <= first.FaultPeriod {
		t.Errorf("fault period did not grow with rounds: %v → %v", first.FaultPeriod, last.FaultPeriod)
	}
}

// TestAblations: the hierarchy cuts DSM traffic by at least 2×, and
// deterministic probing produces fewer faults than rotated probing.
func TestAblations(t *testing.T) {
	_, rep := quickReport(t)
	hier, settle := rep.Ablation["hierarchy"], rep.Ablation["settling"]
	if hier[0].Faults*2 > hier[1].Faults {
		t.Errorf("hierarchy saved too little traffic: %d vs flat %d", hier[0].Faults, hier[1].Faults)
	}
	if settle[0].Faults >= settle[1].Faults {
		t.Errorf("deterministic probing (%d faults) not below rotated (%d)", settle[0].Faults, settle[1].Faults)
	}
}

// TestRunRejectsUnknownConfig covers the error path.
func TestRunRejectsUnknownConfig(t *testing.T) {
	s := Quick()
	if _, err := s.Run("EP-C", "bogus", interconnect.RDMA56()); err == nil {
		t.Error("unknown config accepted")
	}
	if _, err := s.Run("bogus", CfgXeon, interconnect.RDMA56()); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestDeterministicSuite: the same suite parameters produce identical
// results.
func TestDeterministicSuite(t *testing.T) {
	run := func() time.Duration {
		s := Quick()
		res, err := s.Run("EP-C", CfgHetProbe, interconnect.RDMA56())
		if err != nil {
			t.Fatal(err)
		}
		return res.Time
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic suite: %v vs %v", a, b)
	}
}

// TestRenderersProduceOutput smoke-tests every report renderer.
func TestRenderersProduceOutput(t *testing.T) {
	_, rep := quickReport(t)
	if out := RenderFigure1(rep.Fig1); len(out) < 50 {
		t.Error("Figure 1 render too short")
	}
	if out := RenderTable2(rep.Tbl2); len(out) < 50 {
		t.Error("Table 2 render too short")
	}
	if out := RenderFigure7(rep.Fig7.Rows, time.Duration(rep.Fig7.Threshold)); len(out) < 50 {
		t.Error("Figure 7 render too short")
	}
	if out := RenderFigure8(rep.Fig8.Rows, rep.Fig8.Threshold); len(out) < 50 {
		t.Error("Figure 8 render too short")
	}
}
