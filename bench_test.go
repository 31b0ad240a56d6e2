// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 5). Each benchmark runs the corresponding
// experiment once per iteration on the simulated Xeon + ThunderX
// platform and reports the headline quantities as custom metrics; the
// full text tables are printed by `go run ./cmd/hetbench`.
//
// By default the reduced (-quick) suite runs so `go test -bench=.`
// completes in minutes; set HETMP_BENCH_FULL=1 for the full-size
// platform (16 + 96 cores).
package hetmp_test

import (
	"os"
	"testing"

	"hetmp/internal/experiments"
	"hetmp/internal/interconnect"
	"hetmp/internal/server"
)

// benchSuite builds a fresh suite per benchmark (experiments cache
// calibrations and HetProbe decisions internally, so one suite per
// b.N-loop keeps iterations independent).
func benchSuite() *experiments.Suite {
	if os.Getenv("HETMP_BENCH_FULL") != "" {
		return experiments.Default()
	}
	return experiments.Quick()
}

// BenchmarkFigure1 regenerates the motivating example: BT-C,
// streamcluster and lavaMD on Xeon only, ThunderX only and libHetMP.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, err := s.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.HetMP.Seconds(), r.Benchmark+"-hetmp-s")
		}
	}
}

// BenchmarkFigure4a and BenchmarkFigure4b regenerate the DSM
// microbenchmark curves (throughput and fault period vs ops/byte).
func BenchmarkFigure4a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		points, err := s.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		b.ReportMetric(last.RDMA.Throughput/1e6, "rdma-peak-Mops")
		b.ReportMetric(last.TCPIP.Throughput/1e6, "tcpip-peak-Mops")
	}
}

func BenchmarkFigure4b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		points, err := s.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		first := points[0]
		b.ReportMetric(float64(first.RDMA.FaultPeriod.Microseconds()), "rdma-floor-us")
		b.ReportMetric(float64(first.TCPIP.FaultPeriod.Microseconds()), "tcpip-floor-us")
	}
}

// BenchmarkTable2 regenerates the HetProbe-measured core speed ratios
// (paper: blackscholes 3:1, EP-C 2.5:1, kmeans 1:1, lavaMD 3.666:1).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.CSR, r.Benchmark+"-csr")
		}
	}
}

// BenchmarkTable3 regenerates the Xeon baselines.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, err := s.Table3()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Time.Seconds(), r.Benchmark+"-s")
		}
	}
}

// BenchmarkFigure6 regenerates the main result: per-configuration
// speedups vs Xeon, plus the geomean and Oracle summary.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		fig, err := s.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Geomean[experiments.CfgHetProbe], "hetprobe-geomean-x")
		b.ReportMetric(fig.Geomean[experiments.CfgThunderX], "thunderx-geomean-x")
		b.ReportMetric(fig.Geomean[experiments.CfgIdealCSR], "idealcsr-geomean-x")
		b.ReportMetric(fig.Geomean[experiments.CfgCrossDyn], "crossdyn-geomean-x")
		b.ReportMetric(fig.Geomean["Oracle"], "oracle-geomean-x")
	}
}

// BenchmarkFigure7 regenerates the page-fault periods driving the
// cross-node decision.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, th, err := s.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(th.Microseconds()), "threshold-us")
		cross := 0
		for _, r := range rows {
			if r.CrossNode {
				cross++
			}
		}
		b.ReportMetric(float64(cross), "cross-node-benchmarks")
	}
}

// BenchmarkFigure8 regenerates the cache-miss node-selection data.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, _, err := s.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.MissesPerKinst, r.Benchmark+"-mpki")
		}
	}
}

// BenchmarkFigure9 regenerates the TCP/IP case study (blackscholes with
// growing round counts; crossover where the fault period passes the
// TCP/IP threshold).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, th, err := s.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(th.Microseconds()), "tcp-threshold-us")
		last := rows[len(rows)-1]
		b.ReportMetric(float64(last.Homogeneous)/float64(last.HetProbe), "speedup-at-max-rounds")
	}
}

// BenchmarkProbeOverhead regenerates the Section 5 probing-overhead
// analysis (paper: ≈5.5% for cross-node benchmarks, ≈6.1% for
// Xeon-placed ones).
func BenchmarkProbeOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		fig, err := s.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		rows := experiments.ProbeOverhead(fig)
		for _, r := range rows {
			b.ReportMetric(r.Overhead*100, r.Benchmark+"-pct")
		}
	}
}

// BenchmarkProbeFreeFastPath measures the persistent decision store:
// a cold blackscholes run under HetProbe (probing as usual, then
// saving its decision), followed by a warm run through a fresh suite
// that reopens the store. The warm run must perform ZERO probing
// periods — warm-probes is pinned to 0 by the committed baseline —
// and reproduce the cold decision bit for bit (warm-decision-match 1).
// The probe-overhead metric is the virtual time the warm run saved.
func BenchmarkProbeFreeFastPath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dir := b.TempDir()
		cold := benchSuite()
		cold.DecisionStore = dir
		resCold, err := cold.Run("blackscholes", experiments.CfgHetProbe, interconnect.RDMA56())
		if err != nil {
			b.Fatal(err)
		}
		warm := benchSuite()
		warm.DecisionStore = dir
		resWarm, err := warm.Run("blackscholes", experiments.CfgHetProbe, interconnect.RDMA56())
		if err != nil {
			b.Fatal(err)
		}
		match := 1.0
		if len(resWarm.Decisions) != len(resCold.Decisions) {
			match = 0
		}
		for id, d := range resCold.Decisions {
			if w, ok := resWarm.Decisions[id]; !ok || w.String() != d.String() {
				match = 0
			}
		}
		b.ReportMetric(float64(resCold.Probes), "cold-probes")
		b.ReportMetric(float64(resWarm.Probes), "warm-probes")
		b.ReportMetric(float64(resWarm.Predictions), "warm-predictions")
		b.ReportMetric(match, "warm-decision-match")
		b.ReportMetric(resCold.Time.Seconds()-resWarm.Time.Seconds(), "probe-overhead-saved-s")
	}
}

// BenchmarkAblationHierarchy quantifies the two-level thread hierarchy
// against the flat ablation (DESIGN.md §6).
func BenchmarkAblationHierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, err := s.AblationHierarchy()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].Faults), "hier-faults")
		b.ReportMetric(float64(rows[1].Faults), "flat-faults")
	}
}

// BenchmarkAblationSettling quantifies deterministic probe distribution
// against rotated probes (data settling, Section 3.1).
func BenchmarkAblationSettling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSuite()
		rows, err := s.AblationSettling()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].Faults), "deterministic-faults")
		b.ReportMetric(float64(rows[1].Faults), "rotated-faults")
	}
}

// BenchmarkServerThroughput drives the multi-tenant region server
// (internal/server) with a seeded 120-job, 4-tenant preloaded
// workload sharing one decision cache. Throughput and p95 wait are
// wall-clock ("-wall" metrics: recorded, not compared by benchguard);
// warm-probes, cache-hits and server-virtual-s are deterministic
// virtual-time values pinned exactly — warm-probes must stay 0 (every
// warm run, including every cross-tenant one, takes the probe-free
// fast path).
func BenchmarkServerThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report, err := server.RunLoad(server.LoadConfig{
			Jobs: 120, Tenants: 4, Signatures: 6, Seed: 1,
			MaxInFlight: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		if report.Failed > 0 || len(report.SLOFailures) > 0 {
			b.Fatalf("load run failed: failed=%d slo=%v", report.Failed, report.SLOFailures)
		}
		b.ReportMetric(report.Throughput, "jobs/s-wall")
		b.ReportMetric(report.Wait.P95, "p95-wait-ms-wall")
		b.ReportMetric(float64(report.WarmProbes), "warm-probes")
		b.ReportMetric(float64(report.CacheHits), "cache-hits")
		b.ReportMetric(report.VirtualSeconds, "server-virtual-s")
	}
}
