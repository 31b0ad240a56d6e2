// Package hetmp is a Go reproduction of libHetMP — "An OpenMP Runtime
// for Transparent Work Sharing Across Cache-Incoherent Heterogeneous
// Nodes" (Middleware '20). It provides OpenMP-style work-sharing loops
// and reductions over a set of nodes whose memories are not coherent,
// with three loop schedulers: cross-node static (with core speed
// ratios), hierarchical cross-node dynamic, and the paper's HetProbe
// scheduler, which measures a probing period and automatically decides
// whether to work-share across nodes, how to skew the distribution, or
// which single node to collapse onto.
//
// Execution backends:
//
//   - Sim: a deterministic virtual-time simulation of heterogeneous
//     nodes coupled by a page-granularity DSM (the paper's platform —
//     used by every experiment in EXPERIMENTS.md).
//   - Local: real goroutines on the host.
//
// Work sharing over real TCP workers is internal/rpc's Pool (hetmprun
// -rpc, hetworker), which is not a Cluster and is not exported here.
//
// Quickstart:
//
//	cl, _ := hetmp.NewLocalCluster(hetmp.LocalConfig{})
//	rt := hetmp.New(cl, hetmp.Options{})
//	rt.Run(func(a *hetmp.App) {
//	    a.ParallelFor("scale", len(v), hetmp.HetProbe(), func(e hetmp.Env, lo, hi int) {
//	        for i := lo; i < hi; i++ { v[i] *= 2 }
//	    })
//	})
package hetmp

import (
	"net/http"
	"time"

	"hetmp/internal/cluster"
	"hetmp/internal/core"
	"hetmp/internal/interconnect"
	"hetmp/internal/machine"
	"hetmp/internal/telemetry"
)

// Core runtime types (see internal/core for full documentation).
type (
	// Runtime executes applications on a cluster.
	Runtime = core.Runtime
	// App is the application context inside Runtime.Run.
	App = core.App
	// Options tunes thresholds, probing and the thread hierarchy.
	Options = core.Options
	// Body is a work-sharing loop body over [lo, hi).
	Body = core.Body
	// Decision is HetProbe's verdict for a region.
	Decision = core.Decision
	// Schedule selects a loop scheduler.
	Schedule = core.Schedule
	// CalibrationPoint is one sample of the interconnect microbenchmark.
	CalibrationPoint = core.CalibrationPoint
	// DecisionStore persists HetProbe decisions across runs (see
	// internal/decstore for the on-disk implementation). Assign one to
	// Options.DecisionStore to skip the probing period for regions the
	// store already knows.
	DecisionStore = core.DecisionStore
)

// Cluster/platform types.
type (
	// Cluster is an execution substrate (simulated or local).
	Cluster = cluster.Cluster
	// Env is a thread's execution environment.
	Env = cluster.Env
	// Region is a shared memory region.
	Region = cluster.Region
	// SimConfig configures the simulated backend.
	SimConfig = cluster.SimConfig
	// LocalConfig configures the goroutine backend.
	LocalConfig = cluster.LocalConfig
	// NodeSpec describes one node's hardware.
	NodeSpec = machine.NodeSpec
	// Platform is a set of nodes plus the origin.
	Platform = machine.Platform
	// InterconnectSpec models the link protocol between nodes.
	InterconnectSpec = interconnect.Spec
)

// Telemetry types (see internal/telemetry). Pass one Telemetry instance
// in both Options.Telemetry and SimConfig.Telemetry to capture spans
// and metrics from every layer of a run; nil disables collection.
type (
	// Telemetry bundles a span tracer and a metrics registry.
	Telemetry = telemetry.Telemetry
	// TelemetryOptions sizes a Telemetry instance.
	TelemetryOptions = telemetry.Options
)

// NewTelemetry creates an enabled telemetry instance. Export spans
// with Tracer().WriteTrace (Chrome trace-event JSON) and metrics with
// Metrics().WritePrometheus (Prometheus text format), or serve both
// over HTTP with TelemetryHandler.
func NewTelemetry(opts TelemetryOptions) *Telemetry { return telemetry.New(opts) }

// TelemetryHandler returns an http.Handler serving /metrics and /trace
// for the given telemetry instance (hetworker's -debug-addr endpoint).
func TelemetryHandler(t *Telemetry) http.Handler { return telemetry.Handler(t) }

// New builds a runtime on the given cluster.
func New(cl Cluster, opts Options) *Runtime { return core.New(cl, opts) }

// NewSimCluster builds the deterministic simulated backend.
func NewSimCluster(cfg SimConfig) (*cluster.Sim, error) { return cluster.NewSim(cfg) }

// NewLocalCluster builds the real-goroutine backend.
func NewLocalCluster(cfg LocalConfig) (*cluster.Local, error) { return cluster.NewLocal(cfg) }

// PaperPlatform returns the paper's Xeon E5-2620v4 + Cavium ThunderX
// testbed (Table 1) with caches scaled by cacheScale.
func PaperPlatform(cacheScale float64) Platform { return machine.PaperPlatform(cacheScale) }

// Xeon returns the paper's Intel Xeon node spec.
func Xeon() NodeSpec { return machine.XeonE5_2620v4() }

// ThunderX returns the paper's Cavium ThunderX node spec.
func ThunderX() NodeSpec { return machine.ThunderX() }

// RDMA returns the RDMA-over-InfiniBand interconnect model
// (page fault ≈ 30 µs).
func RDMA() InterconnectSpec { return interconnect.RDMA56() }

// TCPIP returns the TCP/IP interconnect model (page fault ≈ 90–120 µs).
func TCPIP() InterconnectSpec { return interconnect.TCPIP() }

// Static returns OpenMP's static schedule extended across nodes with
// equal weights.
func Static() Schedule { return core.StaticSchedule() }

// StaticCSR returns the cross-node static schedule skewed by per-node
// core speed ratios (Section 3.1 of the paper).
func StaticCSR(csr map[int]float64) Schedule { return core.StaticCSR(csr) }

// Dynamic returns the hierarchical cross-node dynamic schedule: threads
// grab chunks from a node-local pool refilled in node-sized batches
// from the global pool.
func Dynamic(chunk int) Schedule { return core.DynamicSchedule(chunk) }

// HetProbe returns the paper's HetProbe schedule: probe, measure,
// decide.
func HetProbe() Schedule { return core.HetProbeSchedule() }

// Calibrate runs the Section 3.2 DSM microbenchmark at each compute
// intensity and returns the throughput / fault-period curve (Figure 4).
func Calibrate(mkCluster func() (Cluster, error), opsPerByte []float64) ([]CalibrationPoint, error) {
	return core.Calibrate(mkCluster, opsPerByte)
}

// DeriveThreshold runs the Section 3.2 procedure on fresh clusters from
// mkCluster and returns the threshold for Options.FaultPeriodThreshold.
func DeriveThreshold(mkCluster func() (Cluster, error)) (time.Duration, error) {
	return core.DeriveThreshold(mkCluster)
}

// Reduce runs a typed parallel reduction: body folds [lo, hi) into its
// accumulator, and combine (which must be associative, with init as its
// identity) merges partial results up the thread hierarchy. It is a
// by-value wrapper over the runtime's in-place reduction.
func Reduce[T any](a *App, regionID string, n int, sched Schedule,
	init T, body func(e Env, lo, hi int, acc T) T, combine func(x, y T) T) T {
	return *core.ParallelReduce(a, regionID, n, sched,
		func(acc *T) { *acc = init },
		func(e Env, lo, hi int, acc *T) { *acc = body(e, lo, hi, *acc) },
		func(dst, src *T) { *dst = combine(*dst, *src) },
	)
}
