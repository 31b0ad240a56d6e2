// Package experiments reproduces the paper's evaluation: every figure
// and table in Section 5 has a runner here, and Suite.Report collects
// them for cmd/hetbench and the golden test. Results are
// "shape-accurate": the substrate is a calibrated simulator, so
// relative orderings, ratios and crossovers are meaningful while
// absolute times are model time (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hetmp/internal/chaos"
	"hetmp/internal/cluster"
	"hetmp/internal/core"
	"hetmp/internal/decstore"
	"hetmp/internal/interconnect"
	"hetmp/internal/kernels"
	"hetmp/internal/machine"
	"hetmp/internal/telemetry"
)

// Config names, matching the paper's work-distribution configurations.
const (
	CfgXeon          = "Xeon"
	CfgThunderX      = "ThunderX"
	CfgIdealCSR      = "Ideal CSR"
	CfgCrossDyn      = "Cross-Node Dynamic"
	CfgHetProbe      = "HetProbe"
	CfgHetProbeForce = "HetProbe (force Xeon)"
)

// Configs is the paper's configuration order (Figure 6).
var Configs = []string{CfgXeon, CfgThunderX, CfgIdealCSR, CfgCrossDyn, CfgHetProbe}

// Suite parameterizes a whole evaluation run.
type Suite struct {
	// Scale multiplies benchmark problem sizes (1 = default scale
	// model).
	Scale float64
	// CacheScale shrinks node caches to match the scale model.
	CacheScale float64
	// XeonCores / TXCores size the nodes (16/96 = the paper's Table 1).
	XeonCores, TXCores int
	// TimeScale shrinks interconnect latencies and migration costs to
	// match the scale-model problem sizes (DESIGN.md §5).
	TimeScale float64
	// Seed drives simulation determinism.
	Seed int64
	// Verify runs each kernel's numerical check after each run.
	Verify bool
	// Telemetry, when non-nil, is threaded through every Run: the
	// runtime, DSM and interconnect layers record spans and metrics
	// into it (hetmprun's -trace/-metrics flags use this).
	Telemetry *telemetry.Telemetry
	// ChaosProfile, when non-empty, names a chaos.Named degradation
	// profile injected into every Run (NOT into threshold calibration,
	// which must measure the healthy substrate). It also enables the
	// runtime's ReDecide monitor so HetProbe can revise its decision
	// mid-region when the injected degradation bites.
	ChaosProfile string
	// ChaosSeed seeds the profile's jittered schedule and loss draws;
	// the same seed reproduces the same chaos bit-for-bit.
	ChaosSeed int64
	// BatchFaults enables the DSM's batched-fault protocol
	// (interconnect.Spec.BatchFaults) in every run and in threshold
	// calibration, so decisions are made against the same substrate
	// they execute on.
	BatchFaults bool
	// DecisionStore, when non-empty, is a directory of persistent
	// HetProbe decision stores (internal/decstore): every Run opens the
	// file matching its cluster-configuration fingerprint, seeds
	// decisions from it (skipping the probing period of every region
	// the file holds at the iteration count the run presents) and
	// saves newly probed decisions back after the run. A run that
	// finds nothing to adopt equals the storeless run in time, faults
	// and decisions; a file that is rejected (stale schema, foreign
	// fingerprint, corrupt) says why on standard error, once. Empty
	// (the default) keeps every run cold.
	DecisionStore string
	// Parallel bounds how many experiment runs execute concurrently
	// (0 or 1 = sequential). Every run owns its own engine, cluster and
	// kernel, and the virtual-time results are deterministic, so
	// parallel suites produce byte-identical reports — only wall-clock
	// changes. A non-nil Telemetry forces sequential execution: the
	// trace and metric sinks are shared across runs.
	Parallel int

	// cache singleflights the lazily derived products (thresholds, CSR
	// weights, HetProbe decisions) so concurrent runs needing the same
	// key wait for one computation instead of duplicating it.
	cache flightMap
	// warn receives the reason a decision-store file was rejected; nil
	// means os.Stderr.
	warn io.Writer
}

// flight is one in-progress or completed cache computation.
type flight struct {
	done chan struct{}
	v    any
	err  error
}

// flightMap is a minimal singleflight-with-memory: the first caller of
// a key computes, everyone else waits and shares the result forever
// (experiment caches are immutable once derived).
type flightMap struct {
	mu sync.Mutex
	m  map[string]*flight
}

func (f *flightMap) do(key string, fn func() (any, error)) (any, error) {
	f.mu.Lock()
	if f.m == nil {
		f.m = make(map[string]*flight)
	}
	if fl, ok := f.m[key]; ok {
		f.mu.Unlock()
		<-fl.done
		return fl.v, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	f.m[key] = fl
	f.mu.Unlock()
	fl.v, fl.err = fn()
	close(fl.done)
	return fl.v, fl.err
}

// workers returns the concurrency for a fan-out over n items.
func (s *Suite) workers(n int) int {
	w := s.Parallel
	if w <= 0 {
		w = 1
	}
	if s.Telemetry != nil {
		w = 1
	}
	if w > n {
		w = n
	}
	return w
}

// forEach runs fn(i) for every i in [0, n), fanned out across the
// suite's worker budget. fn writes its result into the caller's slice
// at index i, so output ordering is deterministic regardless of
// completion order; on failure the lowest-index error is returned.
func (s *Suite) forEach(n int, fn func(i int) error) error {
	if w := s.workers(n); w > 1 {
		errs := make([]error, n)
		var next int64
		var wg sync.WaitGroup
		for g := 0; g < w; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1)) - 1
					if i >= n {
						return
					}
					errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// Default returns the full-size suite (the paper's platform).
func Default() *Suite {
	return &Suite{
		Scale:      1,
		CacheScale: 1.0 / 8,
		TimeScale:  0.1,
		XeonCores:  16,
		TXCores:    96,
		Seed:       1,
		Verify:     true,
	}
}

// Quick returns a reduced suite for fast runs (unit tests, -quick).
// Cache capacities shrink with the problem scale so footprint/capacity
// ratios — the miss-rate signatures — are preserved.
func Quick() *Suite {
	s := Default()
	s.Scale = 0.2
	s.CacheScale = s.Scale / 8
	s.TimeScale = 0.05
	s.XeonCores = 8
	s.TXCores = 48
	return s
}

// platform builds the node set for a configuration: "both", "xeon" or
// "tx".
func (s *Suite) platform(which string) machine.Platform {
	xeon := machine.XeonE5_2620v4().ScaleCaches(s.CacheScale)
	xeon.Cores = s.XeonCores
	tx := machine.ThunderX().ScaleCaches(s.CacheScale)
	tx.Cores = s.TXCores
	switch which {
	case "xeon":
		return machine.Platform{Nodes: []machine.NodeSpec{xeon}}
	case "tx":
		return machine.Platform{Nodes: []machine.NodeSpec{tx}}
	default:
		return machine.Platform{Nodes: []machine.NodeSpec{xeon, tx}, Origin: 0}
	}
}

// Threshold returns (calibrating and caching on first use) the
// cross-node profitability threshold for a protocol, derived with the
// Section 3.2 microbenchmark exactly as the paper prescribes.
func (s *Suite) Threshold(proto interconnect.Spec) (time.Duration, error) {
	v, err := s.cache.do("threshold/"+proto.Name, func() (any, error) {
		proto.BatchFaults = s.BatchFaults
		proto = proto.Scaled(s.TimeScale)
		intensities := []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}
		points, err := core.Calibrate(func() (cluster.Cluster, error) {
			return cluster.NewSim(cluster.SimConfig{
				Platform: s.platform("both"),
				Protocol: proto,
				Seed:     s.Seed,
			})
		}, intensities, 8)
		if err != nil {
			return nil, err
		}
		// Break-even at 25%% of plateau throughput: the remote node's
		// many cores still contribute more than their interference costs
		// at a quarter efficiency (the paper's 100 µs RDMA threshold sits
		// at the same knee of its Figure 4b curve).
		return core.DeriveThreshold(points, 0.25), nil
	})
	if err != nil {
		return 0, err
	}
	return v.(time.Duration), nil
}

// Result is one benchmark execution under one configuration.
type Result struct {
	Benchmark string
	Config    string
	Time      time.Duration
	Faults    int64
	Decisions map[string]core.Decision
	// ReDecisions counts mid-region HetProbe decision revisions (only
	// non-zero when a chaos profile is active).
	ReDecisions int
	// Probes counts the probing periods HetProbe dispatched — the
	// overhead a warm decision store eliminates (zero on a fully warm
	// run).
	Probes int
	// Predictions counts region decisions seeded from the decision
	// store instead of probed.
	Predictions int
}

// openStore returns (opening and caching per fingerprint) the decision
// store for one run's cluster configuration, or nil when the suite has
// no store directory. The fingerprint covers everything the stored
// decisions depend on — node specs, the scaled interconnect protocol,
// the problem scale and the schedule configuration — and deliberately
// excludes the simulation seed: transferring decisions across seeds
// (and across processes) is the point of persisting them. The
// singleflight cache shares one *Store instance per fingerprint so
// parallel suite runs merge their decisions instead of racing on the
// file, and so a rejected file is reported once, not once per run.
func (s *Suite) openStore(which, config string, proto interconnect.Spec) (*decstore.Store, error) {
	if s.DecisionStore == "" {
		return nil, nil
	}
	fp := decstore.Fingerprint(s.platform(which).Nodes,
		fmt.Sprintf("proto=%+v", proto),
		fmt.Sprintf("scale=%g", s.Scale),
		"config="+config,
	)
	v, err := s.cache.do("decstore/"+fp, func() (any, error) {
		store, err := decstore.OpenDir(s.DecisionStore, fp)
		if err == nil && store.Status() != "" {
			w := s.warn
			if w == nil {
				w = os.Stderr
			}
			fmt.Fprintf(w, "decision store rejected, probing instead: %s\n", store.Status())
		}
		return store, err
	})
	if err != nil {
		return nil, err
	}
	return v.(*decstore.Store), nil
}

// dynChunks holds the per-benchmark chunk sizes for the Cross-Node
// Dynamic configuration ("experimentally determined; most benchmarks
// performed better with smaller sizes").
var dynChunks = map[string]int{
	"blackscholes": 16, "BT-C": 4, "cfd": 8, "CG-C": 16, "EP-C": 2,
	"kmeans": 8, "lavaMD": 1, "lud": 2, "SP-C": 4, "streamcluster": 16,
}

// Run executes one benchmark under one configuration and returns its
// total execution time (serial + parallel phases, like Table 3 and
// Figure 6).
func (s *Suite) Run(bench, config string, proto interconnect.Spec) (Result, error) {
	proto.BatchFaults = s.BatchFaults
	th, err := s.Threshold(proto)
	if err != nil {
		return Result{}, err
	}

	var (
		which string
		sched core.Schedule
	)
	switch config {
	case CfgXeon:
		which, sched = "xeon", core.StaticSchedule()
	case CfgThunderX:
		which, sched = "tx", core.StaticSchedule()
	case CfgIdealCSR:
		csr, err := s.csrFor(bench, proto)
		if err != nil {
			return Result{}, err
		}
		which, sched = "both", core.StaticCSR(csr)
	case CfgCrossDyn:
		which, sched = "both", core.DynamicSchedule(dynChunks[bench])
	case CfgHetProbe:
		which, sched = "both", core.HetProbeSchedule()
	case CfgHetProbeForce:
		spec := core.HetProbeSchedule()
		spec.ForceNode = 0
		which, sched = "both", spec
	default:
		return Result{}, fmt.Errorf("experiments: unknown config %q", config)
	}

	k, err := kernels.New(bench, s.Scale)
	if err != nil {
		return Result{}, err
	}
	var inj *chaos.Injector
	if s.ChaosProfile != "" {
		p, err := chaos.Named(s.ChaosProfile, s.ChaosSeed)
		if err != nil {
			return Result{}, err
		}
		inj = chaos.New(p, s.ChaosSeed)
	}
	cl, err := cluster.NewSim(cluster.SimConfig{
		Platform:      s.platform(which),
		Protocol:      proto.Scaled(s.TimeScale),
		Seed:          s.Seed,
		MigrationCost: time.Duration(200 * float64(time.Microsecond) * s.TimeScale),
		Telemetry:     s.Telemetry,
		Chaos:         inj,
	})
	if err != nil {
		return Result{}, err
	}
	store, err := s.openStore(which, config, proto.Scaled(s.TimeScale))
	if err != nil {
		return Result{}, fmt.Errorf("%s/%s: %w", bench, config, err)
	}
	opts := core.Options{
		FaultPeriodThreshold: th,
		ProbeRegionID:        k.ProbeRegion(),
		Telemetry:            s.Telemetry,
		ReDecide:             inj != nil,
	}
	if store != nil {
		// Guarded assignment: a nil *decstore.Store wrapped in the
		// interface would read as non-nil to the runtime.
		opts.DecisionStore = store
	}
	rt := core.New(cl, opts)
	if err := rt.Run(func(a *core.App) { k.Run(a, kernels.Fixed(sched)) }); err != nil {
		return Result{}, fmt.Errorf("%s/%s: %w", bench, config, err)
	}
	if s.Verify {
		if err := k.Verify(); err != nil {
			return Result{}, fmt.Errorf("%s/%s: %w", bench, config, err)
		}
	}
	if store != nil {
		if err := store.Save(); err != nil {
			return Result{}, fmt.Errorf("%s/%s: %w", bench, config, err)
		}
	}
	return Result{
		Benchmark:   bench,
		Config:      config,
		Time:        cl.Elapsed(),
		Faults:      cl.DSMFaults(),
		Decisions:   rt.Decisions(),
		ReDecisions: rt.ReDecisions(),
		Probes:      rt.Probes(),
		Predictions: rt.Predictions(),
	}, nil
}

// hetProbeDecisions runs the benchmark once under HetProbe and caches
// its per-region decisions (used for Ideal CSR weights, Figure 7 fault
// periods and Figure 8 counter data).
func (s *Suite) hetProbeDecisions(bench string, proto interconnect.Spec) (map[string]core.Decision, error) {
	v, err := s.cache.do("decisions/"+bench+"/"+proto.Name, func() (any, error) {
		res, err := s.Run(bench, CfgHetProbe, proto)
		if err != nil {
			return nil, err
		}
		return res.Decisions, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(map[string]core.Decision), nil
}

// mainDecision picks the benchmark's dominant region decision — the
// longest-running work-sharing region, exactly the region the paper
// selects for probing (ties broken by name for determinism).
func mainDecision(decs map[string]core.Decision) (string, core.Decision, bool) {
	ids := make([]string, 0, len(decs))
	for id := range decs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	best := ""
	for _, id := range ids {
		if best == "" || decs[id].CumTime > decs[best].CumTime {
			best = id
		}
	}
	if best == "" {
		return "", core.Decision{}, false
	}
	return best, decs[best], true
}

// csrFor returns the HetProbe-measured CSR weights for a benchmark
// (Table 2's procedure).
func (s *Suite) csrFor(bench string, proto interconnect.Spec) (map[int]float64, error) {
	v, err := s.cache.do("csr/"+bench+"/"+proto.Name, func() (any, error) {
		decs, err := s.hetProbeDecisions(bench, proto)
		if err != nil {
			return nil, err
		}
		_, d, ok := mainDecision(decs)
		csr := map[int]float64{}
		if ok {
			csr = core.CSRFromDecision(d)
		}
		return csr, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(map[int]float64), nil
}

// geomean returns the geometric mean of positive values.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var logs float64
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		logs += math.Log(v)
	}
	return math.Exp(logs / float64(len(vals)))
}
