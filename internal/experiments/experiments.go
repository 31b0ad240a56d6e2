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
	"maps"
	"math"
	"os"
	"slices"
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
	CfgXeon     = "Xeon"
	CfgThunderX = "ThunderX"
	CfgIdealCSR = "Ideal CSR"
	CfgCrossDyn = "Cross-Node Dynamic"
	CfgHetProbe = "HetProbe"
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
	// profile injected into every run the suite simulates, Figure 9
	// and the ablations included (NOT into threshold calibration,
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
	// and decisions, and since a report simulates each of its cells
	// once, a report over an empty store equals the storeless report
	// at any Parallel. Figure 9 and the ablations never use the store.
	// A file that is rejected (stale schema, foreign fingerprint,
	// corrupt) says why on standard error, once. Empty (the default)
	// keeps every run cold.
	DecisionStore string
	// Parallel bounds how many experiment runs execute concurrently
	// (0 or 1 = sequential). Every run owns its own engine, cluster and
	// kernel, and the virtual-time results are deterministic, so
	// parallel suites produce byte-identical reports — only wall-clock
	// changes. A non-nil Telemetry forces sequential execution: the
	// trace and metric sinks are shared across runs.
	Parallel int

	// cache singleflights the lazily derived products (thresholds,
	// decision stores, report cells) so concurrent runs needing the
	// same key wait for one computation instead of duplicating it.
	cache memo
	// warn receives the reason a decision-store file was rejected; nil
	// means os.Stderr.
	warn io.Writer
}

// memo is singleflight-with-memory: the first caller of a key computes,
// everyone else waits and shares the result forever (experiment caches
// are immutable once derived). It is kernels.reference's idiom: a
// sync.Map of sync.OnceValues cells.
type memo struct{ m sync.Map } // key -> func() (any, error)

func (c *memo) do(key string, fn func() (any, error)) (any, error) {
	f, ok := c.m.Load(key)
	if !ok {
		f, _ = c.m.LoadOrStore(key, sync.OnceValues(fn))
	}
	return f.(func() (any, error))()
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
	s := &Suite{
		TimeScale: 0.1,
		XeonCores: 16,
		TXCores:   96,
		Seed:      1,
		Verify:    true,
	}
	s.SetScale(1)
	return s
}

// Quick returns a reduced suite for fast runs (unit tests, -quick).
func Quick() *Suite {
	s := Default()
	s.SetScale(0.2)
	s.TimeScale = 0.05
	s.XeonCores = 8
	s.TXCores = 48
	return s
}

// SetScale moves the suite to one point of the scale model: problem
// sizes multiply by scale and node caches shrink to scale/8 of the
// real machines', so footprint-to-capacity ratios — the miss-rate
// signatures — are the same at every point (DESIGN.md §5). TimeScale
// is left as the suite has it.
func (s *Suite) SetScale(scale float64) {
	s.Scale = scale
	s.CacheScale = scale / 8
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

// simConfig is the cluster configuration every run of the suite
// shares: the configuration's nodes ("both", "xeon" or "tx"), the
// protocol with the suite's fault batching and time scale, the seed,
// and the migration cost on the same time scale. Callers add their
// own Jitter, Chaos or Telemetry.
func (s *Suite) simConfig(which string, proto interconnect.Spec) cluster.SimConfig {
	proto.BatchFaults = s.BatchFaults
	return cluster.SimConfig{
		Platform:      s.platform(which),
		Protocol:      proto.Scaled(s.TimeScale),
		Seed:          s.Seed,
		MigrationCost: time.Duration(200 * float64(time.Microsecond) * s.TimeScale),
	}
}

// calibrating returns fresh clusters of cfg for the Section 3.2
// microbenchmark, which spawns at the cluster's unscaled default
// migration cost, whatever cfg says.
func calibrating(cfg cluster.SimConfig) func() (cluster.Cluster, error) {
	cfg.MigrationCost = 0
	return func() (cluster.Cluster, error) { return cluster.NewSim(cfg) }
}

// Threshold returns (deriving and caching on first use) the cross-node
// profitability threshold for a protocol: core.DeriveThreshold, the
// paper's Section 3.2 procedure, on the suite's own cluster.
func (s *Suite) Threshold(proto interconnect.Spec) (time.Duration, error) {
	v, err := s.cache.do("threshold/"+proto.Name, func() (any, error) {
		return core.DeriveThreshold(calibrating(s.simConfig("both", proto)))
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
// Figure 6). Every call simulates: hetmprun and the benchmark harness
// time it once per call. The figures read their cells through cell
// instead, which runs each one once per suite. Only runs made through
// Run adopt and save decisions in the suite's DecisionStore.
func (s *Suite) Run(bench, config string, proto interconnect.Spec) (Result, error) {
	which := "both"
	var sched core.Schedule
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
		sched = core.StaticCSR(csr)
	case CfgCrossDyn:
		sched = core.DynamicSchedule(dynChunks[bench])
	case CfgHetProbe:
		sched = core.HetProbeSchedule()
	default:
		return Result{}, fmt.Errorf("experiments: unknown config %q", config)
	}
	return s.simulate(simRun{bench: bench, config: config, which: which, sched: sched, proto: proto, store: true})
}

// simRun is one simulated run as the experiments vary it.
type simRun struct {
	// bench names the kernel; with rounds > 0 it is blackscholes with
	// that many pricing rounds (Figure 9, the settling ablation).
	bench  string
	rounds int
	// config labels the run in its Result and errors, and names its
	// decision store file.
	config string
	// which is the node set: "both", "xeon" or "tx".
	which string
	sched core.Schedule
	proto interconnect.Spec
	// opts holds the ablations' core.Options fields; simulate sets
	// the rest.
	opts core.Options
	// jitter adds latency jitter (Figure 9: the paper notes TCP/IP
	// results are noisy).
	jitter bool
	// store adopts and saves decisions in the suite's DecisionStore.
	store bool
}

// simulate is the one place the experiments simulate: every run gets
// the suite's threshold, chaos profile, telemetry and verification,
// whichever figure asks for it.
func (s *Suite) simulate(r simRun) (Result, error) {
	name := r.bench + "/" + r.config
	th, err := s.Threshold(r.proto)
	if err != nil {
		return Result{}, err
	}
	var k kernels.Kernel
	if r.rounds > 0 {
		k = kernels.NewBlackscholesRounds(s.Scale, r.rounds)
	} else if k, err = kernels.New(r.bench, s.Scale); err != nil {
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
	cfg := s.simConfig(r.which, r.proto)
	cfg.Jitter = r.jitter
	cfg.Telemetry = s.Telemetry
	cfg.Chaos = inj
	cl, err := cluster.NewSim(cfg)
	if err != nil {
		return Result{}, err
	}
	opts := r.opts
	opts.FaultPeriodThreshold = th
	opts.ProbeRegionID = k.ProbeRegion()
	opts.Telemetry = s.Telemetry
	opts.ReDecide = inj != nil
	var store *decstore.Store
	if r.store {
		if store, err = s.openStore(r.which, r.config, cfg.Protocol); err != nil {
			return Result{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	if store != nil {
		// Guarded assignment: a nil *decstore.Store wrapped in the
		// interface would read as non-nil to the runtime.
		opts.DecisionStore = store
	}
	rt := core.New(cl, opts)
	if err := rt.Run(func(a *core.App) { k.Run(a, kernels.Fixed(r.sched)) }); err != nil {
		return Result{}, fmt.Errorf("%s: %w", name, err)
	}
	if s.Verify {
		if err := k.Verify(); err != nil {
			return Result{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	if store != nil {
		if err := store.Save(); err != nil {
			return Result{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	return Result{
		Benchmark:   r.bench,
		Config:      r.config,
		Time:        cl.Elapsed(),
		Faults:      cl.DSMFaults(),
		Decisions:   rt.Decisions(),
		ReDecisions: rt.ReDecisions(),
		Probes:      rt.Probes(),
		Predictions: rt.Predictions(),
	}, nil
}

// cell returns the suite's one run of bench under config over proto.
// Every figure that reads a (benchmark, configuration, protocol) cell
// shares that run: Figure 1 and Table 3 read Figure 6's cells, and
// Table 2, Ideal CSR and Figures 7–8 read the decisions of its
// HetProbe cells.
func (s *Suite) cell(bench, config string, proto interconnect.Spec) (Result, error) {
	v, err := s.cache.do("cell/"+bench+"/"+config+"/"+proto.Name, func() (any, error) {
		return s.Run(bench, config, proto)
	})
	if err != nil {
		return Result{}, err
	}
	return v.(Result), nil
}

// mainDecision returns the benchmark's region decision. Suite.simulate
// names the kernel's probe region (the paper's longest-running region)
// as the one that probes, so a run records at most one decision.
func mainDecision(decs map[string]core.Decision) (string, core.Decision, bool) {
	ids := slices.Sorted(maps.Keys(decs))
	if len(ids) == 0 {
		return "", core.Decision{}, false
	}
	return ids[0], decs[ids[0]], true
}

// csrFor returns the CSR weights HetProbe measured for a benchmark in
// its HetProbe cell (Table 2's procedure).
func (s *Suite) csrFor(bench string, proto interconnect.Spec) (map[int]float64, error) {
	res, err := s.cell(bench, CfgHetProbe, proto)
	if err != nil {
		return nil, err
	}
	if _, d, ok := mainDecision(res.Decisions); ok {
		return core.CSRFromDecision(d), nil
	}
	return map[int]float64{}, nil
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
