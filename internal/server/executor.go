package server

import (
	"hash/fnv"
	"sync"

	"hetmp/internal/chaos"
	"hetmp/internal/cluster"
	"hetmp/internal/core"
	"hetmp/internal/decstore"
	"hetmp/internal/dsm"
	"hetmp/internal/interconnect"
	"hetmp/internal/machine"
	"hetmp/internal/telemetry"
)

// simPlatform is the simulated executor's cluster: a scaled-down paper
// platform, a 4-core Xeon and a 12-core ThunderX with caches at the
// 0.2 scale-model factor, decided over RDMA against core's default
// fault-period threshold. It is the scale-model approach the Quick
// experiment suite takes, so a job completes in milliseconds of wall
// time while preserving miss/fault ratios.
var simPlatform = func() machine.Platform {
	xeon := machine.XeonE5_2620v4().ScaleCaches(0.2)
	xeon.Cores = 4
	tx := machine.ThunderX().ScaleCaches(0.2)
	tx.Cores = 12
	return machine.Platform{Nodes: []machine.NodeSpec{xeon, tx}, Origin: 0}
}()

// SimFingerprint identifies the simulated executor's cluster
// configuration: the decision-store binding key. "scale=0.2" names the
// cache factor, as in the stores already on disk.
func SimFingerprint() string {
	return decstore.Fingerprint(simPlatform.Nodes, "rdma", "scale=0.2")
}

// SimExecutorConfig tunes the simulated executor.
type SimExecutorConfig struct {
	// Seed is folded with each job's signature hash into the Sim seed,
	// so a signature's execution is identical wherever it runs in the
	// dispatch order.
	Seed int64
	// ChaosProfile, when non-empty, runs every job under the named
	// chaos profile (a fresh injector per Sim, seeded from the
	// signature).
	ChaosProfile string
	// Store is the shared decision cache. Nil means every job probes
	// cold — the server normally installs one via NewCache.
	Store *decstore.Store
	// Telemetry receives the runtime's region/probe/decision metrics.
	Telemetry *telemetry.Telemetry
}

// SimExecutor runs each job on a fresh simulated cluster (a Sim
// executes exactly one application), sharing one decision store across
// every job so probes paid by any tenant are reusable by all.
type SimExecutor struct {
	cfg   SimExecutorConfig
	cache *frozenCache // nil when no store was configured

	mu sync.Mutex // serializes store Save, not execution
}

// NewSimExecutor builds the executor.
func NewSimExecutor(cfg SimExecutorConfig) *SimExecutor {
	x := &SimExecutor{cfg: cfg}
	if cfg.Store != nil {
		x.cache = &frozenCache{store: cfg.Store}
	}
	return x
}

// SimServerConfig is what a RegionServer over a SimExecutor is built
// from: the server's settings and the executor's.
type SimServerConfig struct {
	// Config is the server's. NewSimServer sets its Executor; its
	// Telemetry feeds the executor too.
	Config
	// Seed and ChaosProfile are the executor's (SimExecutorConfig).
	Seed         int64
	ChaosProfile string
	// CacheDir persists the shared decision cache ("" = in-memory).
	CacheDir string
}

// NewSimServer builds a RegionServer over a SimExecutor, as hetserve
// and hetload do. An unknown chaos profile is refused before anything
// is built (the executor would otherwise fail it once per job). With a
// CacheDir, the store it opens is reported through Logf, and so is the
// reason it rejected the file on disk, if it did. The executor is
// returned for Save.
func NewSimServer(cfg SimServerConfig) (*RegionServer, *SimExecutor, error) {
	if cfg.ChaosProfile != "" {
		if _, err := chaos.Named(cfg.ChaosProfile, cfg.Seed); err != nil {
			return nil, nil, err
		}
	}
	store, err := NewCache(cfg.CacheDir, SimFingerprint())
	if err != nil {
		return nil, nil, err
	}
	if cfg.CacheDir != "" && cfg.Logf != nil {
		cfg.Logf("server: decision cache %s (%d warm entries)", store.Path(), store.Len())
		if st := store.Status(); st != "" {
			cfg.Logf("server: decision cache rejected, starting cold: %s", st)
		}
	}
	x := NewSimExecutor(SimExecutorConfig{Seed: cfg.Seed, ChaosProfile: cfg.ChaosProfile, Store: store, Telemetry: cfg.Telemetry})
	cfg.Executor = x
	return New(cfg.Config), x, nil
}

// Fingerprint is SimFingerprint, the key of the store the executor
// reads and writes.
func (x *SimExecutor) Fingerprint() string { return SimFingerprint() }

// sigSeed derives a job's deterministic Sim seed from its signature:
// execution depends on what the job is, never on when it arrives.
func (x *SimExecutor) sigSeed(sig string) int64 {
	h := fnv.New64a()
	h.Write([]byte(sig))
	return x.cfg.Seed + int64(h.Sum64()&0x7fffffff)
}

// Execute runs one job: a synthetic work-sharing region shaped by the
// Spec (Pages of DSM footprint, OpsPerByte compute intensity,
// Iterations × Invocations of work) under the HetProbe schedule.
// Probes and Predictions report whether the job paid the probing
// period or rode the shared cache. It is the whole-job chunk: every
// invocation at index 0, whose seed is the signature seed.
func (x *SimExecutor) Execute(sp Spec) (ExecResult, error) {
	return x.ExecuteChunk(sp, sp.withDefaults().Invocations, 0)
}

// ExecuteChunk runs `invocations` invocations of the job's region —
// one membership chunk. The sim seed folds the chunk index on top of
// the signature seed, so a chunk's execution (including any chaos
// schedule) depends only on what it is (signature, size, position in
// the job's plan), never on which node lane serves it or when — the
// placement-neutrality invariant that keeps total virtual time
// deterministic under arbitrary churn timing (DESIGN.md §16).
func (x *SimExecutor) ExecuteChunk(sp Spec, invocations, chunkIndex int) (ExecResult, error) {
	sp = sp.withDefaults()
	var store core.DecisionStore
	if x.cache != nil {
		// Guarded assignment (a nil pointer wrapped in the interface
		// would read as non-nil to the runtime). The frozenCache wrap
		// gives first-write-wins exports: every warm run of a
		// signature adopts the identical cold entry.
		store = x.cache
	}
	return x.execute(sp, invocations, x.chunkSeed(sp.Sig(), chunkIndex), store)
}

// chunkSeed derives a chunk's sim seed: the signature seed offset by
// the chunk index, so sibling chunks of one job explore different
// (but reproducible) points of the chaos schedule.
func (x *SimExecutor) chunkSeed(sig string, chunkIndex int) int64 {
	return x.sigSeed(sig) + int64(chunkIndex)*1_000_003
}

// Reprobe re-measures one region's decision, ignoring any stored entry
// (its store answers every lookup with a miss), and overwrites the
// entry with the fresh measurement. The class list is ignored.
// benchmark/ is its only caller; it stays while benchmark/ names it.
func (x *SimExecutor) Reprobe(sp Spec, _ []string) (ExecResult, error) {
	sp = sp.withDefaults()
	var store core.DecisionStore
	if x.cache != nil {
		store = reprobeCache{x.cache.store}
	}
	return x.execute(sp, sp.Invocations, x.sigSeed(sp.Sig()), store)
}

// execute is the shared sim-run core behind ExecuteChunk and Reprobe.
func (x *SimExecutor) execute(sp Spec, invocations int, seed int64, store core.DecisionStore) (ExecResult, error) {
	if invocations < 1 {
		invocations = 1
	}
	sig := sp.Sig()
	var inj *chaos.Injector
	if x.cfg.ChaosProfile != "" {
		p, err := chaos.Named(x.cfg.ChaosProfile, seed)
		if err != nil {
			return ExecResult{}, err
		}
		inj = chaos.New(p, seed)
	}
	cl, err := cluster.NewSim(cluster.SimConfig{
		Platform:  simPlatform,
		Protocol:  interconnect.RDMA56(),
		Seed:      seed,
		Telemetry: x.cfg.Telemetry,
		Chaos:     inj,
	})
	if err != nil {
		return ExecResult{}, err
	}
	opts := core.Options{
		Telemetry:     x.cfg.Telemetry,
		ReDecide:      inj != nil,
		DecisionStore: store,
	}
	rt := core.New(cl, opts)

	pageBytes := int64(dsm.PageSize)
	size := int64(sp.Pages) * pageBytes
	bytesPerIter := size / int64(sp.Iterations)
	if bytesPerIter < 1 {
		bytesPerIter = 1
	}
	opsPerIter := sp.OpsPerByte * float64(bytesPerIter)
	err = rt.Run(func(a *core.App) {
		region := a.Alloc(sig, size)
		for inv := 0; inv < invocations; inv++ {
			a.ParallelFor(sig, sp.Iterations, core.HetProbeSchedule(), func(e cluster.Env, lo, hi int) {
				spanSegments(lo, hi, bytesPerIter, size, func(off, n int64) { e.Load(region, off, n) })
				e.Compute(opsPerIter*float64(hi-lo), 0.5)
			})
		}
	})
	if err != nil {
		return ExecResult{}, err
	}
	res := ExecResult{
		VirtualNs:   cl.Elapsed().Nanoseconds(),
		Faults:      cl.DSMFaults(),
		Probes:      rt.Probes(),
		Predictions: rt.Predictions(),
	}
	return res, nil
}

// spanSegments calls load, in order, for each contiguous byte run of
// the span [lo, hi): iteration i touches bytesPerIter bytes at
// i*bytesPerIter, wrapping at size (only when bytesPerIter is 1).
func spanSegments(lo, hi int, bytesPerIter, size int64, load func(off, n int64)) {
	for pos, end := int64(lo)*bytesPerIter, int64(hi)*bytesPerIter; pos < end; {
		off := pos % size
		n := min(end-pos, size-off)
		load(off, n)
		pos += n
	}
}

// Save persists the shared store (no-op for in-memory stores).
// Serialized so a drain racing a completion can't interleave saves.
func (x *SimExecutor) Save() error {
	if x.cfg.Store == nil {
		return nil
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.cfg.Store.Save()
}
