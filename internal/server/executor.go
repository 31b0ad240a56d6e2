package server

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
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

// SimExecutorConfig tunes the simulated executor: a scaled-down paper
// platform (a 4-core Xeon and a 12-core ThunderX over RDMA, decided
// against core's default fault-period threshold) — the same scale-model
// approach the Quick experiment suite uses, so a job completes in
// milliseconds of wall time while preserving miss/fault ratios.
type SimExecutorConfig struct {
	// Scale shrinks cache capacities (and with them the scale model's
	// footprints). Defaults to 0.2.
	Scale float64
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
	cfg      SimExecutorConfig
	platform machine.Platform
	proto    string
	cache    *frozenCache // nil when no store was configured

	mu sync.Mutex // serializes store Save, not execution
}

// NewSimExecutor builds the executor.
func NewSimExecutor(cfg SimExecutorConfig) *SimExecutor {
	if cfg.Scale <= 0 {
		cfg.Scale = 0.2
	}
	xeon := machine.XeonE5_2620v4().ScaleCaches(cfg.Scale)
	xeon.Cores = 4
	tx := machine.ThunderX().ScaleCaches(cfg.Scale)
	tx.Cores = 12
	x := &SimExecutor{
		cfg:      cfg,
		platform: machine.Platform{Nodes: []machine.NodeSpec{xeon, tx}, Origin: 0},
		proto:    "rdma",
	}
	if cfg.Store != nil {
		x.cache = &frozenCache{store: cfg.Store, classes: x.Classes()}
	}
	return x
}

// Fingerprint identifies the executor's cluster configuration — the
// decision-store binding key.
func (x *SimExecutor) Fingerprint() string {
	return decstore.Fingerprint(x.platform.Nodes, x.proto, fmt.Sprintf("scale=%g", x.cfg.Scale))
}

// Classes returns the node classes of the executor's platform
// (lower-cased machine names, sorted, deduplicated). Decision entries
// exported through the executor's cache are stamped with these — the
// membership layer's warm-start coverage check reads them back.
func (x *SimExecutor) Classes() []string {
	seen := map[string]bool{}
	var out []string
	for _, n := range x.platform.Nodes {
		c := strings.ToLower(n.Name)
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// ClassCovered reports whether every stored decision entry covers the
// node class — the membership layer's warm-start test. A store-less
// executor trivially covers everything (nothing to warm from).
func (x *SimExecutor) ClassCovered(class string) bool {
	if x.cfg.Store == nil {
		return true
	}
	return x.cfg.Store.ClassCovered(strings.ToLower(class))
}

// ReprobeSpecs returns up to limit runnable specs whose stored entries
// do not cover the class — the newcomer's bounded warm-up worklist,
// reconstructed from the store's signature keys.
func (x *SimExecutor) ReprobeSpecs(class string, limit int) []Spec {
	if x.cfg.Store == nil || limit <= 0 {
		return nil
	}
	var out []Spec
	for _, key := range x.cfg.Store.KeysMissingClass(strings.ToLower(class)) {
		if len(out) >= limit {
			break
		}
		if sp, ok := specFromSig(key); ok {
			out = append(out, sp)
		}
	}
	return out
}

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
	return x.execute(sp, invocations, x.chunkSeed(sp.Sig(), chunkIndex), store, nil)
}

// chunkSeed derives a chunk's sim seed: the signature seed offset by
// the chunk index, so sibling chunks of one job explore different
// (but reproducible) points of the chaos schedule.
func (x *SimExecutor) chunkSeed(sig string, chunkIndex int) int64 {
	return x.sigSeed(sig) + int64(chunkIndex)*1_000_003
}

// Reprobe re-measures one region's decision, ignoring any stored
// entry (core's ForceReprobe hook), and overwrites the store entry
// with the fresh measurement stamped as covering `classes`. This is
// the newcomer warm-up path: a node of a class the stored entries
// have never covered joins, and the membership layer re-probes a
// bounded set of signatures to validate their decisions for the new
// class. Probing stays bounded exactly like a cold run's.
func (x *SimExecutor) Reprobe(sp Spec, classes []string) (ExecResult, error) {
	sp = sp.withDefaults()
	var store core.DecisionStore
	if x.cache != nil {
		store = &reprobeCache{store: x.cache.store, classes: classes}
	}
	force := func(string) bool { return true }
	return x.execute(sp, sp.Invocations, x.sigSeed(sp.Sig()), store, force)
}

// execute is the shared sim-run core behind Execute, ExecuteChunk and
// Reprobe.
func (x *SimExecutor) execute(sp Spec, invocations int, seed int64, store core.DecisionStore,
	force func(string) bool) (ExecResult, error) {
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
		Platform:  x.platform,
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
		ForceReprobe:  force,
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
				for i := lo; i < hi; i++ {
					off := (int64(i) * bytesPerIter) % size
					if off+bytesPerIter > size {
						off = size - bytesPerIter
					}
					e.Load(region, off, bytesPerIter)
					e.Compute(opsPerIter, 0.5)
				}
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
