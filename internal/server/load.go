package server

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"hetmp/internal/rpc"
)

// ParseWeights parses a "tenant=weight,tenant=weight" flag value.
func ParseWeights(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return nil, fmt.Errorf("bad weight %q (want tenant=weight)", part)
		}
		w, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || !(w > 0) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("bad weight %q: want a positive finite number", part)
		}
		out[kv[0]] = w
	}
	return out, nil
}

// SLO is a set of assertions a load run must meet. Zero fields are
// not checked (except WarmProbes, which must always be zero, and
// LostIterations when the membership layer is on).
type SLO struct {
	// MaxP95WaitMs bounds the 95th-percentile admission-to-dispatch
	// wait.
	MaxP95WaitMs float64
	// MaxP99WaitMs bounds the 99th-percentile admission-to-dispatch
	// wait (the chaos-on tail gate).
	MaxP99WaitMs float64
	// MaxP95ServiceMs bounds the 95th-percentile service time.
	MaxP95ServiceMs float64
	// MaxP99ServiceMs bounds the 99th-percentile service time.
	MaxP99ServiceMs float64
	// MinThroughput is the minimum completed jobs per wall second.
	MinThroughput float64
	// MinCrossTenantWarm is the minimum number of cross-tenant warm
	// runs the shared cache must produce.
	MinCrossTenantWarm int
	// MaxRejections bounds admission rejections (-1 disables the
	// check; 0 means none allowed).
	MaxRejections int
}

// ChaosSLOs returns the latency budget for a named chaos profile —
// the p95/p99 wait+service gates hetload's -chaos-slo flag and the
// churn-smoke CI job assert. Budgets are wall-clock, sized with
// order-of-magnitude headroom over the scale-model's observed
// latencies so they catch pathological stalls (a wedged drain, a
// lost wakeup, unbounded rehome loops) rather than CI jitter. The
// second return is false for an unknown profile.
func ChaosSLOs(profile string) (SLO, bool) {
	budgets := map[string]SLO{
		// Link chaos slows remote probes but not steady-state much.
		"link-degrade": {MaxP95WaitMs: 20000, MaxP99WaitMs: 30000, MaxP95ServiceMs: 2000, MaxP99ServiceMs: 4000},
		"link-flap":    {MaxP95WaitMs: 20000, MaxP99WaitMs: 30000, MaxP95ServiceMs: 2000, MaxP99ServiceMs: 4000},
		"dsm-loss":     {MaxP95WaitMs: 20000, MaxP99WaitMs: 30000, MaxP95ServiceMs: 3000, MaxP99ServiceMs: 5000},
		// Node chaos produces stragglers/freezes: wider service tail.
		"node-straggle": {MaxP95WaitMs: 30000, MaxP99WaitMs: 45000, MaxP95ServiceMs: 4000, MaxP99ServiceMs: 6000},
		"node-freeze":   {MaxP95WaitMs: 30000, MaxP99WaitMs: 45000, MaxP95ServiceMs: 6000, MaxP99ServiceMs: 10000},
		"mixed":         {MaxP95WaitMs: 30000, MaxP99WaitMs: 45000, MaxP95ServiceMs: 6000, MaxP99ServiceMs: 10000},
	}
	s, ok := budgets[profile]
	return s, ok
}

// MergeSLO fills unset (zero) fields of base from def — the explicit
// flag always wins over the ChaosSLOs table.
func MergeSLO(base, def SLO) SLO {
	if base.MaxP95WaitMs == 0 {
		base.MaxP95WaitMs = def.MaxP95WaitMs
	}
	if base.MaxP99WaitMs == 0 {
		base.MaxP99WaitMs = def.MaxP99WaitMs
	}
	if base.MaxP95ServiceMs == 0 {
		base.MaxP95ServiceMs = def.MaxP95ServiceMs
	}
	if base.MaxP99ServiceMs == 0 {
		base.MaxP99ServiceMs = def.MaxP99ServiceMs
	}
	if base.MinThroughput == 0 {
		base.MinThroughput = def.MinThroughput
	}
	if base.MinCrossTenantWarm == 0 {
		base.MinCrossTenantWarm = def.MinCrossTenantWarm
	}
	if base.MaxRejections == 0 {
		base.MaxRejections = def.MaxRejections
	}
	return base
}

// LoadConfig drives one seeded load-generator run against an
// in-process RegionServer (RunLoad) or a remote one (RunRemote).
type LoadConfig struct {
	// SimServerConfig is the server under test; RunRemote reads only
	// its Seed, ChaosProfile and Logf. QueueDepth defaults to Jobs
	// (preload admits everything); set it lower with Preload off to
	// exercise backpressure. Seed also drives tenant/shape assignment:
	// the same seed reproduces the same workload bit-for-bit.
	SimServerConfig
	// Jobs is the total submission count. Defaults to 200.
	Jobs int
	// Tenants is how many synthetic tenants submit. Defaults to 4.
	Tenants int
	// Signatures is how many distinct region shapes the workload
	// mixes. Defaults to 6.
	Signatures int
	// Preload (default true, via the zero value of NoPreload) submits
	// the whole workload to a paused server, then resumes: admission
	// order — and therefore dispatch order — is deterministic.
	NoPreload bool
	// MaxRetries is how many times a submission rejected with
	// ErrQueueFull retries with backoff. Defaults to 25.
	MaxRetries int
	// SLO is asserted after the run; failures land in
	// LoadReport.SLOFailures.
	SLO SLO
}

// WithDefaults returns the config with every unset field at its
// documented default.
func (c LoadConfig) WithDefaults() LoadConfig {
	if c.Jobs <= 0 {
		c.Jobs = 200
	}
	if c.Tenants <= 0 {
		c.Tenants = 4
	}
	if c.Signatures <= 0 {
		c.Signatures = 6
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = c.Jobs
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 8
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 25
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Percentiles summarizes a latency distribution in milliseconds.
type Percentiles struct {
	P50 float64 `json:"p50_ms"`
	P95 float64 `json:"p95_ms"`
	P99 float64 `json:"p99_ms"`
}

// LoadReport is the load generator's machine-readable result.
type LoadReport struct {
	Jobs            int            `json:"jobs"`
	Tenants         int            `json:"tenants"`
	Signatures      int            `json:"signatures"`
	Seed            int64          `json:"seed"`
	ChaosProfile    string         `json:"chaos_profile,omitempty"`
	Preload         bool           `json:"preload"`
	WallSeconds     float64        `json:"wall_seconds"`
	Throughput      float64        `json:"throughput_jobs_per_sec"`
	Wait            Percentiles    `json:"wait"`
	Service         Percentiles    `json:"service"`
	Completed       int            `json:"completed"`
	Failed          int            `json:"failed"`
	Rejections      int            `json:"rejections"`
	Retries         int            `json:"retries"`
	CacheHits       int            `json:"cache_hits"`
	CacheMisses     int            `json:"cache_misses"`
	CrossTenantWarm int            `json:"cross_tenant_warm"`
	WarmProbes      int            `json:"warm_probes"`
	BudgetWindows   int            `json:"budget_windows"`
	VirtualSeconds  float64        `json:"virtual_seconds"`
	DispatchHash    string         `json:"dispatch_hash"`
	TenantJobs      map[string]int `json:"tenant_jobs"`
	SLOFailures     []string       `json:"slo_failures"`
	// Membership is Stats.Membership when the elastic-membership layer
	// is on (its LostIterations must be 0 — exactly-once accounting
	// across churn is asserted, not hoped for).
	Membership *MembershipStats `json:"membership,omitempty"`
	// DeterminismChecked/DeterminismOK report the double-run check
	// (RunLoadVerified).
	DeterminismChecked bool `json:"determinism_checked"`
	DeterminismOK      bool `json:"determinism_ok,omitempty"`
}

// ExactReport is the part of a LoadReport that a seeded, preloaded run
// reproduces bit for bit: the modelled system's record of the serving
// path, compared byte for byte by the serving golden.
type ExactReport struct {
	Jobs            int            `json:"jobs"`
	Tenants         int            `json:"tenants"`
	Signatures      int            `json:"signatures"`
	Seed            int64          `json:"seed"`
	ChaosProfile    string         `json:"chaos_profile,omitempty"`
	Completed       int            `json:"completed"`
	Failed          int            `json:"failed"`
	Rejections      int            `json:"rejections"`
	CacheHits       int            `json:"cache_hits"`
	CacheMisses     int            `json:"cache_misses"`
	CrossTenantWarm int            `json:"cross_tenant_warm"`
	WarmProbes      int            `json:"warm_probes"`
	BudgetWindows   int            `json:"budget_windows"`
	VirtualSeconds  float64        `json:"virtual_seconds"`
	DispatchHash    string         `json:"dispatch_hash"`
	TenantJobs      map[string]int `json:"tenant_jobs"`
	ChurnApplied    int            `json:"churn_applied,omitempty"`
	LostIterations  int64          `json:"lost_iterations,omitempty"`
	Transitions     []string       `json:"transitions,omitempty"`
}

// Exact projects the report onto ExactReport. What it drops depends on
// the host: WallSeconds, Throughput, Wait, Service and Retries are
// wall-clock, SLOFailures follows them through the latency gates, and
// Membership's rehome and per-node chunk counts record which lane
// happened to hold a chunk when churn struck. A new LoadReport field
// joins ExactReport only if a seeded run reproduces it.
func (r LoadReport) Exact() ExactReport {
	e := ExactReport{
		Jobs: r.Jobs, Tenants: r.Tenants, Signatures: r.Signatures, Seed: r.Seed,
		ChaosProfile: r.ChaosProfile, Completed: r.Completed, Failed: r.Failed,
		Rejections: r.Rejections, CacheHits: r.CacheHits, CacheMisses: r.CacheMisses,
		CrossTenantWarm: r.CrossTenantWarm, WarmProbes: r.WarmProbes,
		BudgetWindows: r.BudgetWindows, VirtualSeconds: r.VirtualSeconds,
		DispatchHash: r.DispatchHash, TenantJobs: r.TenantJobs,
	}
	if m := r.Membership; m != nil {
		e.ChurnApplied, e.LostIterations, e.Transitions = m.ChurnApplied, m.LostIterations, m.Transitions
	}
	return e
}

// Workload generates the seeded job sequence for a config. Tenants
// are "t0".."tN"; signatures mix iteration counts and footprints so
// several shapes coexist in the shared cache. The same seed yields
// the same sequence — RunRemote reuses it against a daemon.
func Workload(cfg LoadConfig) []Spec {
	rng := rand.New(rand.NewSource(cfg.Seed))
	shapes := make([]Spec, cfg.Signatures)
	for i := range shapes {
		shapes[i] = Spec{
			Region:     fmt.Sprintf("w%d", i),
			Iterations: 1024 << (i % 3), // 1k/2k/4k
			Pages:      16 + 8*(i%4),    // 16..40 pages
			OpsPerByte: []float64{16, 32, 64}[i%3],
		}
	}
	specs := make([]Spec, cfg.Jobs)
	for i := range specs {
		sp := shapes[rng.Intn(len(shapes))]
		sp.Tenant = fmt.Sprintf("t%d", rng.Intn(cfg.Tenants))
		sp.Priority = rng.Intn(2)
		specs[i] = sp
	}
	return specs
}

// RunLoad executes one load run against a fresh in-process server and
// returns the report. The server is built, driven, drained and closed
// inside the call.
func RunLoad(cfg LoadConfig) (LoadReport, error) {
	cfg = cfg.WithDefaults()
	cfg.StartPaused = !cfg.NoPreload
	rs, x, err := NewSimServer(cfg.SimServerConfig)
	if err != nil {
		return LoadReport{}, err
	}
	defer rs.Close()

	specs := Workload(cfg)
	start := time.Now()
	var results []Result
	retries := 0
	if cfg.NoPreload {
		// Every job is a stream of its own: the flood is what
		// exercises backpressure.
		streams := make([][]Spec, len(specs))
		for i := range specs {
			streams[i] = specs[i : i+1]
		}
		results, retries, err = submitStreams(streams, cfg.MaxRetries, func(_ int, sp Spec) (Result, error) { return rs.Submit(sp) })
	} else {
		chans := make([]<-chan Result, 0, len(specs))
		for i, sp := range specs {
			ch, err := rs.SubmitAsync(sp)
			if err != nil {
				return LoadReport{}, fmt.Errorf("preload submit %d: %w", i, err)
			}
			chans = append(chans, ch)
		}
		cfg.Logf("hetload: preloaded %d jobs across %d tenants, resuming", len(specs), cfg.Tenants)
		start = time.Now()
		rs.Resume()
		for _, ch := range chans {
			results = append(results, <-ch)
		}
	}
	rs.Drain()
	wall := time.Since(start)
	if err != nil {
		return LoadReport{}, err
	}
	if err := x.Save(); err != nil {
		return LoadReport{}, fmt.Errorf("cache save: %w", err)
	}
	st := rs.Stats()
	return cfg.report(results, retries, wall, &st), nil
}

// RunRemote drives the workload against a remote hetserve at addr: one
// rpc connection per tenant, each submitting its tenant's jobs in turn.
// The daemon's own flags configure its server, so only cfg's Seed,
// ChaosProfile and Logf are read from SimServerConfig. Determinism is not
// asserted against a remote server: its admission order depends on the
// network.
func RunRemote(cfg LoadConfig, addr string) (LoadReport, error) {
	cfg = cfg.WithDefaults()
	cfg.NoPreload = true
	byTenant := map[string][]Spec{}
	for _, sp := range Workload(cfg) {
		byTenant[sp.Tenant] = append(byTenant[sp.Tenant], sp)
	}
	var streams [][]Spec
	var clients []*rpc.Client
	for _, tenant := range slices.Sorted(maps.Keys(byTenant)) {
		c, err := rpc.DialClient(addr)
		if err != nil {
			return LoadReport{}, fmt.Errorf("tenant %s: %w", tenant, err)
		}
		defer c.Close()
		streams, clients = append(streams, byTenant[tenant]), append(clients, c)
	}
	start := time.Now()
	results, retries, err := submitStreams(streams, cfg.MaxRetries, func(i int, sp Spec) (Result, error) {
		return SubmitRemote(clients[i], sp, 5*time.Minute)
	})
	if err != nil {
		return LoadReport{}, err
	}
	return cfg.report(results, retries, time.Since(start), nil), nil
}

// submitStreams is the driver of both live modes: each stream of jobs
// on its own goroutine, one job at a time, through submit (given the
// stream's index) under submitRetrying. It returns the results in
// completion order, the retries spent and the first error that ended a
// stream.
func submitStreams(streams [][]Spec, maxRetries int, submit func(stream int, sp Spec) (Result, error)) ([]Result, int, error) {
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		results []Result
		retries int
		first   error
	)
	for i, specs := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, sp := range specs {
				r, n, err := submitRetrying(func() (Result, error) { return submit(i, sp) }, maxRetries)
				mu.Lock()
				retries += n
				if err == nil {
					results = append(results, r)
				} else if first == nil {
					first = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return results, retries, first
}

// submitRetrying is the one retry rule: a submission rejected with
// ErrQueueFull retries after a backoff that doubles from 1 ms to 64 ms,
// at most maxRetries times. Any other error ends the job at once:
// ErrDraining, ErrStopped and ErrBadSpec will not pass on a retry. It
// returns the result, the retries spent and the error that ended it.
func submitRetrying(submit func() (Result, error), maxRetries int) (Result, int, error) {
	backoff := time.Millisecond
	for attempt := 0; ; attempt++ {
		r, err := submit()
		if err == nil || !errors.Is(err, ErrQueueFull) || attempt >= maxRetries {
			return r, attempt, err
		}
		time.Sleep(backoff)
		backoff = min(2*backoff, 64*time.Millisecond)
	}
}

// report builds a run's LoadReport from the results its driver
// collected, checks the SLO and logs the summary. st is the in-process
// server's final Stats: the rejections it counted and what only it can
// see (warm probes, budget windows, the dispatch hash, membership).
// It is nil for a remote run, whose rejections are the retries.
func (cfg LoadConfig) report(results []Result, retries int, wall time.Duration, st *Stats) LoadReport {
	r := LoadReport{
		Jobs: cfg.Jobs, Tenants: cfg.Tenants, Signatures: cfg.Signatures,
		Seed: cfg.Seed, ChaosProfile: cfg.ChaosProfile, Preload: !cfg.NoPreload,
		WallSeconds: wall.Seconds(), Rejections: retries, Retries: retries,
		TenantJobs: map[string]int{},
	}
	var waits, svcs []time.Duration
	var virtual int64
	for _, res := range results {
		if res.Err != nil {
			r.Failed++
			continue
		}
		r.Completed++
		r.TenantJobs[res.Tenant]++
		waits = append(waits, res.Wait)
		svcs = append(svcs, res.Service)
		virtual += res.VirtualNs
		if res.Warm {
			r.CacheHits++
		} else {
			r.CacheMisses++
		}
		if res.CrossTenantWarm {
			r.CrossTenantWarm++
		}
	}
	r.Wait = percentiles(waits)
	r.Service = percentiles(svcs)
	r.VirtualSeconds = time.Duration(virtual).Seconds()
	if wall > 0 {
		r.Throughput = float64(r.Completed) / wall.Seconds()
	}
	if st != nil {
		r.Rejections, r.WarmProbes, r.BudgetWindows = st.Rejected, st.WarmProbes, st.BudgetWindows
		r.DispatchHash = fmt.Sprintf("%016x", st.DispatchHash)
		r.Membership = st.Membership
	}
	r.SLOFailures = checkSLO(cfg.SLO, r)
	cfg.Logf("hetload: %d jobs in %.2fs (%.1f jobs/s), wait p95 %.2fms, %d cache hits (%d cross-tenant), %d rejections",
		r.Completed, r.WallSeconds, r.Throughput, r.Wait.P95, r.CacheHits, r.CrossTenantWarm, r.Rejections)
	if m := r.Membership; m != nil {
		cfg.Logf("hetload: membership: %d churn events applied, %d chunks rehomed, %d lost iterations",
			m.ChurnApplied, m.Rehomed, m.LostIterations)
	}
	return r
}

// RunLoadVerified runs the workload twice on fresh servers and asserts
// the dispatch sequence and total virtual time reproduce exactly for
// the fixed seed. Returns the first run's report with the determinism
// fields set (a mismatch is also appended to SLOFailures).
func RunLoadVerified(cfg LoadConfig) (LoadReport, error) {
	r1, err := RunLoad(cfg)
	if err != nil {
		return r1, err
	}
	r2, err := RunLoad(cfg)
	if err != nil {
		return r1, err
	}
	r1.DeterminismChecked = true
	r1.DeterminismOK = true
	if r1.DispatchHash != r2.DispatchHash {
		r1.DeterminismOK = false
		r1.SLOFailures = append(r1.SLOFailures,
			fmt.Sprintf("determinism: dispatch hash %s != %s across identical seeded runs", r1.DispatchHash, r2.DispatchHash))
	}
	if r1.VirtualSeconds != r2.VirtualSeconds {
		r1.DeterminismOK = false
		r1.SLOFailures = append(r1.SLOFailures,
			fmt.Sprintf("determinism: total virtual time %.9fs != %.9fs across identical seeded runs", r1.VirtualSeconds, r2.VirtualSeconds))
	}
	return r1, nil
}

// percentiles summarizes a latency sample set in milliseconds,
// sorting it in place.
func percentiles(ds []time.Duration) Percentiles {
	if len(ds) == 0 {
		return Percentiles{}
	}
	slices.Sort(ds)
	at := func(q float64) float64 {
		idx := int(q*float64(len(ds))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(ds) {
			idx = len(ds) - 1
		}
		return float64(ds[idx]) / float64(time.Millisecond)
	}
	return Percentiles{P50: at(0.50), P95: at(0.95), P99: at(0.99)}
}

// checkSLO evaluates a report against an SLO, returning one line per
// violated assertion (empty = all met).
func checkSLO(slo SLO, r LoadReport) []string {
	fails := []string{}
	if r.WarmProbes != 0 {
		fails = append(fails, fmt.Sprintf("warm cross-tenant probes = %d, want 0", r.WarmProbes))
	}
	if r.Failed > 0 {
		fails = append(fails, fmt.Sprintf("%d jobs failed", r.Failed))
	}
	if r.Membership != nil && r.Membership.LostIterations != 0 {
		fails = append(fails, fmt.Sprintf("membership lost %d iterations, want 0 (exactly-once across churn)", r.Membership.LostIterations))
	}
	if slo.MaxP95WaitMs > 0 && r.Wait.P95 > slo.MaxP95WaitMs {
		fails = append(fails, fmt.Sprintf("wait p95 %.2fms > SLO %.2fms", r.Wait.P95, slo.MaxP95WaitMs))
	}
	if slo.MaxP99WaitMs > 0 && r.Wait.P99 > slo.MaxP99WaitMs {
		fails = append(fails, fmt.Sprintf("wait p99 %.2fms > SLO %.2fms", r.Wait.P99, slo.MaxP99WaitMs))
	}
	if slo.MaxP95ServiceMs > 0 && r.Service.P95 > slo.MaxP95ServiceMs {
		fails = append(fails, fmt.Sprintf("service p95 %.2fms > SLO %.2fms", r.Service.P95, slo.MaxP95ServiceMs))
	}
	if slo.MaxP99ServiceMs > 0 && r.Service.P99 > slo.MaxP99ServiceMs {
		fails = append(fails, fmt.Sprintf("service p99 %.2fms > SLO %.2fms", r.Service.P99, slo.MaxP99ServiceMs))
	}
	if slo.MinThroughput > 0 && r.Throughput < slo.MinThroughput {
		fails = append(fails, fmt.Sprintf("throughput %.1f jobs/s < SLO %.1f", r.Throughput, slo.MinThroughput))
	}
	if slo.MinCrossTenantWarm > 0 && r.CrossTenantWarm < slo.MinCrossTenantWarm {
		fails = append(fails, fmt.Sprintf("cross-tenant warm runs %d < SLO %d", r.CrossTenantWarm, slo.MinCrossTenantWarm))
	}
	if slo.MaxRejections >= 0 && r.Rejections > slo.MaxRejections {
		fails = append(fails, fmt.Sprintf("rejections %d > SLO %d", r.Rejections, slo.MaxRejections))
	}
	return fails
}
