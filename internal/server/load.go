package server

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"hetmp/internal/chaos"
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
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("bad weight %q: want a positive number", part)
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
// in-process RegionServer.
type LoadConfig struct {
	// Jobs is the total submission count. Defaults to 200.
	Jobs int
	// Tenants is how many synthetic tenants submit. Defaults to 4.
	Tenants int
	// Signatures is how many distinct region shapes the workload
	// mixes. Defaults to 6.
	Signatures int
	// Seed drives tenant/shape assignment and executor seeds. The
	// same seed reproduces the same workload bit-for-bit.
	Seed int64
	// QueueDepth / MaxInFlight / TenantIterBudget / Weights configure
	// the server under test. QueueDepth defaults to Jobs (preload
	// admits everything); set it lower with Preload off to exercise
	// backpressure.
	QueueDepth       int
	MaxInFlight      int
	TenantIterBudget int64
	Weights          map[string]float64
	// Preload (default true, via the zero value of NoPreload) submits
	// the whole workload to a paused server, then resumes: admission
	// order — and therefore dispatch order — is deterministic.
	NoPreload bool
	// MaxRetries is how many times a rejected submission retries with
	// backoff in NoPreload mode. Defaults to 25.
	MaxRetries int
	// ChaosProfile runs every job under the named chaos profile.
	ChaosProfile string
	// CacheDir persists the shared decision cache ("" = in-memory).
	CacheDir string
	// Members, when non-empty, turns on the elastic-membership layer:
	// jobs split into per-node chunks apportioned by weight.
	Members []Member
	// Churn is the membership-churn schedule, applied at dispatch
	// milestones (ParseChurn parses the flag form).
	Churn []ChurnEvent
	// SLO is asserted after the run; failures land in
	// LoadReport.SLOFailures.
	SLO SLO
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

func (c LoadConfig) withDefaults() LoadConfig {
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
	// Membership fields mirror Stats.Membership when the elastic-
	// membership layer is on (LostIterations must be 0 — exactly-once
	// accounting across churn is asserted, not hoped for).
	LostIterations int              `json:"lost_iterations,omitempty"`
	ChurnApplied   int              `json:"churn_applied,omitempty"`
	Rehomed        int              `json:"rehomed,omitempty"`
	Reprobes       int              `json:"reprobes,omitempty"`
	Membership     *MembershipStats `json:"membership,omitempty"`
	// DeterminismChecked/DeterminismOK report the double-run check
	// (RunLoadVerified).
	DeterminismChecked bool `json:"determinism_checked"`
	DeterminismOK      bool `json:"determinism_ok,omitempty"`
}

// Workload generates the seeded job sequence for a config. Tenants
// are "t0".."tN"; signatures mix iteration counts and footprints so
// several shapes coexist in the shared cache. The same seed yields
// the same sequence — hetload's remote mode reuses it against a
// daemon.
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
	cfg = cfg.withDefaults()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.ChaosProfile != "" {
		// Resolve the name before anything is built or admitted: the
		// executor would otherwise fail it once per job.
		if _, err := chaos.Named(cfg.ChaosProfile, cfg.Seed); err != nil {
			return LoadReport{}, err
		}
	}
	xcfg := SimExecutorConfig{Seed: cfg.Seed, ChaosProfile: cfg.ChaosProfile}
	x := NewSimExecutor(xcfg)
	store, err := NewCache(cfg.CacheDir, x.Fingerprint())
	if err != nil {
		return LoadReport{}, err
	}
	xcfg.Store = store
	x = NewSimExecutor(xcfg)
	rs := New(Config{
		QueueDepth:       cfg.QueueDepth,
		MaxInFlight:      cfg.MaxInFlight,
		TenantIterBudget: cfg.TenantIterBudget,
		Weights:          cfg.Weights,
		StartPaused:      !cfg.NoPreload,
		Executor:         x,
		Members:          cfg.Members,
		Churn:            cfg.Churn,
		Logf:             cfg.Logf,
	})
	defer rs.Close()

	specs := Workload(cfg)
	report := LoadReport{
		Jobs: cfg.Jobs, Tenants: cfg.Tenants, Signatures: cfg.Signatures,
		Seed: cfg.Seed, ChaosProfile: cfg.ChaosProfile, Preload: !cfg.NoPreload,
		TenantJobs: map[string]int{},
	}

	start := time.Now()
	var results []Result
	if cfg.NoPreload {
		results = submitConcurrent(rs, specs, cfg, &report)
	} else {
		chans := make([]<-chan Result, 0, len(specs))
		for i, sp := range specs {
			ch, err := rs.SubmitAsync(sp)
			if err != nil {
				return report, fmt.Errorf("preload submit %d: %w", i, err)
			}
			chans = append(chans, ch)
		}
		logf("hetload: preloaded %d jobs across %d tenants, resuming", len(specs), cfg.Tenants)
		start = time.Now()
		rs.Resume()
		for _, ch := range chans {
			results = append(results, <-ch)
		}
	}
	rs.Drain()
	wall := time.Since(start)
	if err := x.Save(); err != nil {
		return report, fmt.Errorf("cache save: %w", err)
	}

	st := rs.Stats()
	report.WallSeconds = wall.Seconds()
	report.Completed = st.Completed
	report.Failed = st.Failed
	report.Rejections = st.Rejected
	report.CacheHits = st.CacheHits
	report.CacheMisses = st.CacheMisses
	report.CrossTenantWarm = st.CrossTenantWarm
	report.WarmProbes = st.WarmProbes
	report.BudgetWindows = st.BudgetWindows
	report.VirtualSeconds = time.Duration(st.VirtualNs).Seconds()
	report.DispatchHash = fmt.Sprintf("%016x", st.DispatchHash)
	if st.Membership != nil {
		report.Membership = st.Membership
		report.LostIterations = int(st.Membership.LostIterations)
		report.ChurnApplied = st.Membership.ChurnApplied
		report.Rehomed = st.Membership.Rehomed
		report.Reprobes = st.Membership.Reprobes
	}
	if wall > 0 {
		report.Throughput = float64(st.Completed) / wall.Seconds()
	}
	var waits, svcs []time.Duration
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		waits = append(waits, r.Wait)
		svcs = append(svcs, r.Service)
		report.TenantJobs[r.Tenant]++
	}
	report.Wait = ComputePercentiles(waits)
	report.Service = ComputePercentiles(svcs)
	report.SLOFailures = CheckSLO(cfg.SLO, report)
	logf("hetload: %d jobs in %.2fs (%.1f jobs/s), wait p95 %.2fms, %d cache hits (%d cross-tenant), %d rejections",
		report.Completed, report.WallSeconds, report.Throughput, report.Wait.P95,
		report.CacheHits, report.CrossTenantWarm, report.Rejections)
	if report.Membership != nil {
		logf("hetload: membership: %d churn events applied, %d chunks rehomed, %d reprobes, %d lost iterations",
			report.ChurnApplied, report.Rehomed, report.Reprobes, report.LostIterations)
	}
	return report, nil
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

// submitConcurrent is the NoPreload path: one goroutine per job,
// retrying typed queue-full rejections with seeded-jitter backoff.
// Admission order is racy by construction — this mode exercises
// backpressure, not determinism.
func submitConcurrent(rs *RegionServer, specs []Spec, cfg LoadConfig, report *LoadReport) []Result {
	type outcome struct {
		r       Result
		retries int
		ok      bool
	}
	outcomes := make([]outcome, len(specs))
	done := make(chan int, len(specs))
	for i, sp := range specs {
		go func(i int, sp Spec) {
			backoff := time.Millisecond
			for attempt := 0; ; attempt++ {
				r, err := rs.Submit(sp)
				if err == nil {
					outcomes[i] = outcome{r: r, retries: attempt, ok: true}
					break
				}
				if attempt >= cfg.MaxRetries {
					outcomes[i] = outcome{retries: attempt}
					break
				}
				time.Sleep(backoff)
				if backoff < 64*time.Millisecond {
					backoff *= 2
				}
			}
			done <- i
		}(i, sp)
	}
	var results []Result
	for range specs {
		i := <-done
		if outcomes[i].ok {
			results = append(results, outcomes[i].r)
		}
		report.Retries += outcomes[i].retries
	}
	return results
}

// ComputePercentiles summarizes a latency sample set in milliseconds.
func ComputePercentiles(ds []time.Duration) Percentiles {
	if len(ds) == 0 {
		return Percentiles{}
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) float64 {
		idx := int(q*float64(len(sorted))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		return float64(sorted[idx]) / float64(time.Millisecond)
	}
	return Percentiles{P50: at(0.50), P95: at(0.95), P99: at(0.99)}
}

// CheckSLO evaluates a report against an SLO, returning one line per
// violated assertion (empty = all met).
func CheckSLO(slo SLO, r LoadReport) []string {
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
