// Package server turns the runtime into a long-running multi-tenant
// service: a RegionServer accepts parallel-region job submissions from
// many tenants, applies admission control over a bounded queue (typed
// ErrQueueFull backpressure), dispatches admitted jobs under weighted
// fair queueing with per-tenant quotas, and shares one probe/decision
// cache (internal/decstore) across every tenant — tenant B's first
// submission of a region tenant A already probed takes the probe-free
// fast path, paying zero probing periods (ROADMAP item 2, the
// "hetmp-as-a-service" story; EngineCL's engine-style host API and
// HEROv2's persistent runtime layer are the references).
//
// Scheduling is deterministic by construction: one dispatch core
// (dispatch.go) owns every selection, tenants advance a virtual-time
// clock (vtime += cost/weight on dispatch), and in preload mode
// (StartPaused + sequential submission + Resume) the dispatch sequence
// is a pure function of the admission order — completions only affect
// when the next slot frees, never which job is picked. DispatchHash
// fingerprints the sequence so a seeded load run can assert bit-equal
// ordering.
package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"hetmp/internal/telemetry"
)

// Typed admission errors. Clients match with errors.Is and retry with
// backoff (ErrQueueFull) or give up (ErrDraining/ErrStopped/ErrBadSpec).
var (
	// ErrQueueFull rejects a submission once the bounded queue is at
	// QueueDepth — the server is saturated; back off and retry.
	ErrQueueFull = errors.New("server: queue full")
	// ErrDraining rejects submissions while a graceful drain completes
	// the admitted backlog.
	ErrDraining = errors.New("server: draining")
	// ErrStopped rejects submissions after Close.
	ErrStopped = errors.New("server: stopped")
	// ErrBadSpec rejects a Spec that asks for more than one job may
	// (the max* ceilings) or whose OpsPerByte is not a usable number.
	ErrBadSpec = errors.New("server: bad spec")
)

// Ceilings on what one Spec may ask for. Without them a single remote
// hetmp.submit holds an in-flight slot — and Drain — for as long as it
// likes. Measured on the 2-vCPU reference host, a job costs about
// 0.5 µs of host time per iteration, 45 µs per invocation and 1 µs per
// page per invocation, so a job at all three ceilings at once holds
// its slot for about 10 s. The largest job any workload, smoke or test
// submits (24,576 iterations in all, 6 invocations, 64 pages) sits
// about two orders of magnitude below each.
const (
	maxJobIterations = 1 << 22 // Iterations × Invocations
	maxInvocations   = 1 << 10
	maxPages         = 1 << 12
	maxOpsPerByte    = 1 << 20
)

// Spec describes one parallel-region job: a synthetic work-sharing
// region characterized by iteration count, footprint and compute
// intensity. Two jobs with equal signatures — from any tenants — share
// one decision cache entry.
type Spec struct {
	// Tenant is the submitting tenant's name. Required.
	Tenant string
	// Region names the parallel region. Required.
	Region string
	// Iterations per region invocation. Defaults to 4096.
	Iterations int
	// Invocations of the region within the job. Defaults to 4. The
	// next job with this signature runs probe-free whatever the count.
	Invocations int
	// OpsPerByte is the region's compute intensity. Defaults to 32.
	OpsPerByte float64
	// Pages is the region's DSM footprint in pages. Defaults to 32.
	Pages int
	// Priority orders jobs within a tenant's queue (higher first;
	// FIFO within a priority). It does not affect cross-tenant
	// fairness.
	Priority int
}

func (sp Spec) withDefaults() Spec {
	if sp.Iterations <= 0 {
		sp.Iterations = 4096
	}
	if sp.Invocations <= 0 {
		sp.Invocations = 4
	}
	if sp.OpsPerByte <= 0 {
		sp.OpsPerByte = 32
	}
	if sp.Pages <= 0 {
		sp.Pages = 32
	}
	return sp
}

// check reports why a defaulted Spec may not be admitted, as an
// ErrBadSpec, or nil. The comparison is written so that a NaN
// OpsPerByte fails it.
func (sp Spec) check() error {
	switch {
	case !(sp.OpsPerByte <= maxOpsPerByte):
		return fmt.Errorf("%w: opsperbyte %g, want at most %d", ErrBadSpec, sp.OpsPerByte, maxOpsPerByte)
	case sp.Invocations > maxInvocations:
		return fmt.Errorf("%w: %d invocations, want at most %d", ErrBadSpec, sp.Invocations, maxInvocations)
	case sp.Iterations > maxJobIterations/sp.Invocations:
		return fmt.Errorf("%w: %d iterations × %d invocations, want at most %d in all",
			ErrBadSpec, sp.Iterations, sp.Invocations, maxJobIterations)
	case sp.Pages > maxPages:
		return fmt.Errorf("%w: %d pages, want at most %d", ErrBadSpec, sp.Pages, maxPages)
	}
	return nil
}

// Sig is the job's region signature — the shared decision-cache key.
// It folds in the iteration count a stored decision is adopted on, so
// equal signatures mean the stored entry is adopted.
func (sp Spec) Sig() string {
	sp = sp.withDefaults()
	return fmt.Sprintf("%s/i%d/k%g/p%d", sp.Region, sp.Iterations, sp.OpsPerByte, sp.Pages)
}

// cost is the job's virtual-time cost: total iterations dispatched.
func (sp Spec) cost() int64 {
	sp = sp.withDefaults()
	return max(1, int64(sp.Iterations)*int64(sp.Invocations))
}

// ExecResult is what an Executor reports for one completed job.
type ExecResult struct {
	// VirtualNs is the job's simulated makespan.
	VirtualNs int64
	// Faults is the job's DSM fault count.
	Faults int64
	// Probes is how many probing periods the job paid.
	Probes int
	// Predictions is how many regions adopted a stored decision.
	Predictions int
}

// Executor runs one job to completion. Implementations must be safe
// for concurrent Execute calls and deterministic per Spec (the sim
// executor derives its seed from the signature, never from arrival
// order).
type Executor interface {
	Execute(sp Spec) (ExecResult, error)
}

// Result is the server's answer for one submitted job.
type Result struct {
	Tenant string
	Region string
	Sig    string
	// Seq is the job's admission sequence number (0-based, global).
	Seq int
	// Wait is wall-clock time from admission to dispatch.
	Wait time.Duration
	// Service is wall-clock time from dispatch to completion,
	// including any probe-lane wait.
	Service time.Duration
	// VirtualNs is the job's simulated makespan.
	VirtualNs int64
	// Faults is the job's DSM fault count.
	Faults int64
	// Probes and Predictions mirror ExecResult.
	Probes      int
	Predictions int
	// Warm reports that the job ran probe-free (zero probing periods,
	// at least one adopted prediction).
	Warm bool
	// CrossTenantWarm reports a warm run whose cache entry was first
	// produced by a different tenant — the shared-cache payoff.
	CrossTenantWarm bool
	// Chunks is how many chunks the job's plan held — always ≥ 1: one
	// whole-job chunk without members or for a cold prober, a split
	// across the serving nodes otherwise.
	Chunks int
	// Rehomed is how many of those chunks were moved off their planned
	// node by churn.
	Rehomed int
	// Err is the executor's error, if any.
	Err error
}

// TenantStats is a live per-tenant accounting snapshot.
type TenantStats struct {
	Weight               float64
	Submitted            int
	Admitted             int
	Rejected             int
	Dispatched           int
	Completed            int
	Failed               int
	Warm                 int
	CrossTenantWarm      int
	WarmProbes           int // probes paid by lane-warm jobs; must stay 0
	IterationsDispatched int64
	QueueDepth           int
}

// Stats is a whole-server snapshot.
type Stats struct {
	Tenants         map[string]TenantStats
	QueueDepth      int
	InFlight        int
	Submitted       int
	Admitted        int
	Rejected        int
	Dispatched      int
	Completed       int
	Failed          int
	CacheHits       int // warm completions
	CacheMisses     int // cold completions
	CrossTenantWarm int
	WarmProbes      int // must stay 0
	BudgetWindows   int
	VirtualNs       int64
	DispatchHash    uint64
	// Membership is the elastic-membership snapshot; nil when the
	// layer is off.
	Membership *MembershipStats
}

// Config tunes a RegionServer.
type Config struct {
	// QueueDepth bounds the total number of queued (admitted, not yet
	// dispatched) jobs across all tenants. Defaults to 256.
	QueueDepth int
	// MaxInFlight bounds concurrently executing jobs. Defaults to 8.
	MaxInFlight int
	// TenantIterBudget caps the iterations one tenant may dispatch per
	// budget window; a tenant over budget yields to others until every
	// queued tenant is budget-blocked, which opens the next window.
	// Windows are counted in dispatches, never wall time, so budgeting
	// preserves determinism. 0 disables budgeting.
	TenantIterBudget int64
	// Weights are per-tenant fair-share weights. A tenant not listed
	// gets weight 1.
	Weights map[string]float64
	// StartPaused admits but does not dispatch until Resume — the
	// preload gate a deterministic load run uses to fix the admission
	// order before any scheduling happens.
	StartPaused bool
	// Executor runs jobs. Defaults to a SimExecutor with no decision
	// store, so every job probes; NewSimServer installs a shared one.
	Executor Executor
	// Telemetry, when non-nil, receives per-tenant queue-depth gauges,
	// wait/service histograms, admission counters and cache hit/miss
	// counters.
	Telemetry *telemetry.Telemetry
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
	// Members, when non-empty, turns on elastic cluster membership:
	// warm jobs split into invocation chunks apportioned across these
	// node lanes, and AddNode/RemoveNode/CordonNode (or a Churn
	// schedule) reshape the set live. Empty means no lanes: every job
	// is one whole-job chunk run on its own goroutine.
	Members []Member
	// Churn is a deterministic membership-churn schedule, applied at
	// dispatch milestones and folded into DispatchHash. Requires Members.
	Churn []ChurnEvent
}

// RegionServer is the multi-tenant region service, the shell around the
// dispatch core (dispatch.go). Construct with New, submit with
// Submit/SubmitAsync, stop with Drain then Close.
type RegionServer struct {
	cfg Config // defaulted: Executor and Logf are never nil

	mu   sync.Mutex
	d    *dispatch
	idle []chan struct{} // Drain waiters for the all-idle signal

	wake     chan struct{} // 1-buffered: the dispatcher has a pass to run
	done     chan struct{} // closed when the dispatcher exits
	wakes    sync.Map      // *memberState → its node lane's wake, like wake
	tels     sync.Map      // tenant name → *tenantTel
	memberWG sync.WaitGroup
}

// ticket is the shell's half of an admitted job, carried by the core as
// the job's tag: its reply channel, admission time and, once dispatched, wait.
type ticket struct {
	admitted time.Time
	wait     time.Duration
	reply    chan Result
}

// tenantTel is one tenant's telemetry handles, created once when the
// tenant first appears (the §10 contract: no registry lookups on hot
// paths). All nil without Config.Telemetry.
type tenantTel struct {
	depth                                    *telemetry.Gauge
	waitH, svcH                              *telemetry.Histogram
	rejects, hits, misses, xtenant, dispatch *telemetry.Counter
}

func (s *RegionServer) tel(tenant string) *tenantTel {
	if t, ok := s.tels.Load(tenant); ok {
		return t.(*tenantTel)
	}
	t := &tenantTel{}
	if m := s.cfg.Telemetry.Metrics(); m != nil {
		lbl := telemetry.L("tenant", tenant)
		t.depth = m.Gauge("hetserve_queue_depth", lbl)
		t.waitH = m.Histogram("hetserve_wait", lbl)
		t.svcH = m.Histogram("hetserve_service", lbl)
		t.rejects = m.Counter("hetserve_rejections_total", lbl)
		t.hits = m.Counter("hetserve_cache_hits_total", lbl)
		t.misses = m.Counter("hetserve_cache_misses_total", lbl)
		t.xtenant = m.Counter("hetserve_cross_tenant_warm_total", lbl)
		t.dispatch = m.Counter("hetserve_dispatch_total", lbl)
	}
	got, _ := s.tels.LoadOrStore(tenant, t)
	return got.(*tenantTel)
}

// New builds a server. Call Close when done.
func New(cfg Config) *RegionServer {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 8
	}
	if cfg.Executor == nil {
		cfg.Executor = NewSimExecutor(SimExecutorConfig{})
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &RegionServer{cfg: cfg, wake: make(chan struct{}, 1), done: make(chan struct{})}
	s.step(func() { s.d = newDispatch(cfg) })
	go s.dispatcher()
	return s
}

// dispatcher runs the core's dispatch pass each time it is woken: after
// an admission, Resume, Drain, Close, or a step that finished jobs. It
// exits once the server is stopped and idle.
func (s *RegionServer) dispatcher() {
	defer close(s.done)
	for {
		stopped := false
		s.step(func() { s.d.pump(); stopped = s.d.stopped && s.d.idle() })
		if stopped {
			return
		}
		<-s.wake
	}
}

// signal wakes the dispatcher or a node lane without blocking.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// step is the shell's one way into the core. call runs under s.mu, and
// so does stamping the jobs it dispatched; everything else the core
// asked for is applied after the unlock, so no Logf call, executor
// call, channel operation or goroutine start runs under s.mu.
func (s *RegionServer) step(call func()) {
	s.mu.Lock()
	call()
	s.release()
}

// release ends a call into the core begun with s.mu.Lock. A laneless
// chunk's goroutine calls it directly: a closure it passed to step would
// escape to the heap (step starts that goroutine), once per job.
func (s *RegionServer) release() {
	a := s.d.take()
	now := time.Now()
	for _, q := range a.queues {
		tk := q.j.tag.(*ticket)
		tk.wait = now.Sub(tk.admitted)
	}
	var idle []chan struct{}
	if a.idle {
		idle, s.idle = s.idle, nil
	}
	s.memberWG.Add(len(a.starts))
	s.mu.Unlock()

	for _, m := range a.starts {
		wake := make(chan struct{}, 1)
		s.wakes.Store(m, wake)
		go s.memberLoop(m, wake)
	}
	for _, m := range a.wakes {
		// A lane not started yet has no channel; it pulls first anyway.
		if w, ok := s.wakes.Load(m); ok {
			signal(w.(chan struct{}))
		}
	}
	for _, c := range a.laneless {
		go func() {
			res, err := s.execute(c)
			s.mu.Lock()
			s.d.complete(nil, c, res, err)
			s.release()
		}()
	}
	for _, q := range a.queues {
		t := s.tel(q.j.spec.Tenant)
		t.dispatch.Inc()
		t.depth.Set(float64(q.depth))
	}
	for _, line := range a.logs {
		s.cfg.Logf("%s", line)
	}
	for _, f := range a.done {
		r, tk := f.r, f.j.tag.(*ticket)
		r.Wait = tk.wait
		r.Service = now.Sub(tk.admitted) - tk.wait
		t := s.tel(r.Tenant)
		t.waitH.Observe(r.Wait)
		t.svcH.Observe(r.Service)
		if r.Err == nil {
			if r.Warm {
				t.hits.Inc()
			} else {
				t.misses.Inc()
			}
			if r.CrossTenantWarm {
				t.xtenant.Inc()
			}
		}
		tk.reply <- r
	}
	for _, ch := range idle {
		close(ch)
	}
	if len(a.done) > 0 {
		signal(s.wake) // in-flight slots freed
	}
}

// Submit enqueues a job and blocks until it completes. Admission
// errors (ErrBadSpec, ErrQueueFull, ErrDraining, ErrStopped) return
// immediately.
func (s *RegionServer) Submit(sp Spec) (Result, error) {
	ch, err := s.SubmitAsync(sp)
	if err != nil {
		return Result{}, err
	}
	return <-ch, nil
}

// SubmitAsync enqueues a job and returns a channel that will carry its
// Result. The admission decision is synchronous: a spec over the
// ceilings, a full queue, a draining server or a stopped server reject
// here, with the tenant's rejection counter bumped.
func (s *RegionServer) SubmitAsync(sp Spec) (<-chan Result, error) {
	sp = sp.withDefaults()
	if sp.Tenant == "" || sp.Region == "" {
		return nil, fmt.Errorf("server: spec needs Tenant and Region")
	}
	tk := &ticket{admitted: time.Now(), reply: make(chan Result, 1)}
	var depth int
	var err error
	s.step(func() { depth, err = s.d.admit(sp, tk) })
	t := s.tel(sp.Tenant)
	if err != nil {
		t.rejects.Inc()
		return nil, fmt.Errorf("server: tenant %s region %s: %w", sp.Tenant, sp.Region, err)
	}
	t.depth.Set(float64(depth))
	signal(s.wake)
	return tk.reply, nil
}

// Resume opens the dispatch gate of a StartPaused server. The preload
// pattern — StartPaused, submit the whole workload sequentially, then
// Resume — pins the admission order, which pins the entire dispatch
// sequence.
func (s *RegionServer) Resume() {
	s.step(func() { s.d.resume() })
	signal(s.wake)
}

// Drain stops admitting (new submissions get ErrDraining) and blocks
// until every admitted job has completed. The server stays alive for
// Stats; call Close to stop it.
func (s *RegionServer) Drain() {
	ch := make(chan struct{})
	idle := false
	s.step(func() {
		if idle = s.d.drain(); !idle {
			s.idle = append(s.idle, ch)
		}
	})
	signal(s.wake)
	if !idle {
		<-ch
		s.cfg.Logf("server: drained")
	}
}

// Close drains and stops the dispatcher and any member node lanes.
// Idempotent.
func (s *RegionServer) Close() {
	s.Drain()
	s.step(func() { s.d.stop() })
	signal(s.wake)
	<-s.done
	s.memberWG.Wait()
}

// Stats returns a deep snapshot.
func (s *RegionServer) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.stats()
}

// DispatchHash fingerprints the dispatch sequence so far (FNV-1a over
// "seq:tenant:sig" records in dispatch order, with churn records
// interleaved at their milestones). Two runs of the same preloaded
// workload — including its churn schedule — must produce equal hashes.
func (s *RegionServer) DispatchHash() uint64 { return s.Stats().DispatchHash }

// DispatchOrder returns a copy of the most recent dispatch and churn
// records — at most dispatchOrderKeep (4096) of them; older records
// survive only in DispatchHash.
func (s *RegionServer) DispatchOrder() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.recent()
}
