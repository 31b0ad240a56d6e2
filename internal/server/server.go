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
// Scheduling is deterministic by construction: one scheduler goroutine
// owns every selection, tenants advance a virtual-time clock
// (vtime += cost/weight on dispatch), and in preload mode (StartPaused
// + sequential submission + Resume) the dispatch sequence is a pure
// function of the admission order — completions only affect when the
// next slot frees, never which job is picked. DispatchHash fingerprints
// the sequence so a seeded load run can assert bit-equal ordering.
package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
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
	c := int64(sp.Iterations) * int64(sp.Invocations)
	if c < 1 {
		c = 1
	}
	return c
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
	// Executor runs jobs. Defaults to a SimExecutor over the paper
	// platform with a fresh in-memory shared decision cache.
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
	// Churn is a deterministic membership-churn schedule, applied by
	// the scheduler at dispatch milestones and folded into
	// DispatchHash. Requires Members.
	Churn []ChurnEvent
}

// job is one admitted job. Its state changes only under s.mu: it is
// dispatched, then either running (its chunks queued) or parked on its
// signature's probe lane, and its last chunk to finish finishes it.
// No goroutine belongs to a job.
type job struct {
	spec       Spec
	sig        string
	seq        int
	admitted   time.Time
	dispatched time.Time
	result     chan Result

	// prober is set under s.mu, in dispatch order: at dispatch for the
	// first job of a cold signature, and at a failed prober's hand-off
	// for the earliest-dispatched parked job. Letting goroutine
	// scheduling pick the prober made virtual time timing-dependent on
	// the membership path (a later split-plan job winning the race
	// collapses to a whole-job plan with different chunk seeds).
	prober bool

	// Set by planLocked under s.mu at dispatch: the chunk plan and its
	// exactly-once accounting. invsPlanned must equal invsDone when the
	// last chunk completes — the zero-lost-iterations assertion.
	plan        []*chunk
	invsPlanned int
	invsDone    int
	chunksLeft  int
}

type tenantState struct {
	name     string
	weight   float64
	queue    []*job // priority desc, then seq asc
	vtime    float64
	inFlight int
	spent    int64 // iterations dispatched in the current budget window
	stats    TenantStats

	// Telemetry handles, created once when the tenant first appears
	// (the §10 contract: no registry lookups on hot paths).
	depth    *telemetry.Gauge
	waitH    *telemetry.Histogram
	svcH     *telemetry.Histogram
	rejects  *telemetry.Counter
	hits     *telemetry.Counter
	misses   *telemetry.Counter
	xtenant  *telemetry.Counter
	dispatch *telemetry.Counter
}

// RegionServer is the multi-tenant region service. Construct with New,
// submit with Submit/SubmitAsync, stop with Drain then Close.
type RegionServer struct {
	cfg  Config
	exec Executor

	mu            sync.Mutex
	tenants       map[string]*tenantState
	order         []string // tenant names, sorted — deterministic iteration
	queued        int
	inFlight      int
	seq           int
	paused        bool
	draining      bool
	stopped       bool
	windows       int
	lanes         map[string]*lane
	hash          hashState
	dispatchOrder []string
	totals        Stats
	idle          []chan struct{} // waiters for the all-drained condition

	// Elastic membership (nil maps when Config.Members is empty).
	members     map[string]*memberState
	memberOrder []string // member names, sorted — deterministic iteration
	churn       []ChurnEvent
	churnNext   int
	memStats    MembershipStats
	memberWG    sync.WaitGroup

	wake chan struct{}
	done chan struct{}
}

type hashState struct {
	h uint64
}

func newHashState() hashState { return hashState{h: 14695981039346656037} } // FNV-1a offset

func (hs *hashState) mix(s string) {
	h := fnv.New64a()
	h.Write([]byte(s))
	// Chain: mix the record hash into the running hash (order matters).
	hs.h = (hs.h ^ h.Sum64()) * 1099511628211
}

// dispatchOrderKeep is how many dispatch records DispatchOrder retains.
// The hash chain covers every record; the record log itself is a
// debugging aid and must not grow for the life of a daemon.
const dispatchOrderKeep = 4096

// recordLocked folds one dispatch or churn record into the hash chain
// and the bounded record log (compacted every dispatchOrderKeep
// appends, so the cost per record stays constant).
func (s *RegionServer) recordLocked(rec string) {
	s.hash.mix(rec)
	if len(s.dispatchOrder) == 2*dispatchOrderKeep {
		s.dispatchOrder = append(s.dispatchOrder[:0], s.dispatchOrder[dispatchOrderKeep:]...)
	}
	s.dispatchOrder = append(s.dispatchOrder, rec)
}

// lane serializes cold probing per region signature: the first job of
// a signature (the prober) executes alone; same-signature jobs
// dispatched while it probes park here, holding their in-flight slot
// but no goroutine, and start probe-free off the shared cache entry
// once it succeeds. A signature without a lane is cold; a lane that is
// not probing is warm, and its jobs start at dispatch.
type lane struct {
	firstTenant string
	probing     bool
	parked      []*job // in dispatch order
}

// effects is what a state change under s.mu asks of the world outside
// it. Locked code only records; apply performs it after the unlock, so
// no channel operation, goroutine start or telemetry call runs under
// s.mu.
type effects struct {
	wakes      []chan struct{} // member lanes handed work or told to exit
	laneless   []*chunk        // chunks with no lane, each run on its own goroutine
	dispatched []dispatchNote
	finished   []finished
	idle       []chan struct{} // Drain waiters released by the all-idle state
}

// dispatchNote is one dispatch's telemetry: the tenant and its queue
// depth after the dispatch.
type dispatchNote struct {
	t     *tenantState
	depth int
}

// finished is one job's reply and its telemetry.
type finished struct {
	t *tenantState
	j *job
	r Result
}

func (s *RegionServer) apply(fx *effects) {
	for _, w := range fx.wakes {
		signalChan(w)
	}
	for _, c := range fx.laneless {
		go func() {
			s.executeChunk(c)
			s.chunkFinished(c, nil)
		}()
	}
	for _, d := range fx.dispatched {
		d.t.dispatch.Inc()
		d.t.depth.Set(float64(d.depth))
	}
	for _, f := range fx.finished {
		f.t.waitH.Observe(f.r.Wait)
		f.t.svcH.Observe(f.r.Service)
		if f.r.Err == nil {
			if f.r.Warm {
				f.t.hits.Inc()
			} else {
				f.t.misses.Inc()
			}
			if f.r.CrossTenantWarm {
				f.t.xtenant.Inc()
			}
		}
	}
	for _, ch := range fx.idle {
		close(ch)
	}
	for _, f := range fx.finished {
		f.j.result <- f.r
	}
	if len(fx.finished) > 0 {
		s.signal() // in-flight slots freed
	}
}

// New builds a server. Call Close when done.
func New(cfg Config) *RegionServer {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 8
	}
	exec := cfg.Executor
	if exec == nil {
		exec = NewSimExecutor(SimExecutorConfig{})
	}
	s := &RegionServer{
		cfg:     cfg,
		exec:    exec,
		tenants: map[string]*tenantState{},
		lanes:   map[string]*lane{},
		paused:  cfg.StartPaused,
		hash:    newHashState(),
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	if len(cfg.Members) > 0 {
		// Before the scheduler goroutine exists, so no lock is needed.
		s.initMembership()
	}
	go s.schedule()
	return s
}

func (s *RegionServer) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// signal wakes the scheduler loop. Never call it while holding s.mu
// (channel ops under a mutex are a blocking-lock violation even when
// buffered).
func (s *RegionServer) signal() { signalChan(s.wake) }

func (s *RegionServer) tenant(name string) *tenantState {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	w := 1.0
	if cw, ok := s.cfg.Weights[name]; ok && cw > 0 {
		w = cw
	}
	t := &tenantState{name: name, weight: w}
	t.stats.Weight = w
	// A newly active tenant starts at the current virtual floor so it
	// cannot bank credit from its idle past and lock out incumbents.
	t.vtime = s.vfloorLocked()
	if m := s.cfg.Telemetry.Metrics(); m != nil {
		lbl := telemetry.L("tenant", name)
		t.depth = m.Gauge("hetserve_queue_depth", lbl)
		t.waitH = m.Histogram("hetserve_wait", lbl)
		t.svcH = m.Histogram("hetserve_service", lbl)
		t.rejects = m.Counter("hetserve_rejections_total", lbl)
		t.hits = m.Counter("hetserve_cache_hits_total", lbl)
		t.misses = m.Counter("hetserve_cache_misses_total", lbl)
		t.xtenant = m.Counter("hetserve_cross_tenant_warm_total", lbl)
		t.dispatch = m.Counter("hetserve_dispatch_total", lbl)
	}
	s.tenants[name] = t
	s.order = append(s.order, name)
	sort.Strings(s.order)
	return t
}

// vfloorLocked is the minimum virtual time over tenants that still
// have queued or running work (the WFQ virtual clock).
func (s *RegionServer) vfloorLocked() float64 {
	floor := 0.0
	seen := false
	for _, name := range s.order {
		t := s.tenants[name]
		if len(t.queue) == 0 && t.inFlight == 0 {
			continue
		}
		if !seen || t.vtime < floor {
			floor, seen = t.vtime, true
		}
	}
	return floor
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
	s.mu.Lock()
	t := s.tenant(sp.Tenant)
	t.stats.Submitted++
	s.totals.Submitted++
	admitErr := sp.check()
	switch {
	case admitErr != nil:
	case s.stopped:
		admitErr = ErrStopped
	case s.draining:
		admitErr = ErrDraining
	case s.queued >= s.cfg.QueueDepth:
		admitErr = ErrQueueFull
	}
	if admitErr != nil {
		t.stats.Rejected++
		s.totals.Rejected++
		rejects := t.rejects
		s.mu.Unlock()
		rejects.Inc()
		return nil, fmt.Errorf("server: tenant %s region %s: %w", sp.Tenant, sp.Region, admitErr)
	}
	j := &job{
		spec:     sp,
		sig:      sp.Sig(),
		seq:      s.seq,
		admitted: time.Now(),
		result:   make(chan Result, 1),
	}
	s.seq++
	t.stats.Admitted++
	s.totals.Admitted++
	s.queued++
	// Insert keeping priority desc, seq asc (stable FIFO within a
	// priority).
	at := len(t.queue)
	for i, q := range t.queue {
		if sp.Priority > q.spec.Priority {
			at = i
			break
		}
	}
	t.queue = append(t.queue, nil)
	copy(t.queue[at+1:], t.queue[at:])
	t.queue[at] = j
	if d := len(t.queue); d > t.stats.QueueDepth {
		t.stats.QueueDepth = d
	}
	depth, dlen := t.depth, len(t.queue)
	s.mu.Unlock()
	depth.Set(float64(dlen))
	s.signal()
	return j.result, nil
}

// Resume opens the dispatch gate of a StartPaused server. The preload
// pattern — StartPaused, submit the whole workload sequentially, then
// Resume — pins the admission order, which pins the entire dispatch
// sequence.
func (s *RegionServer) Resume() {
	s.mu.Lock()
	s.paused = false
	s.mu.Unlock()
	s.signal()
}

// pickLocked selects the next job to dispatch: among tenants with
// queued work that are within budget, the minimum virtual time wins;
// ties break on tenant name. Returns nil when nothing is eligible.
func (s *RegionServer) pickLocked() (*job, *tenantState) {
	var best *tenantState
	for _, name := range s.order {
		t := s.tenants[name]
		if len(t.queue) == 0 {
			continue
		}
		if !s.withinBudgetLocked(t) {
			continue
		}
		if best == nil || t.vtime < best.vtime {
			best = t
		}
	}
	if best == nil {
		return nil, nil
	}
	return best.queue[0], best
}

// withinBudgetLocked reports whether t may dispatch its head-of-queue
// job under the current window's iteration budget. A tenant that has
// dispatched nothing this window may always run its head job, even an
// oversized one — budgets throttle hogs, they must not starve anyone.
func (s *RegionServer) withinBudgetLocked(t *tenantState) bool {
	if s.cfg.TenantIterBudget <= 0 {
		return true
	}
	if t.spent == 0 {
		return true
	}
	return t.spent+t.queue[0].spec.cost() <= s.cfg.TenantIterBudget
}

// budgetBlockedLocked reports that work is queued but every queued
// tenant is blocked by its iteration budget — the condition that opens
// the next window.
func (s *RegionServer) budgetBlockedLocked() bool {
	if s.cfg.TenantIterBudget <= 0 {
		return false
	}
	anyQueued := false
	for _, name := range s.order {
		t := s.tenants[name]
		if len(t.queue) == 0 {
			continue
		}
		anyQueued = true
		if s.withinBudgetLocked(t) {
			return false
		}
	}
	return anyQueued
}

// schedule is the single scheduler goroutine: every selection,
// virtual-time update and budget-window decision happens here, so the
// dispatch sequence needs no cross-goroutine tie-breaking.
func (s *RegionServer) schedule() {
	for {
		var fx effects
		s.mu.Lock()
		if !s.paused {
			for s.inFlight < s.cfg.MaxInFlight {
				// d is the next dispatch milestone: due churn applies
				// here, before selection, so eligibility reflects it.
				d := s.totals.Dispatched
				s.applyChurnLocked(d, &fx)
				j, t := s.pickLocked()
				if j == nil {
					if s.budgetBlockedLocked() {
						s.windows++
						s.totals.BudgetWindows++
						for _, name := range s.order {
							s.tenants[name].spent = 0
						}
						continue
					}
					break
				}
				t.queue = t.queue[1:]
				s.queued--
				t.vtime += float64(j.spec.cost()) / t.weight
				t.spent += j.spec.cost()
				t.inFlight++
				s.inFlight++
				t.stats.Dispatched++
				t.stats.IterationsDispatched += j.spec.cost()
				s.totals.Dispatched++
				s.recordLocked(fmt.Sprintf("%d:%s:%s", j.seq, j.spec.Tenant, j.sig))
				j.dispatched = time.Now()
				parked := s.claimLaneLocked(j) // before planning: a prober's plan is whole-job
				s.planLocked(j, d)
				if !parked {
					s.startLocked(j, &fx)
				}
				fx.dispatched = append(fx.dispatched, dispatchNote{t, len(t.queue)})
			}
		}
		stopped := s.stopped && s.queued == 0 && s.inFlight == 0
		s.mu.Unlock()
		s.apply(&fx)
		if stopped {
			close(s.done)
			return
		}
		<-s.wake
	}
}

// claimLaneLocked decides at dispatch whether j runs or parks: the
// first-dispatched job of a cold signature claims the lane and probes,
// a job of a probing signature parks behind the prober, and a job of a
// warm signature runs. Deciding the prober under the scheduler lock,
// rather than letting goroutine scheduling pick it, keeps the chunk
// plans — and with them total virtual time — a function of the
// dispatch order. Reports whether j parked.
func (s *RegionServer) claimLaneLocked(j *job) bool {
	ln := s.lanes[j.sig]
	switch {
	case ln == nil:
		s.lanes[j.sig] = &lane{firstTenant: j.spec.Tenant, probing: true}
		j.prober = true
	case ln.probing:
		ln.parked = append(ln.parked, j)
		return true
	}
	return false
}

// proberDoneLocked moves a probing lane on when its prober finishes.
// On success the signature is warm for good and every parked job
// starts, in dispatch order. On failure the earliest-dispatched parked
// job becomes the prober, its plan collapsed to one whole-job chunk on
// its first node (cold probing runs whole); with nothing parked the
// signature is cold again.
func (s *RegionServer) proberDoneLocked(j *job, ok bool, fx *effects) {
	ln := s.lanes[j.sig]
	if ok {
		ln.probing = false
		for _, p := range ln.parked {
			s.startLocked(p, fx)
		}
		ln.parked = nil
		return
	}
	if len(ln.parked) == 0 {
		delete(s.lanes, j.sig)
		return
	}
	next := ln.parked[0]
	ln.parked = ln.parked[1:]
	ln.firstTenant = next.spec.Tenant
	next.prober = true
	if len(next.plan) > 1 {
		next.plan = []*chunk{{j: next, invs: next.invsPlanned, planned: next.plan[0].planned}}
		next.chunksLeft = 1
	}
	s.startLocked(next, fx)
}

// finishLocked completes a job whose last chunk is in: it aggregates
// the chunks with the exactly-once check, books the result, and moves
// the job's probe lane on when the job was its prober.
func (s *RegionServer) finishLocked(j *job, fx *effects) {
	t := s.tenants[j.spec.Tenant]
	r := Result{
		Tenant:  j.spec.Tenant,
		Region:  j.spec.Region,
		Sig:     j.sig,
		Seq:     j.seq,
		Wait:    j.dispatched.Sub(j.admitted),
		Service: time.Since(j.dispatched),
		Chunks:  len(j.plan),
	}
	for _, c := range j.plan {
		if c.err != nil && r.Err == nil {
			r.Err = c.err
		}
		r.VirtualNs += c.res.VirtualNs
		r.Faults += c.res.Faults
		r.Probes += c.res.Probes
		r.Predictions += c.res.Predictions
		if c.rehomed {
			r.Rehomed++
		}
	}
	r.Warm = r.Err == nil && r.Probes == 0 && r.Predictions > 0
	r.CrossTenantWarm = r.Warm && s.lanes[j.sig].firstTenant != j.spec.Tenant
	if j.prober {
		s.proberDoneLocked(j, r.Err == nil, fx)
	}

	t.inFlight--
	s.inFlight--
	if r.Err != nil {
		t.stats.Failed++
		s.totals.Failed++
	} else {
		if lost := j.invsPlanned - j.invsDone; lost != 0 {
			n := int64(lost) * int64(j.spec.Iterations)
			if n < 0 {
				n = -n
			}
			s.memStats.LostIterations += n
			s.logf("server: job %d lost %d invocations to churn (accounting bug)", j.seq, lost)
		}
		t.stats.Completed++
		s.totals.Completed++
		s.totals.VirtualNs += r.VirtualNs
		if r.Warm {
			t.stats.Warm++
			s.totals.CacheHits++
		} else {
			s.totals.CacheMisses++
		}
		if r.CrossTenantWarm {
			t.stats.CrossTenantWarm++
			s.totals.CrossTenantWarm++
		}
		if !j.prober && r.Probes > 0 {
			// A lane-warm job probed: the shared-cache invariant broke.
			t.stats.WarmProbes += r.Probes
			s.totals.WarmProbes += r.Probes
		}
	}
	if s.queued == 0 && s.inFlight == 0 {
		fx.idle, s.idle = s.idle, nil
	}
	fx.finished = append(fx.finished, finished{t, j, r})
}

// Drain stops admitting (new submissions get ErrDraining) and blocks
// until every admitted job has completed. The server stays alive for
// Stats; call Close to stop it.
func (s *RegionServer) Drain() {
	s.mu.Lock()
	s.draining = true
	if s.paused {
		// A paused drain would deadlock on its own gate.
		s.paused = false
	}
	if s.queued == 0 && s.inFlight == 0 {
		s.mu.Unlock()
		s.signal()
		return
	}
	ch := make(chan struct{})
	s.idle = append(s.idle, ch)
	s.mu.Unlock()
	s.signal()
	<-ch
	s.logf("server: drained")
}

// Close drains and stops the scheduler and any member node lanes.
// Idempotent.
func (s *RegionServer) Close() {
	s.Drain()
	s.mu.Lock()
	already := s.stopped
	s.stopped = true
	s.mu.Unlock()
	s.signal()
	if !already {
		<-s.done
	}
	var fx effects
	s.mu.Lock()
	for _, name := range s.memberOrder {
		m := s.members[name]
		if m.state != NodeRemoved {
			m.state = NodeRemoved
			fx.wakes = append(fx.wakes, m.wake)
		}
	}
	s.mu.Unlock()
	s.apply(&fx)
	s.memberWG.Wait()
}

// Stats returns a deep snapshot.
func (s *RegionServer) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.totals
	out.QueueDepth = s.queued
	out.InFlight = s.inFlight
	out.DispatchHash = s.hash.h
	out.Membership = s.membershipStatsLocked()
	out.Tenants = make(map[string]TenantStats, len(s.tenants))
	for _, name := range s.order {
		t := s.tenants[name]
		ts := t.stats
		ts.QueueDepth = len(t.queue)
		out.Tenants[name] = ts
	}
	return out
}

// DispatchHash fingerprints the dispatch sequence so far (FNV-1a over
// "seq:tenant:sig" records in dispatch order, with churn records
// interleaved at their milestones). Two runs of the same preloaded
// workload — including its churn schedule — must produce equal hashes.
func (s *RegionServer) DispatchHash() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hash.h
}

// DispatchOrder returns a copy of the most recent dispatch and churn
// records — at most dispatchOrderKeep (4096) of them; older records
// survive only in DispatchHash.
func (s *RegionServer) DispatchOrder() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	recent := s.dispatchOrder
	if len(recent) > dispatchOrderKeep {
		recent = recent[len(recent)-dispatchOrderKeep:]
	}
	return append([]string(nil), recent...)
}
