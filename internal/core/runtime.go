// Package core implements the hetmp runtime — the Go reproduction of
// libHetMP (Middleware '20). It organizes worker threads into the
// paper's two-level hierarchy across cache-incoherent nodes, extends
// the static and dynamic loop schedulers for heterogeneous nodes, and
// implements the HetProbe scheduler, which measures a probing period
// and automatically decides whether to work-share across nodes (and
// with what core speed ratios) or to collapse onto the single best
// node.
package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"hetmp/internal/cluster"
	"hetmp/internal/telemetry"
)

// Body is a work-sharing loop body covering iterations [lo, hi).
type Body func(e cluster.Env, lo, hi int)

// BodyReduce is a loop body that folds iterations into an accumulator.
type BodyReduce func(e cluster.Env, lo, hi int, acc any) any

// Options tunes the runtime. The zero value selects the paper's
// defaults.
type Options struct {
	// FaultPeriodThreshold is the break-even page-fault period: regions
	// whose measured period is below it are not profitable across
	// nodes. Defaults to 100 µs (the paper's RDMA threshold); derive a
	// platform-specific value with Calibrate.
	FaultPeriodThreshold time.Duration
	// MissThreshold is the LLC misses per kilo-instruction above which
	// single-node execution prefers the node with the strongest cache
	// hierarchy. Defaults to 3 (Section 3.2).
	MissThreshold float64
	// ProbeMaxInvocations is how many invocations of a region are
	// probed (with EWMA smoothing) before the cached decision is
	// reused. Defaults to 10.
	ProbeMaxInvocations int
	// FlatHierarchy disables the two-level thread hierarchy (ablation:
	// all threads synchronize and grab work globally).
	FlatHierarchy bool
	// RandomProbe makes HetProbe assign probe chunks in a rotated
	// (non-deterministic across invocations) order — the data-settling
	// ablation. Never set it in production use.
	RandomProbe bool
	// ProbeRegionID, when non-empty, restricts probing to the named
	// region (the application's longest-running one); every other
	// HetProbe region adopts its decision. This mirrors the paper's
	// deployment, where the user passes a compiler-constructed region
	// identifier via environment variables and only that region is
	// probed.
	ProbeRegionID string
	// ReDecide enables mid-region monitoring (the chaos-hardening
	// layer) of probing invocations: after HetProbe probes and
	// decides, the remaining iterations run in MonitorWindows windows
	// whose per-node progress is compared against what that probe
	// just measured. A node whose observed per-iteration time exceeds
	// redecideFactor × the expectation (a straggler, a frozen node, or
	// a degraded link inflating fault stalls) triggers a bounded
	// re-probe → re-decision that can revise cross-node sharing down
	// to origin-node-only execution mid-region, without re-executing
	// any iteration. Mature entries, store-seeded ones included, are
	// never monitored. Meant for runs with chaos injected: with nothing
	// to catch it only adds dispatches (DESIGN.md §11). Off by default.
	ReDecide bool
	// MonitorWindows is how many windows the post-decision remainder
	// is split into when ReDecide is on. Defaults to 8.
	MonitorWindows int
	// DecisionStore, when non-nil, backs the probe-free fast path: on
	// a region's first invocation the runtime consults the store and,
	// if it holds a decision for the region measured at the same
	// iteration count, seeds the probe cache with it — mature, so the
	// region runs the stored decision as stored: no probing, no
	// monitoring. Any other region is probed. When Run returns, every
	// region this run probed is written back through the store's Put
	// (persisting is the caller's job). A store with nothing to offer
	// changes nothing. Callers holding a concrete store pointer must
	// take care not to wrap a nil pointer in this interface.
	DecisionStore DecisionStore
	// ForceReprobe, when non-nil, is consulted before a stored
	// decision is adopted: returning true for a region makes the
	// runtime probe it afresh even though the store holds a matching
	// entry, and the re-measured decision is exported back through
	// the store when Run returns. The serving layer uses this as its
	// class-scoped re-probe hook — when a node of a class the stored
	// entries have never covered joins the cluster, only the regions
	// missing that class are re-probed (bounded by the caller), never
	// the whole store. The probing itself stays bounded exactly as a
	// cold run's is (ProbeMaxInvocations). Nil (the default) never
	// forces a re-probe.
	ForceReprobe func(regionID string) bool
	// Logf, when non-nil, receives runtime decision traces.
	Logf func(format string, args ...any)
	// Telemetry, when non-nil, receives spans (probe windows, worker
	// region execution, decisions) and metrics (iterations per node,
	// decision outcomes, region summaries) from the runtime. Pass the
	// same instance in cluster.SimConfig.Telemetry to also capture the
	// DSM and interconnect layers. Nil disables collection; the
	// instrumentation then costs one pointer test per site.
	Telemetry *telemetry.Telemetry
}

// DefaultOptions returns the paper's default tuning.
func DefaultOptions() Options { return Options{}.withDefaults() }

func (o Options) withDefaults() Options {
	if o.FaultPeriodThreshold == 0 {
		o.FaultPeriodThreshold = 100 * time.Microsecond
	}
	if o.MissThreshold == 0 {
		o.MissThreshold = 3
	}
	if o.ProbeMaxInvocations == 0 {
		o.ProbeMaxInvocations = 10
	}
	if o.MonitorWindows == 0 {
		o.MonitorWindows = 8
	}
	return o
}

// Runtime is the hetmp runtime bound to one cluster. Create one per
// application run with New.
type Runtime struct {
	cl    cluster.Cluster
	opts  Options
	cache *probeCache
	teams map[string]*team

	// Telemetry handles, pre-resolved at construction so hot paths
	// never touch the registry. All nil when telemetry is disabled
	// (every use is nil-safe, so the only per-site cost is a nil test).
	tracer    *telemetry.Tracer
	iterCtrs  []*telemetry.Counter // per node: iterations executed
	regionCtr map[string]*telemetry.Counter
	// Monitoring handles + counter (ReDecide).
	reprobeCtr  *telemetry.Counter
	redecideCtr *telemetry.Counter
	rejectCtr   *telemetry.Counter
	reDecisions int
	// Probe-overhead accounting (always maintained, telemetry or not):
	// probing periods dispatched and decisions seeded from the store.
	probes      int
	predictions int
}

// New builds a runtime on the given cluster.
func New(cl cluster.Cluster, opts Options) *Runtime {
	rt := &Runtime{
		cl:    cl,
		opts:  opts.withDefaults(),
		cache: newProbeCache(),
		teams: make(map[string]*team),
	}
	if tel := rt.opts.Telemetry; tel.Enabled() {
		rt.tracer = tel.Tracer()
		m := tel.Metrics()
		specs := cl.NodeSpecs()
		rt.iterCtrs = make([]*telemetry.Counter, len(specs))
		for i, s := range specs {
			//hetmp:allow telemetryhandle -- construction-time wiring: New runs once per runtime, not per iteration
			rt.iterCtrs[i] = m.Counter("hetmp_iterations_total", telemetry.L("node", s.Name))
			rt.tracer.NameTrack(workerTrack(i, -1), "node "+strconv.Itoa(i)+" ("+s.Name+")", "master")
		}
		rt.regionCtr = make(map[string]*telemetry.Counter)
		rt.reprobeCtr = m.Counter("hetmp_hetprobe_reprobes_total")
		rt.redecideCtr = m.Counter("hetmp_hetprobe_redecisions_total")
		rt.rejectCtr = m.Counter("hetmp_hetprobe_rejected_measurements_total")
	}
	return rt
}

// workerTrack maps a team thread to its trace track: one process per
// node, thread 0 for the master, local worker w at thread w+1.
func workerTrack(node, local int) telemetry.Track {
	return telemetry.Track{Pid: node, Tid: local + 1}
}

// regionsTotal returns (caching) the per-schedule region counter.
func (rt *Runtime) regionsTotal(sched string) *telemetry.Counter {
	if rt.regionCtr == nil {
		return nil
	}
	c, ok := rt.regionCtr[sched]
	if !ok {
		c = rt.opts.Telemetry.Metrics().Counter("hetmp_regions_total", telemetry.L("sched", sched))
		rt.regionCtr[sched] = c
	}
	return c
}

// Options returns the effective options.
func (rt *Runtime) Options() Options { return rt.opts }

// Cluster returns the underlying cluster.
func (rt *Runtime) Cluster() cluster.Cluster { return rt.cl }

// ReDecisions reports how many mid-region re-decisions (adopted
// decision revisions triggered by the ReDecide monitor) the runtime
// has performed.
func (rt *Runtime) ReDecisions() int { return rt.reDecisions }

// Probes reports how many probing periods the runtime dispatched — the
// probe-overhead signal the decision store exists to eliminate (zero
// on a fully warm run).
func (rt *Runtime) Probes() int { return rt.probes }

// Predictions reports how many region decisions were seeded from the
// decision store instead of being probed.
func (rt *Runtime) Predictions() int { return rt.predictions }

// Decision returns HetProbe's cached decision for a region, if any.
func (rt *Runtime) Decision(regionID string) (Decision, bool) {
	ent, ok := rt.cache.get(regionID)
	if !ok || ent.invocations == 0 {
		return Decision{}, false
	}
	return ent.decision, true
}

// Decisions returns HetProbe's cached decisions for every probed
// region.
func (rt *Runtime) Decisions() map[string]Decision {
	out := make(map[string]Decision, len(rt.cache.entries))
	for id, ent := range rt.cache.entries {
		if ent.invocations > 0 {
			out[id] = ent.decision
		}
	}
	return out
}

// CSRFromDecision derives static-scheduler weights from a decision's
// measured per-iteration times (usable even when the decision was
// single-node — the paper's Ideal CSR configuration does exactly this
// with HetProbe-measured ratios).
func CSRFromDecision(d Decision) map[int]float64 {
	csr := make(map[int]float64, len(d.PerIterTime))
	var slowest float64
	for node, t := range d.PerIterTime {
		if t > 0 {
			csr[node] = 1 / float64(t)
			if slowest == 0 || csr[node] < slowest {
				slowest = csr[node]
			}
		}
	}
	if slowest > 0 {
		for node := range csr {
			csr[node] /= slowest
		}
	}
	return csr
}

// logf traces a decision if logging is enabled.
func (rt *Runtime) logf(format string, args ...any) {
	if rt.opts.Logf != nil {
		rt.opts.Logf(format, args...)
	}
}

// Run executes app as the application's master thread (on the origin
// node) and tears the runtime's teams down when it returns.
func (rt *Runtime) Run(app func(*App)) error {
	return rt.cl.Run(func(env cluster.Env) {
		a := &App{rt: rt, env: env}
		defer func() {
			// Tear teams down in sorted key order: shutdown consumes
			// virtual time, so map-order iteration would make the
			// run's makespan depend on Go's map seed.
			keys := make([]string, 0, len(rt.teams))
			for key := range rt.teams {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			for _, key := range keys {
				rt.teams[key].shutdown(env)
			}
			rt.exportDecisions()
		}()
		app(a)
	})
}

// App is the application context handed to the function run by
// Runtime.Run. It is only valid on the master thread.
type App struct {
	rt  *Runtime
	env cluster.Env
	// inRegion guards against nested parallel regions.
	inRegion bool
}

// Env exposes the master thread's environment.
func (a *App) Env() cluster.Env { return a.env }

// Runtime returns the owning runtime.
func (a *App) Runtime() *Runtime { return a.rt }

// Serial accounts a serial application phase (file I/O, setup) of ops
// operations at the origin node's single-thread speed.
func (a *App) Serial(ops, vec float64) { a.env.ComputeSerial(ops, vec) }

// Alloc creates a shared data region homed at the origin node
// (first-touch by the serial phase, as in the paper's applications).
func (a *App) Alloc(name string, size int64) *cluster.Region {
	return a.rt.cl.Alloc(name, size, a.rt.cl.Origin())
}

// allNodes returns every node index.
func (rt *Runtime) allNodes() []int {
	specs := rt.cl.NodeSpecs()
	nodes := make([]int, len(specs))
	for i := range specs {
		nodes[i] = i
	}
	return nodes
}

// teamFor returns (creating if needed) the persistent team spanning the
// given node set.
func (rt *Runtime) teamFor(master cluster.Env, nodes []int) *team {
	sorted := append([]int(nil), nodes...)
	sort.Ints(sorted)
	key := teamKey(sorted)
	if t, ok := rt.teams[key]; ok {
		return t
	}
	t := newTeam(rt, master, sorted)
	rt.teams[key] = t
	return t
}

// ParallelFor executes a work-sharing loop of n iterations under the
// given schedule. regionID identifies the region for the probe cache
// (the paper builds it from file, function and line of the directive).
func (a *App) ParallelFor(regionID string, n int, sched Schedule, body Body) {
	a.parallel(regionID, n, sched, body, nil)
}

// ParallelReduce executes a work-sharing loop whose iterations fold
// into an accumulator; partial results are combined hierarchically
// (worker → node leader → master). combine must be associative and
// init its identity.
func (a *App) ParallelReduce(regionID string, n int, sched Schedule,
	init func() any, body BodyReduce, combine func(x, y any) any) any {
	red := &reduceRun{init: init, combine: combine, body: body}
	a.parallel(regionID, n, sched, nil, red)
	return red.out
}

// parallel dispatches a region under any schedule.
func (a *App) parallel(regionID string, n int, sched Schedule, body Body, red *reduceRun) {
	if a.inRegion {
		panic("core: nested parallel regions are not supported")
	}
	if n < 0 {
		panic(fmt.Sprintf("core: region %q has negative iteration count %d", regionID, n))
	}
	a.inRegion = true
	defer func() { a.inRegion = false }()
	if n == 0 {
		if red != nil {
			red.out = red.init()
		}
		return
	}

	rt := a.rt
	if tr := rt.tracer; tr != nil {
		rt.regionsTotal(sched.Name()).Inc()
		t0 := a.env.Now()
		defer func() {
			tr.Emit(workerTrack(a.env.Node(), -1), "region "+regionID, t0, a.env.Now(),
				telemetry.Arg{Key: "sched", Val: sched.Name()},
				telemetry.Arg{Key: "iterations", Val: strconv.Itoa(n)})
		}()
	}
	switch s := sched.(type) {
	case StaticSpec:
		t := rt.teamFor(a.env, rt.allNodes())
		desc := &regionRun{n: n, body: body, reduce: red,
			sched: newStaticDispatch(t, 0, n, s.CSR)}
		t.dispatch(a.env, desc)
	case DynamicSpec:
		t := rt.teamFor(a.env, rt.allNodes())
		desc := &regionRun{n: n, body: body, reduce: red,
			sched: newDynDispatch(rt, t, n, s.Chunk)}
		t.dispatch(a.env, desc)
	case HetProbeSpec:
		a.runHetProbe(regionID, n, s, body, red)
	default:
		panic(fmt.Sprintf("core: unknown schedule %T", sched))
	}
}

// Decision is HetProbe's verdict for one region.
type Decision struct {
	// CrossNode reports whether work-sharing across nodes is
	// profitable.
	CrossNode bool
	// CSR maps node → relative core speed when CrossNode is set,
	// normalized so the *slowest* enabled node has weight 1 — the
	// paper's "X : 1" core speed ratio form (e.g. 3.7 : 1 for Xeon
	// vs ThunderX cores).
	CSR map[int]float64
	// Node is the chosen node for single-node execution.
	Node int
	// Nodes is the enabled node set for cross-node execution: the
	// origin plus every other node, less those the ReDecide monitor
	// excluded.
	Nodes []int
	// FaultPeriod is the measured page-fault period.
	FaultPeriod time.Duration
	// MissesPerKinst is the measured LLC misses per kilo-instruction.
	MissesPerKinst float64
	// PerIterTime is the measured per-iteration time per node.
	PerIterTime map[int]time.Duration
	// CumTime is the cumulative measured thread-time of the region
	// across invocations — the "longest-running region" signal the
	// paper uses to pick the probing region.
	CumTime time.Duration
}

// String renders the decision the way the runtime logs it.
func (d Decision) String() string {
	period := d.FaultPeriod.String()
	if d.FaultPeriod == infinitePeriod {
		period = "∞ (no faults)"
	}
	if d.CrossNode {
		return fmt.Sprintf("cross-node CSR=%v (fault period %v, misses/kinst %.2f)",
			csrString(d.CSR), period, d.MissesPerKinst)
	}
	return fmt.Sprintf("single-node node=%d (fault period %v, misses/kinst %.2f)",
		d.Node, period, d.MissesPerKinst)
}

func csrString(csr map[int]float64) string {
	keys := make([]int, 0, len(csr))
	for k := range csr {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += " : "
		}
		s += fmt.Sprintf("%.3g", csr[k])
	}
	return s
}

// infinitePeriod stands for "no faults observed".
const infinitePeriod = time.Duration(math.MaxInt64)
