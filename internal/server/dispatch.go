package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strings"

	"hetmp/internal/apportion"
)

// dispatch is the serving layer's dispatch decision (DESIGN.md §15,
// §16): WFQ virtual time, budget windows, the probe-lane claim and
// hand-off, chunk plans, churn at dispatch milestones, member states,
// rehoming and exactly-once accounting, and the dispatch hash. It owns
// no lock, channel, goroutine, clock, logger or telemetry handle; its
// one read of the world is the injected warm query. What its calls ask
// of the world collects in actions, which RegionServer, the shell,
// takes under its lock and applies after the unlock.

// job is one admitted job: dispatched, then either running (its chunks
// queued) or parked on its signature's probe lane, and finished by its
// last chunk. No goroutine belongs to a job.
type job struct {
	spec Spec
	sig  string
	seq  int
	tag  any // the shell's handle, handed back with the job's actions

	// prober is set in dispatch order, never by goroutine scheduling: at
	// dispatch for the first job of a cold signature, and at a failed
	// prober's hand-off for the earliest-dispatched parked job.
	prober bool

	// The chunk plan, set at dispatch, and its exactly-once accounting.
	// invsDone must equal spec.Invocations when the last chunk completes
	// — the zero-lost-iterations assertion.
	plan       []*chunk
	invsDone   int
	chunksLeft int
}

type tenantState struct {
	name     string
	weight   float64
	queue    []*job // priority desc, then seq asc
	vtime    float64
	inFlight int
	spent    int64 // iterations dispatched in the current budget window
	stats    TenantStats
}

// lane serializes cold probing per region signature: the first job of
// a signature (the prober) executes alone; same-signature jobs
// dispatched while it probes park here, holding their in-flight slot,
// and start probe-free off the shared cache entry once it succeeds. A
// signature without a lane is cold; a lane that is not probing is warm,
// and its jobs start at dispatch.
type lane struct {
	firstTenant string
	probing     bool
	parked      []*job // in dispatch order
}

// chunk is one share of a job: `invs` invocations of the job's region,
// simulated under the chunk-index seed. A whole-job chunk is simply
// {invs: all, index: 0}: index 0 adds nothing to the signature seed.
type chunk struct {
	j       *job
	invs    int
	index   int    // position in the job's plan — the seed offset
	planned string // node chosen at dispatch; "" when there is no lane
	rehomed bool   // moved off `planned` by churn
	res     ExecResult
	err     error
}

// memberState is one node lane's state. A re-added name gets a fresh
// one, so the old lane's worker never shares state with the new one.
type memberState struct {
	spec     Member
	state    NodeState
	queue    []*chunk
	reprobes []Spec
	stats    NodeStats
}

// actions is what the calls into the core since the last take ask of
// the world, in the order the shell applies them.
type actions struct {
	starts   []*memberState // node lanes to start
	wakes    []*memberState // node lanes handed work or told to exit
	laneless []*chunk       // chunks with no lane, each run on its own goroutine
	queues   []queueNote
	done     []jobDone
	logs     []string
	idle     bool // the last in-flight job finished with nothing queued
}

// queueNote is j's tenant's queue depth after j's dispatch.
type queueNote struct {
	j     *job
	depth int
}

// jobDone is a finished job and its result. The shell adds the
// wall-clock Wait and Service.
type jobDone struct {
	j *job
	r Result
}

// work is a node lane's next task: a chunk, a re-probe, or exit. The
// zero work means wait for a wake.
type work struct {
	c       *chunk
	reprobe *Spec
	exit    bool
}

type dispatch struct {
	queueDepth  int
	maxInFlight int
	budget      int64
	weights     map[string]float64
	// warm is the injected read: the re-probe worklist a newcomer of a
	// node class runs before it serves, empty when the decision store
	// already covers the class. Nil without a ClassWarmer executor.
	warm func(class string) []Spec

	tenants       map[string]*tenantState
	order         []string // tenant names, sorted — deterministic iteration
	queued        int
	inFlight      int
	seq           int
	paused        bool
	draining      bool
	stopped       bool
	lanes         map[string]*lane
	hash          hashState
	dispatchOrder []string
	totals        Stats

	// Elastic membership (members is nil when Config.Members is empty).
	members     map[string]*memberState
	memberOrder []string // member names, sorted — deterministic iteration
	churn       []ChurnEvent
	churnNext   int
	memStats    MembershipStats

	out actions
}

// newDispatch builds the core for a defaulted Config, joining its
// members. It keeps the Config's numbers, never its handles.
func newDispatch(cfg Config, warm func(class string) []Spec) *dispatch {
	d := &dispatch{
		queueDepth: cfg.QueueDepth, maxInFlight: cfg.MaxInFlight, budget: cfg.TenantIterBudget,
		weights: cfg.Weights, warm: warm, paused: cfg.StartPaused,
		tenants: map[string]*tenantState{}, lanes: map[string]*lane{}, hash: newHashState(),
	}
	if len(cfg.Members) > 0 {
		d.members = map[string]*memberState{}
		d.churn = cfg.Churn
		for _, m := range cfg.Members {
			if err := d.addNode(m); err != nil {
				d.logf("server: initial member %s: %v", m.Name, err)
			}
		}
	}
	return d
}

// take returns the actions asked for since the last take.
func (d *dispatch) take() actions {
	a := d.out
	d.out = actions{}
	return a
}

func (d *dispatch) logf(format string, args ...any) {
	d.out.logs = append(d.out.logs, fmt.Sprintf(format, args...))
}

type hashState struct{ h uint64 }

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

// record folds one dispatch or churn record into the hash chain and the
// bounded record log (compacted every dispatchOrderKeep appends, so the
// cost per record stays constant).
func (d *dispatch) record(rec string) {
	d.hash.mix(rec)
	if len(d.dispatchOrder) == 2*dispatchOrderKeep {
		d.dispatchOrder = append(d.dispatchOrder[:0], d.dispatchOrder[dispatchOrderKeep:]...)
	}
	d.dispatchOrder = append(d.dispatchOrder, rec)
}

func (d *dispatch) tenant(name string) *tenantState {
	if t, ok := d.tenants[name]; ok {
		return t
	}
	w := 1.0
	if cw, ok := d.weights[name]; ok && cw > 0 {
		w = cw
	}
	t := &tenantState{name: name, weight: w}
	t.stats.Weight = w
	// A newly active tenant starts at the current virtual floor so it
	// cannot bank credit from its idle past and lock out incumbents.
	t.vtime = d.vfloor()
	d.tenants[name] = t
	d.order = append(d.order, name)
	sort.Strings(d.order)
	return t
}

// vfloor is the minimum virtual time over tenants that still have
// queued or running work (the WFQ virtual clock).
func (d *dispatch) vfloor() float64 {
	floor := 0.0
	seen := false
	for _, name := range d.order {
		t := d.tenants[name]
		if len(t.queue) == 0 && t.inFlight == 0 {
			continue
		}
		if !seen || t.vtime < floor {
			floor, seen = t.vtime, true
		}
	}
	return floor
}

// admit books a defaulted submission and queues it, returning its
// tenant's queue depth, or says why not: a spec over the ceilings, a
// stopped or draining server, a full queue.
func (d *dispatch) admit(sp Spec, tag any) (int, error) {
	t := d.tenant(sp.Tenant)
	t.stats.Submitted++
	d.totals.Submitted++
	err := sp.check()
	switch {
	case err != nil:
	case d.stopped:
		err = ErrStopped
	case d.draining:
		err = ErrDraining
	case d.queued >= d.queueDepth:
		err = ErrQueueFull
	}
	if err != nil {
		t.stats.Rejected++
		d.totals.Rejected++
		return 0, err
	}
	j := &job{spec: sp, sig: sp.Sig(), seq: d.seq, tag: tag}
	d.seq++
	t.stats.Admitted++
	d.totals.Admitted++
	d.queued++
	// Insert keeping priority desc, seq asc (stable FIFO within a
	// priority).
	at := slices.IndexFunc(t.queue, func(q *job) bool { return sp.Priority > q.spec.Priority })
	if at < 0 {
		at = len(t.queue)
	}
	t.queue = slices.Insert(t.queue, at, j)
	t.stats.QueueDepth = max(t.stats.QueueDepth, len(t.queue))
	return len(t.queue), nil
}

// resume opens the dispatch gate of a paused server (the preload gate).
func (d *dispatch) resume() { d.paused = false }

// idle reports that nothing is queued or in flight.
func (d *dispatch) idle() bool { return d.queued == 0 && d.inFlight == 0 }

// pick selects the next job to dispatch: among tenants with queued work
// that are within budget, the minimum virtual time wins; ties break on
// tenant name. With no job eligible, blocked reports that work is queued
// but every queued tenant is over its iteration budget — the condition
// that opens the next budget window.
func (d *dispatch) pick() (j *job, t *tenantState, blocked bool) {
	for _, name := range d.order {
		q := d.tenants[name]
		if len(q.queue) == 0 {
			continue
		}
		blocked = true
		if d.withinBudget(q) && (t == nil || q.vtime < t.vtime) {
			t = q
		}
	}
	if t == nil {
		return nil, nil, blocked
	}
	return t.queue[0], t, false
}

// withinBudget reports whether t may dispatch its head-of-queue job
// under the current window's iteration budget. A tenant that has
// dispatched nothing this window may always run its head job, even an
// oversized one — budgets throttle hogs, they must not starve anyone.
func (d *dispatch) withinBudget(t *tenantState) bool {
	if d.budget <= 0 || t.spent == 0 {
		return true
	}
	return t.spent+t.queue[0].spec.cost() <= d.budget
}

// pump is a dispatch pass: it dispatches while the gate is open, a slot
// is free and a job is eligible. Selection state changes only here,
// never on completion, so the dispatch sequence is a function of the
// admission order, whenever the passes run.
func (d *dispatch) pump() {
	for !d.paused && d.inFlight < d.maxInFlight {
		// n is the next dispatch milestone: due churn applies here,
		// before selection, so eligibility reflects it.
		n := d.totals.Dispatched
		d.applyChurn(n)
		j, t, blocked := d.pick()
		if j == nil {
			if !blocked {
				return
			}
			d.totals.BudgetWindows++
			for _, name := range d.order {
				d.tenants[name].spent = 0
			}
			continue
		}
		t.queue = t.queue[1:]
		d.queued--
		t.vtime += float64(j.spec.cost()) / t.weight
		t.spent += j.spec.cost()
		t.inFlight++
		d.inFlight++
		t.stats.Dispatched++
		t.stats.IterationsDispatched += j.spec.cost()
		d.totals.Dispatched++
		d.record(fmt.Sprintf("%d:%s:%s", j.seq, j.spec.Tenant, j.sig))
		parked := d.claimLane(j) // before planning: a prober's plan is whole-job
		d.plan(j, n)
		if !parked {
			d.start(j)
		}
		d.out.queues = append(d.out.queues, queueNote{j, len(t.queue)})
	}
}

// claimLane decides at dispatch whether j runs or parks: the
// first-dispatched job of a cold signature claims the lane and probes,
// a job of a probing signature parks behind the prober, and a job of a
// warm signature runs. Deciding the prober in dispatch order keeps the
// chunk plans — and with them total virtual time — a function of the
// dispatch order. Reports whether j parked.
func (d *dispatch) claimLane(j *job) bool {
	ln := d.lanes[j.sig]
	switch {
	case ln == nil:
		d.lanes[j.sig] = &lane{firstTenant: j.spec.Tenant, probing: true}
		j.prober = true
	case ln.probing:
		ln.parked = append(ln.parked, j)
		return true
	}
	return false
}

// proberDone moves a probing lane on when its prober finishes. On
// success the signature is warm for good and every parked job starts,
// in dispatch order. On failure the earliest-dispatched parked job
// becomes the prober, its plan collapsed to one whole-job chunk on its
// first node (cold probing runs whole); with nothing parked the
// signature is cold again.
func (d *dispatch) proberDone(j *job, ok bool) {
	ln := d.lanes[j.sig]
	if ok {
		ln.probing = false
		for _, p := range ln.parked {
			d.start(p)
		}
		ln.parked = nil
		return
	}
	if len(ln.parked) == 0 {
		delete(d.lanes, j.sig)
		return
	}
	next := ln.parked[0]
	ln.parked = ln.parked[1:]
	ln.firstTenant = next.spec.Tenant
	next.prober = true
	if len(next.plan) > 1 {
		next.plan = []*chunk{{j: next, invs: next.spec.Invocations, planned: next.plan[0].planned}}
		next.chunksLeft = 1
	}
	d.start(next)
}

// complete books a chunk that member m ran (nil for a laneless chunk):
// the lane's counters and the job's executed invocations. The job's
// last chunk finishes it.
func (d *dispatch) complete(m *memberState, c *chunk, res ExecResult, err error) {
	c.res, c.err = res, err
	if m != nil {
		m.stats.Chunks++
		m.stats.Invocations += int64(c.invs)
	}
	if err == nil {
		c.j.invsDone += c.invs
	}
	c.j.chunksLeft--
	if c.j.chunksLeft == 0 {
		d.finish(c.j)
	}
}

// finish completes a job whose last chunk is in: it aggregates the
// chunks with the exactly-once check, books the result, and moves the
// job's probe lane on when the job was its prober.
func (d *dispatch) finish(j *job) {
	t := d.tenants[j.spec.Tenant]
	r := Result{Tenant: j.spec.Tenant, Region: j.spec.Region, Sig: j.sig, Seq: j.seq, Chunks: len(j.plan)}
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
	r.CrossTenantWarm = r.Warm && d.lanes[j.sig].firstTenant != j.spec.Tenant
	if j.prober {
		d.proberDone(j, r.Err == nil)
	}

	t.inFlight--
	d.inFlight--
	if r.Err != nil {
		t.stats.Failed++
		d.totals.Failed++
	} else {
		if lost := j.spec.Invocations - j.invsDone; lost != 0 {
			n := int64(lost) * int64(j.spec.Iterations)
			d.memStats.LostIterations += max(n, -n)
			d.logf("server: job %d lost %d invocations to churn (accounting bug)", j.seq, lost)
		}
		t.stats.Completed++
		d.totals.Completed++
		d.totals.VirtualNs += r.VirtualNs
		if r.Warm {
			t.stats.Warm++
			d.totals.CacheHits++
		} else {
			d.totals.CacheMisses++
		}
		if r.CrossTenantWarm {
			t.stats.CrossTenantWarm++
			d.totals.CrossTenantWarm++
		}
		if !j.prober && r.Probes > 0 {
			// A lane-warm job probed: the shared-cache invariant broke.
			t.stats.WarmProbes += r.Probes
			d.totals.WarmProbes += r.Probes
		}
	}
	d.out.idle = d.out.idle || d.idle()
	d.out.done = append(d.out.done, jobDone{j, r})
}

// drain stops admission and opens a paused gate (a paused drain would
// wait on itself). It reports whether the core is already idle.
func (d *dispatch) drain() bool {
	d.draining = true
	d.paused = false
	return d.idle()
}

// stop refuses every later admission and membership operation, runs a
// last dispatch pass (churn due at the final milestone applies to live
// members), and retires every node lane.
func (d *dispatch) stop() {
	d.stopped = true
	d.pump()
	for _, name := range d.memberOrder {
		if m := d.members[name]; m.state != NodeRemoved {
			m.state = NodeRemoved
			d.out.wakes = append(d.out.wakes, m)
		}
	}
}

// apiOp is a live-API membership operation: refused when the layer is
// off or the server stopped, and recorded in the Transitions log when
// it succeeds.
func (d *dispatch) apiOp(op ChurnOp, m Member) error {
	switch {
	case d.members == nil:
		return errors.New("server: membership not enabled")
	case d.stopped:
		return ErrStopped
	}
	err := d.op(op, m)
	if err == nil {
		d.memStats.Transitions = append(d.memStats.Transitions, "api:"+string(op)+":"+m.Name)
	}
	return err
}

// op performs one membership operation — the single entry behind the
// live API and the churn schedule.
func (d *dispatch) op(op ChurnOp, m Member) error {
	switch op {
	case ChurnAdd:
		return d.addNode(m)
	case ChurnRemove:
		return d.removeNode(m.Name)
	case ChurnCordon:
		return d.cordon(m.Name)
	case ChurnUncordon:
		return d.uncordon(m.Name)
	}
	return fmt.Errorf("server: unknown churn op %q", op)
}

func (d *dispatch) addNode(mem Member) error {
	if mem.Name == "" || mem.Class == "" {
		return fmt.Errorf("server: member needs Name and Class")
	}
	mem.Class = strings.ToLower(mem.Class)
	if math.IsNaN(mem.Weight) || math.IsInf(mem.Weight, 0) {
		return fmt.Errorf("server: member %s: weight %v is not finite", mem.Name, mem.Weight)
	}
	if mem.Weight <= 0 {
		mem.Weight = 1
	}
	old := d.members[mem.Name]
	if old != nil && old.state == NodeDraining {
		// Finalize the removal here rather than waiting for the old
		// lane to observe its empty queue: whether it has by the add
		// milestone is a wall-clock race, and the add's ok/err outcome
		// feeds the dispatch hash and the eligible set. The old lane
		// exits on its next pull (after finishing a chunk already in
		// flight); its queue was rehomed at remove.
		old.state = NodeRemoved
		d.logf("server: node %s removed (readmitted while draining)", mem.Name)
	}
	if old != nil && old.state != NodeRemoved {
		return fmt.Errorf("server: node %s: %w", mem.Name, ErrNodeExists)
	}
	st := NodeActive
	var reprobes []Spec
	if d.warm != nil {
		if reprobes = d.warm(mem.Class); len(reprobes) > 0 {
			st = NodeWarming
		}
	}
	m := &memberState{spec: mem, state: st, reprobes: reprobes}
	if old != nil {
		// Cumulative stats carry over; the old lane is told to exit.
		m.stats = old.stats
		d.out.wakes = append(d.out.wakes, old)
	} else {
		d.memberOrder = append(d.memberOrder, mem.Name)
		sort.Strings(d.memberOrder)
	}
	m.stats.Class = mem.Class
	m.stats.Weight = mem.Weight
	d.members[mem.Name] = m
	d.out.starts = append(d.out.starts, m)
	d.logf("server: node %s (%s, weight %g) joined %s", mem.Name, mem.Class, mem.Weight, st)
	return nil
}

// present returns the named member unless it is unknown or removed.
func (d *dispatch) present(name string) (*memberState, error) {
	m := d.members[name]
	if m == nil || m.state == NodeRemoved {
		return nil, fmt.Errorf("server: node %s: %w", name, ErrUnknownNode)
	}
	return m, nil
}

func (d *dispatch) removeNode(name string) error {
	m, err := d.present(name)
	if err != nil {
		return err
	}
	if m.state == NodeDraining {
		return fmt.Errorf("server: node %s: %w", name, ErrNodeDraining)
	}
	if !d.anotherServes(m) {
		return fmt.Errorf("server: node %s: %w", name, ErrLastNode)
	}
	m.state = NodeDraining
	m.reprobes = nil
	d.rehome(m)
	d.out.wakes = append(d.out.wakes, m)
	d.logf("server: node %s draining", name)
	return nil
}

func (d *dispatch) cordon(name string) error {
	m, err := d.present(name)
	if err != nil {
		return err
	}
	switch {
	case m.state == NodeCordoned:
		return nil // idempotent
	case m.state == NodeDraining:
		return fmt.Errorf("server: node %s: %w", name, ErrNodeDraining)
	case !d.anotherServes(m):
		return fmt.Errorf("server: node %s: %w", name, ErrLastNode)
	}
	m.state = NodeCordoned // from active or warming
	m.reprobes = nil
	d.logf("server: node %s cordoned", name)
	return nil
}

func (d *dispatch) uncordon(name string) error {
	m, err := d.present(name)
	if err != nil {
		return err
	}
	switch m.state {
	case NodeActive:
		return nil // idempotent
	case NodeCordoned:
		m.state = NodeActive
		d.logf("server: node %s uncordoned", name)
		return nil
	}
	return fmt.Errorf("server: node %s: cannot uncordon from state %s", name, m.state)
}

// anotherServes reports whether a member other than m could serve, now
// or after warming — the last-node guard.
func (d *dispatch) anotherServes(m *memberState) bool {
	for _, name := range d.memberOrder {
		if o := d.members[name]; o != m && o.state != NodeDraining && o.state != NodeRemoved {
			return true
		}
	}
	return false
}

// eligible returns the nodes a new plan may target, in sorted name
// order. Active nodes are preferred; when none exist the selection
// degrades to warming nodes (their chunks queue behind the re-probes),
// then cordoned ones, so the guarded invariant "at least one member can
// serve" keeps plans on a lane. Empty only when the server has no
// members.
func (d *dispatch) eligible() []*memberState {
	var out []*memberState
	for _, st := range []NodeState{NodeActive, NodeWarming, NodeCordoned} {
		for _, name := range d.memberOrder {
			if m := d.members[name]; m.state == st {
				out = append(out, m)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return nil
}

// plan builds a job's chunk plan at dispatch milestone n — every job
// has one. A prober (first dispatch of a cold signature) and any job on
// a server without members get one whole-job chunk: cold probing is a
// whole-job affair, and with no lanes there is nothing to split across.
// Other jobs split invocations across the eligible nodes by weight. The
// plan — chunk count, sizes, indices — depends only on the eligible set
// at n, which is itself deterministic under a churn schedule, never on
// completion timing.
func (d *dispatch) plan(j *job, n int) {
	elig := d.eligible()
	switch {
	case len(elig) == 0:
		j.plan = []*chunk{{j: j, invs: j.spec.Invocations}}
	case j.prober:
		j.plan = []*chunk{{j: j, invs: j.spec.Invocations, planned: elig[n%len(elig)].spec.Name}}
	default:
		weights := make([]float64, len(elig))
		for i, m := range elig {
			weights[i] = m.spec.Weight
		}
		for i, k := range apportion.Split(j.spec.Invocations, weights) {
			if k > 0 {
				j.plan = append(j.plan, &chunk{j: j, invs: k, index: len(j.plan), planned: elig[i].spec.Name})
			}
		}
	}
	j.chunksLeft = len(j.plan)
}

// start queues a running job's chunks, each on its planned node or —
// when that node stopped serving while the job was parked — rehomed
// (chunkTarget). A chunk with no lane to queue on runs on its own
// goroutine: MaxInFlight-way concurrency, where a lane would serialise.
func (d *dispatch) start(j *job) {
	elig := d.eligible()
	for _, c := range j.plan {
		target := d.chunkTarget(c, elig)
		if target == nil {
			d.out.laneless = append(d.out.laneless, c)
			continue
		}
		target.queue = append(target.queue, c)
		d.out.wakes = append(d.out.wakes, target)
	}
}

// chunkTarget routes a chunk to its planned node, or — when the planned
// node stopped serving between dispatch and enqueue — rehomes it to the
// least-loaded eligible node. Placement neutrality makes the choice
// invisible to virtual time. Nil means there is no lane to queue on.
func (d *dispatch) chunkTarget(c *chunk, elig []*memberState) *memberState {
	if m := d.members[c.planned]; m != nil && slices.Contains(elig, m) {
		return m
	}
	var best *memberState
	for _, m := range elig {
		if best == nil || len(m.queue) < len(best.queue) {
			best = m
		}
	}
	if best == nil {
		return nil
	}
	c.rehomed = true
	best.stats.Rehomed++
	d.memStats.Rehomed++
	return best
}

// rehome re-apportions a victim's queued chunks across the remaining
// nodes. Whole chunks move — never re-split, never re-run — so each
// invocation still executes exactly once, and the chunk seeds
// (signature + index) are unchanged, so total virtual time is too.
func (d *dispatch) rehome(victim *memberState) {
	pending := victim.queue
	victim.queue = nil
	if len(pending) == 0 {
		return
	}
	targets := d.eligible() // never the victim: it is draining
	if len(targets) == 0 {
		// Unreachable under the last-node guards; keep the chunks
		// rather than lose them.
		victim.queue = pending
		return
	}
	weights := make([]float64, len(targets))
	for i, m := range targets {
		weights[i] = m.spec.Weight
	}
	counts := apportion.Split(len(pending), weights)
	i := 0
	for k, m := range targets {
		for n := 0; n < counts[k]; n++ {
			c := pending[i]
			i++
			c.rehomed = true
			m.queue = append(m.queue, c)
		}
		if counts[k] > 0 {
			m.stats.Rehomed += counts[k]
			d.out.wakes = append(d.out.wakes, m)
		}
	}
	d.memStats.Rehomed += len(pending)
	d.logf("server: rehomed %d chunks off %s", len(pending), victim.spec.Name)
}

// applyChurn applies every scheduled churn event due at dispatch
// milestone n, folding each application (and its outcome) into the
// dispatch hash — churn is part of the fingerprinted schedule.
func (d *dispatch) applyChurn(n int) {
	for d.churnNext < len(d.churn) && d.churn[d.churnNext].AtDispatch <= n {
		ev := d.churn[d.churnNext]
		d.churnNext++
		outcome := "ok"
		if err := d.op(ev.Op, ev.Member); err != nil {
			outcome = "err"
			d.logf("server: churn %s %s at d%d: %v", ev.Op, ev.Member.Name, n, err)
		}
		rec := fmt.Sprintf("d%d:churn-%s:%s:%s", n, ev.Op, ev.Member.Name, outcome)
		d.record(rec)
		d.memStats.ChurnApplied++
		d.memStats.Transitions = append(d.memStats.Transitions, rec)
	}
}

// next is node lane m's pull: a re-probe while m warms, then its queued
// chunks in order, and exit once m is removed. A draining member whose
// queue is empty is removed here.
func (d *dispatch) next(m *memberState) work {
	switch {
	case m.state == NodeRemoved:
		return work{exit: true}
	case m.state == NodeWarming && len(m.reprobes) > 0:
		sp := m.reprobes[0]
		m.reprobes = m.reprobes[1:]
		return work{reprobe: &sp}
	case len(m.queue) > 0:
		c := m.queue[0]
		m.queue = m.queue[1:]
		return work{c: c}
	case m.state == NodeDraining:
		m.state = NodeRemoved
		d.logf("server: node %s removed", m.spec.Name)
		return work{exit: true}
	}
	return work{}
}

// reprobed books one of member m's warm-up re-probes. Re-probe time is
// warm-up overhead, accounted apart from job virtual time. Leaving the
// warming state stays out of the Transitions log: it happens at a
// wall-clock moment, and the log records only events at dispatch
// milestones.
func (d *dispatch) reprobed(m *memberState, sp Spec, res ExecResult, err error) {
	m.stats.Reprobes++
	d.memStats.Reprobes++
	if err != nil {
		d.logf("server: reprobe %s on %s: %v", sp.Sig(), m.spec.Name, err)
	} else {
		d.memStats.ReprobeVirtualNs += res.VirtualNs
	}
	if m.state == NodeWarming && len(m.reprobes) == 0 {
		m.state = NodeActive
		d.logf("server: node %s warmed, serving", m.spec.Name)
	}
}

// stats returns a deep snapshot.
func (d *dispatch) stats() Stats {
	out := d.totals
	out.QueueDepth = d.queued
	out.InFlight = d.inFlight
	out.DispatchHash = d.hash.h
	out.Tenants = make(map[string]TenantStats, len(d.tenants))
	for _, name := range d.order {
		t := d.tenants[name]
		ts := t.stats
		ts.QueueDepth = len(t.queue)
		out.Tenants[name] = ts
	}
	if d.members == nil {
		return out
	}
	ms := d.memStats
	ms.Transitions = append([]string(nil), d.memStats.Transitions...)
	ms.Nodes = make(map[string]NodeStats, len(d.members))
	for _, name := range d.memberOrder {
		m := d.members[name]
		ns := m.stats
		ns.Class = m.spec.Class
		ns.Weight = m.spec.Weight
		ns.State = m.state.String()
		ns.QueueDepth = len(m.queue)
		ms.Nodes[name] = ns
	}
	out.Membership = &ms
	return out
}

// recent returns a copy of the most recent dispatch and churn records.
func (d *dispatch) recent() []string {
	return slices.Clone(d.dispatchOrder[max(0, len(d.dispatchOrder)-dispatchOrderKeep):])
}
