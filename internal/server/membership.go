package server

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"hetmp/internal/apportion"
)

// This file implements elastic cluster membership (ROADMAP item 2):
// the RegionServer's executor capacity becomes a set of named node
// lanes that can be added, cordoned and removed while jobs are in
// flight. Warm jobs are split into invocation chunks apportioned
// across serving nodes (internal/apportion, exact by construction);
// removing a node re-apportions its queued chunks across survivors
// with exactly-once accounting, and adding a node of a class the
// decision store has never covered triggers a bounded class-scoped
// re-probe before the newcomer serves.
//
// The determinism contract survives churn through placement
// neutrality: a chunk's simulated execution is a function of
// (signature, chunk index, invocation count) — never of the node lane
// that serves it or the wall-clock moment it runs. Rehoming moves
// whole chunks without re-splitting, so a job's chunk set — and with
// it the total virtual time — is fixed at dispatch, and churn applied
// at dispatch milestones (ChurnEvent.AtDispatch) folds into the
// dispatch hash at a deterministic position. See DESIGN.md §16.

// Typed membership errors. Carried over rpc as err_kind metadata so
// remote callers can match with errors.Is.
var (
	// ErrUnknownNode rejects operations on a node the membership has
	// never seen (or has fully removed).
	ErrUnknownNode = errors.New("server: unknown node")
	// ErrNodeExists rejects adding a node name that is still present.
	ErrNodeExists = errors.New("server: node already present")
	// ErrNodeDraining rejects operations on a node mid-drain.
	ErrNodeDraining = errors.New("server: node draining")
	// ErrLastNode refuses a removal/cordon that would leave the server
	// with no node able to serve.
	ErrLastNode = errors.New("server: refusing to remove last serving node")
)

// Member describes one node lane of the elastic membership.
type Member struct {
	// Name uniquely identifies the node ("n0").
	Name string
	// Class is the node's hardware class ("xeon", "thunderx") —
	// matched against the decision store's per-entry class coverage to
	// decide whether a newcomer needs a re-probe.
	Class string
	// Weight is the node's apportioning weight. Defaults to 1.
	Weight float64
}

// NodeState is a member's lifecycle state.
type NodeState int

const (
	// NodeActive serves chunks.
	NodeActive NodeState = iota
	// NodeWarming runs its class-scoped re-probes before serving.
	NodeWarming
	// NodeCordoned finishes queued chunks but receives no new ones.
	NodeCordoned
	// NodeDraining is mid-removal: queue re-apportioned, the running
	// chunk (if any) completing.
	NodeDraining
	// NodeRemoved is gone; the name may be re-added.
	NodeRemoved
)

func (st NodeState) String() string {
	switch st {
	case NodeActive:
		return "active"
	case NodeWarming:
		return "warming"
	case NodeCordoned:
		return "cordoned"
	case NodeDraining:
		return "draining"
	case NodeRemoved:
		return "removed"
	}
	return fmt.Sprintf("state(%d)", int(st))
}

// ChurnOp is a membership-churn operation.
type ChurnOp string

// Churn operations.
const (
	ChurnAdd      ChurnOp = "add"
	ChurnRemove   ChurnOp = "remove"
	ChurnCordon   ChurnOp = "cordon"
	ChurnUncordon ChurnOp = "uncordon"
)

// ChurnEvent is one scheduled membership change, applied by the
// scheduler when the dispatch count reaches AtDispatch — a virtual
// milestone, never a wall-clock time, so a churn schedule replays
// identically and its records fold into the dispatch hash.
type ChurnEvent struct {
	AtDispatch int
	Op         ChurnOp
	Member     Member // Name always; Class/Weight for ChurnAdd
}

// ChunkExecutor is the optional executor capability that runs one chunk
// of a job's invocations under the placement-neutral seed (signature +
// chunk index). Executors without it get Execute with the chunk's
// invocation count.
type ChunkExecutor interface {
	ExecuteChunk(sp Spec, invocations, chunkIndex int) (ExecResult, error)
}

// reprobeLimit bounds, in signatures, the class-scoped re-probe a
// newcomer of an uncovered class triggers.
const reprobeLimit = 4

// ClassWarmer is the optional executor capability behind warm-start:
// coverage checks against the decision store's per-entry class stamps,
// and bounded forced re-probes for signatures a new class has never
// validated.
type ClassWarmer interface {
	ClassCovered(class string) bool
	ReprobeSpecs(class string, limit int) []Spec
	Reprobe(sp Spec, classes []string) (ExecResult, error)
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

// memberState is one node lane's live state. All fields are guarded by
// RegionServer.mu except wake (owned by signalChan/memberLoop).
type memberState struct {
	spec     Member
	state    NodeState
	queue    []*chunk
	reprobes []Spec
	wake     chan struct{} // 1-buffered worker wakeup
	stats    NodeStats
}

// NodeStats is one member node's accounting snapshot.
type NodeStats struct {
	Class       string  `json:"class"`
	Weight      float64 `json:"weight"`
	State       string  `json:"state"`
	QueueDepth  int     `json:"queue_depth"`
	Chunks      int     `json:"chunks"`
	Invocations int64   `json:"invocations"`
	Rehomed     int     `json:"rehomed"`
	Reprobes    int     `json:"reprobes"`
}

// MembershipStats is the membership layer's snapshot: per-node
// accounting plus the cluster-wide churn counters the SLO gates
// read (LostIterations must stay 0 — the exactly-once assertion).
type MembershipStats struct {
	Nodes            map[string]NodeStats `json:"nodes"`
	ChurnApplied     int                  `json:"churn_applied"`
	Rehomed          int                  `json:"rehomed"`
	Reprobes         int                  `json:"reprobes"`
	ReprobeVirtualNs int64                `json:"reprobe_virtual_ns"`
	LostIterations   int64                `json:"lost_iterations"`
	Transitions      []string             `json:"transitions,omitempty"`
}

// signalChan is the non-blocking wake for a member worker. Callers
// must not hold s.mu (channel ops under a mutex are a blocking-lock
// violation); the 1-buffer makes a wake between a worker's unlock and
// its blocking receive stick.
func signalChan(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// initMembership wires the configured members in. Called from New
// before the scheduler goroutine starts, so the *Locked helpers run
// without contention.
func (s *RegionServer) initMembership() {
	s.members = map[string]*memberState{}
	s.churn = s.cfg.Churn
	for _, m := range s.cfg.Members {
		if err := s.addNodeLocked(m); err != nil {
			s.logf("server: initial member %s: %v", m.Name, err)
		}
	}
}

// AddNode adds (or re-adds) a node lane. A node of a class the
// decision store already covers serves immediately — warm-started,
// zero probes; an uncovered class warms up first through a bounded
// class-scoped re-probe of stored signatures.
func (s *RegionServer) AddNode(mem Member) error { return s.applyOp(ChurnAdd, mem) }

// RemoveNode drains a node: its queued chunks re-apportion across the
// survivors immediately (exactly-once — whole chunks move, nothing is
// re-split or re-run), the running chunk completes, then the lane
// exits. Refuses to remove the last serving node (ErrLastNode).
func (s *RegionServer) RemoveNode(name string) error {
	return s.applyOp(ChurnRemove, Member{Name: name})
}

// CordonNode stops routing new chunks to a node; queued chunks still
// run. Refuses to cordon the last serving node.
func (s *RegionServer) CordonNode(name string) error {
	return s.applyOp(ChurnCordon, Member{Name: name})
}

// UncordonNode returns a cordoned node to service.
func (s *RegionServer) UncordonNode(name string) error {
	return s.applyOp(ChurnUncordon, Member{Name: name})
}

// applyOp is the live-API entry to a membership operation: it refuses
// when the layer is off, records a successful op in the Transitions
// log, and wakes affected lanes only after unlocking.
func (s *RegionServer) applyOp(op ChurnOp, m Member) error {
	var fx effects
	var err error
	s.mu.Lock()
	if s.members == nil {
		err = errors.New("server: membership not enabled")
	} else if err = s.applyOpLocked(op, m, &fx); err == nil {
		s.memStats.Transitions = append(s.memStats.Transitions, "api:"+string(op)+":"+m.Name)
	}
	s.mu.Unlock()
	s.apply(&fx)
	return err
}

// applyOpLocked performs one membership operation — the single
// dispatch point behind the live API and the churn schedule.
func (s *RegionServer) applyOpLocked(op ChurnOp, m Member, fx *effects) error {
	switch op {
	case ChurnAdd:
		return s.addNodeLocked(m)
	case ChurnRemove:
		return s.removeNodeLocked(m.Name, fx)
	case ChurnCordon:
		return s.cordonLocked(m.Name)
	case ChurnUncordon:
		return s.uncordonLocked(m.Name)
	}
	return fmt.Errorf("server: unknown churn op %q", op)
}

func (s *RegionServer) addNodeLocked(mem Member) error {
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
	old := s.members[mem.Name]
	if old != nil && old.state == NodeDraining {
		// Finalize the removal here rather than waiting for the old
		// worker to observe its empty queue: whether that wake has
		// happened by the add milestone is a wall-clock race, and the
		// add's ok/err outcome feeds the dispatch hash and the eligible
		// set. The old worker exits on its next wake (or after finishing
		// a chunk already in flight); its queue was rehomed at remove.
		old.state = NodeRemoved
		s.logf("server: node %s removed (readmitted while draining)", mem.Name)
	}
	if old != nil && old.state != NodeRemoved {
		return fmt.Errorf("server: node %s: %w", mem.Name, ErrNodeExists)
	}
	st := NodeActive
	var reprobes []Spec
	if cw, ok := s.exec.(ClassWarmer); ok && !cw.ClassCovered(mem.Class) {
		reprobes = cw.ReprobeSpecs(mem.Class, reprobeLimit)
		if len(reprobes) > 0 {
			st = NodeWarming
		}
	}
	// Always a fresh memberState: a revived name must not share state
	// with the old lane's worker goroutine (which exits on its own
	// wake). Cumulative stats carry over.
	m := &memberState{
		spec:     mem,
		state:    st,
		reprobes: reprobes,
		wake:     make(chan struct{}, 1),
	}
	if old != nil {
		m.stats = old.stats
		signalChan(old.wake) // hasten the old worker's exit
	} else {
		s.memberOrder = append(s.memberOrder, mem.Name)
		sort.Strings(s.memberOrder)
	}
	m.stats.Class = mem.Class
	m.stats.Weight = mem.Weight
	s.members[mem.Name] = m
	s.memberWG.Add(1)
	go s.memberLoop(m)
	s.logf("server: node %s (%s, weight %g) joined %s", mem.Name, mem.Class, mem.Weight, st)
	return nil
}

func (s *RegionServer) removeNodeLocked(name string, fx *effects) error {
	m := s.members[name]
	if m == nil || m.state == NodeRemoved {
		return fmt.Errorf("server: node %s: %w", name, ErrUnknownNode)
	}
	if m.state == NodeDraining {
		return fmt.Errorf("server: node %s: %w", name, ErrNodeDraining)
	}
	if s.othersServingLocked(m) == 0 {
		return fmt.Errorf("server: node %s: %w", name, ErrLastNode)
	}
	m.state = NodeDraining
	m.reprobes = nil
	s.rehomeLocked(m, fx)
	fx.wakes = append(fx.wakes, m.wake)
	s.logf("server: node %s draining", name)
	return nil
}

func (s *RegionServer) cordonLocked(name string) error {
	m := s.members[name]
	if m == nil || m.state == NodeRemoved {
		return fmt.Errorf("server: node %s: %w", name, ErrUnknownNode)
	}
	switch m.state {
	case NodeCordoned:
		return nil // idempotent
	case NodeDraining:
		return fmt.Errorf("server: node %s: %w", name, ErrNodeDraining)
	case NodeActive, NodeWarming:
		if s.othersServingLocked(m) == 0 {
			return fmt.Errorf("server: node %s: %w", name, ErrLastNode)
		}
		m.state = NodeCordoned
		m.reprobes = nil
		s.logf("server: node %s cordoned", name)
		return nil
	}
	return fmt.Errorf("server: node %s: cannot cordon from state %s", name, m.state)
}

func (s *RegionServer) uncordonLocked(name string) error {
	m := s.members[name]
	if m == nil || m.state == NodeRemoved {
		return fmt.Errorf("server: node %s: %w", name, ErrUnknownNode)
	}
	switch m.state {
	case NodeActive:
		return nil // idempotent
	case NodeCordoned:
		m.state = NodeActive
		s.logf("server: node %s uncordoned", name)
		return nil
	}
	return fmt.Errorf("server: node %s: cannot uncordon from state %s", name, m.state)
}

// othersServingLocked counts members other than m that could serve
// (now or after warming) — the last-node guard's survivor count.
func (s *RegionServer) othersServingLocked(m *memberState) int {
	n := 0
	for _, name := range s.memberOrder {
		o := s.members[name]
		if o == m {
			continue
		}
		switch o.state {
		case NodeActive, NodeWarming, NodeCordoned:
			n++
		}
	}
	return n
}

// eligibleLocked returns the nodes a new plan may target, in sorted
// name order. Active nodes are preferred; when none exist the
// selection degrades to warming nodes (their chunks queue behind the
// re-probes), then cordoned ones, so the guarded invariant "at least
// one member can serve" keeps plans on a lane. Empty only when the
// server has no members.
func (s *RegionServer) eligibleLocked() []*memberState {
	for _, st := range []NodeState{NodeActive, NodeWarming, NodeCordoned} {
		var out []*memberState
		for _, name := range s.memberOrder {
			if m := s.members[name]; m.state == st {
				out = append(out, m)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
	return nil
}

// planLocked builds a job's chunk plan at dispatch time — every job has
// one. A prober (first dispatch of a cold signature) and any job on a
// server without members get one whole-job chunk: cold probing is a
// whole-job affair, and with no lanes there is nothing to split across.
// Other jobs split invocations across the eligible nodes by weight. The
// plan — chunk count, sizes, indices — depends only on the eligible set
// at dispatch d, which is itself deterministic under a churn schedule,
// never on completion timing.
func (s *RegionServer) planLocked(j *job, d int) {
	j.invsPlanned = j.spec.Invocations
	elig := s.eligibleLocked()
	switch {
	case len(elig) == 0:
		j.plan = []*chunk{{j: j, invs: j.invsPlanned}}
	case j.prober:
		j.plan = []*chunk{{j: j, invs: j.invsPlanned, planned: elig[d%len(elig)].spec.Name}}
	default:
		weights := make([]float64, len(elig))
		for i, m := range elig {
			weights[i] = m.spec.Weight
		}
		for i, n := range apportion.Split(j.invsPlanned, weights) {
			if n > 0 {
				j.plan = append(j.plan, &chunk{j: j, invs: n, index: len(j.plan), planned: elig[i].spec.Name})
			}
		}
	}
	j.chunksLeft = len(j.plan)
}

// startLocked queues a running job's chunks, each on its planned node
// or — when that node stopped serving while the job was parked —
// rehomed (chunkTargetLocked). A chunk with no lane to queue on runs
// on its own goroutine: MaxInFlight-way concurrency, where a lane
// would serialise.
func (s *RegionServer) startLocked(j *job, fx *effects) {
	elig := s.eligibleLocked()
	for _, c := range j.plan {
		target := s.chunkTargetLocked(c, elig)
		if target == nil {
			fx.laneless = append(fx.laneless, c)
			continue
		}
		target.queue = append(target.queue, c)
		fx.wakes = append(fx.wakes, target.wake)
	}
}

// chunkFinished books an executed chunk: the serving lane's counters
// (m is nil for a laneless chunk) and the job's executed-invocation
// count. The job's last chunk finishes the job.
func (s *RegionServer) chunkFinished(c *chunk, m *memberState) {
	var fx effects
	s.mu.Lock()
	if m != nil {
		m.stats.Chunks++
		m.stats.Invocations += int64(c.invs)
	}
	if c.err == nil {
		c.j.invsDone += c.invs
	}
	c.j.chunksLeft--
	if c.j.chunksLeft == 0 {
		s.finishLocked(c.j, &fx)
	}
	s.mu.Unlock()
	s.apply(&fx)
}

// chunkTargetLocked routes a chunk to its planned node, or — when the
// planned node stopped serving between dispatch and enqueue — rehomes
// it to the least-loaded eligible node. Placement neutrality makes the
// choice invisible to virtual time. Nil means there is no lane to queue
// on and the chunk runs on its own goroutine.
func (s *RegionServer) chunkTargetLocked(c *chunk, elig []*memberState) *memberState {
	if m := s.members[c.planned]; m != nil {
		for _, e := range elig {
			if e == m {
				return m
			}
		}
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
	s.memStats.Rehomed++
	return best
}

// rehomeLocked re-apportions a victim's queued chunks across the
// remaining nodes. Whole chunks move — never re-split, never re-run —
// so each invocation still executes exactly once, and the chunk seeds
// (signature + index) are unchanged, so total virtual time is too.
func (s *RegionServer) rehomeLocked(victim *memberState, fx *effects) {
	pending := victim.queue
	victim.queue = nil
	if len(pending) == 0 {
		return
	}
	var targets []*memberState
	for _, m := range s.eligibleLocked() {
		if m != victim {
			targets = append(targets, m)
		}
	}
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
			fx.wakes = append(fx.wakes, m.wake)
		}
	}
	s.memStats.Rehomed += len(pending)
	s.logf("server: rehomed %d chunks off %s", len(pending), victim.spec.Name)
}

// applyChurnLocked applies every scheduled churn event due at dispatch
// milestone d, folding each application (and its outcome) into the
// dispatch hash — churn is part of the fingerprinted schedule.
func (s *RegionServer) applyChurnLocked(d int, fx *effects) {
	for s.churnNext < len(s.churn) && s.churn[s.churnNext].AtDispatch <= d {
		ev := s.churn[s.churnNext]
		s.churnNext++
		outcome := "ok"
		if err := s.applyOpLocked(ev.Op, ev.Member, fx); err != nil {
			outcome = "err"
			s.logf("server: churn %s %s at d%d: %v", ev.Op, ev.Member.Name, d, err)
		}
		rec := fmt.Sprintf("d%d:churn-%s:%s:%s", d, ev.Op, ev.Member.Name, outcome)
		s.recordLocked(rec)
		s.memStats.ChurnApplied++
		s.memStats.Transitions = append(s.memStats.Transitions, rec)
	}
}

// memberLoop is one node lane's worker: it runs re-probes while
// warming, then serves queued chunks one at a time, and exits once the
// lane is removed. All channel operations happen outside s.mu.
func (s *RegionServer) memberLoop(m *memberState) {
	defer s.memberWG.Done()
	for {
		s.mu.Lock()
		if m.state == NodeRemoved {
			s.mu.Unlock()
			return
		}
		if m.state == NodeWarming && len(m.reprobes) > 0 {
			sp := m.reprobes[0]
			m.reprobes = m.reprobes[1:]
			class := m.spec.Class
			s.mu.Unlock()

			var res ExecResult
			var err error
			if cw, ok := s.exec.(ClassWarmer); ok {
				res, err = cw.Reprobe(sp, []string{class})
			}

			s.mu.Lock()
			m.stats.Reprobes++
			s.memStats.Reprobes++
			if err != nil {
				s.logf("server: reprobe %s on %s: %v", sp.Sig(), m.spec.Name, err)
			} else {
				// Re-probe time is warm-up overhead, accounted apart
				// from job virtual time.
				s.memStats.ReprobeVirtualNs += res.VirtualNs
			}
			// Worker-side transitions stay out of the Transitions log:
			// they happen at wall-clock moments, and the log records
			// only virtually-timestamped events.
			if m.state == NodeWarming && len(m.reprobes) == 0 {
				m.state = NodeActive
				s.logf("server: node %s warmed, serving", m.spec.Name)
			}
			s.mu.Unlock()
			continue
		}
		if len(m.queue) > 0 {
			c := m.queue[0]
			m.queue = m.queue[1:]
			s.mu.Unlock()

			s.executeChunk(c)
			s.chunkFinished(c, m)
			continue
		}
		if m.state == NodeDraining {
			m.state = NodeRemoved
			s.mu.Unlock()
			s.logf("server: node %s removed", m.spec.Name)
			return
		}
		wake := m.wake
		s.mu.Unlock()
		<-wake
	}
}

// executeChunk runs one chunk under the chunk-index seed when the
// executor supports it. A whole-job chunk (all invocations, index 0) is
// exactly Execute(sp) either way.
func (s *RegionServer) executeChunk(c *chunk) {
	sp := c.j.spec
	if ce, ok := s.exec.(ChunkExecutor); ok {
		c.res, c.err = ce.ExecuteChunk(sp, c.invs, c.index)
		return
	}
	sp.Invocations = c.invs
	c.res, c.err = s.exec.Execute(sp)
}

// membershipStatsLocked snapshots the membership layer.
func (s *RegionServer) membershipStatsLocked() *MembershipStats {
	if s.members == nil {
		return nil
	}
	out := s.memStats
	out.Transitions = append([]string(nil), s.memStats.Transitions...)
	out.Nodes = make(map[string]NodeStats, len(s.members))
	for _, name := range s.memberOrder {
		m := s.members[name]
		ns := m.stats
		ns.Class = m.spec.Class
		ns.Weight = m.spec.Weight
		ns.State = m.state.String()
		ns.QueueDepth = len(m.queue)
		out.Nodes[name] = ns
	}
	return &out
}

// ParseMembers parses a member list: "name:class[:weight],..."
// (e.g. "n0:xeon:1,n1:thunderx:1,n2:thunderx:1").
func ParseMembers(s string) ([]Member, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []Member
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f := strings.Split(part, ":")
		if len(f) < 2 || len(f) > 3 {
			return nil, fmt.Errorf("server: member %q: want name:class[:weight]", part)
		}
		m := Member{Name: strings.TrimSpace(f[0]), Class: strings.ToLower(strings.TrimSpace(f[1])), Weight: 1}
		if m.Name == "" || m.Class == "" {
			return nil, fmt.Errorf("server: member %q: empty name or class", part)
		}
		if len(f) == 3 {
			w, err := strconv.ParseFloat(strings.TrimSpace(f[2]), 64)
			if err != nil || !(w > 0) || math.IsInf(w, 1) {
				return nil, fmt.Errorf("server: member %q: bad weight", part)
			}
			m.Weight = w
		}
		out = append(out, m)
	}
	return out, nil
}

// ParseChurn parses a churn schedule: "op:args@dispatch,..." where op
// is add (args = member spec), remove, cordon or uncordon (args = node
// name); e.g. "remove:n1@30,add:n1:thunderx:1@70". Events are ordered
// by dispatch milestone (stable for ties).
func ParseChurn(s string) ([]ChurnEvent, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []ChurnEvent
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		body, at, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("server: churn %q: missing @dispatch", part)
		}
		d, err := strconv.Atoi(strings.TrimSpace(at))
		if err != nil || d < 0 {
			return nil, fmt.Errorf("server: churn %q: bad dispatch milestone", part)
		}
		opStr, rest, ok := strings.Cut(body, ":")
		if !ok {
			return nil, fmt.Errorf("server: churn %q: want op:node", part)
		}
		ev := ChurnEvent{AtDispatch: d, Op: ChurnOp(strings.TrimSpace(opStr))}
		switch ev.Op {
		case ChurnAdd:
			ms, merr := ParseMembers(rest)
			if merr != nil || len(ms) != 1 {
				return nil, fmt.Errorf("server: churn %q: bad member spec", part)
			}
			ev.Member = ms[0]
		case ChurnRemove, ChurnCordon, ChurnUncordon:
			ev.Member = Member{Name: strings.TrimSpace(rest)}
			if ev.Member.Name == "" {
				return nil, fmt.Errorf("server: churn %q: empty node name", part)
			}
		default:
			return nil, fmt.Errorf("server: churn %q: unknown op %q", part, opStr)
		}
		out = append(out, ev)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].AtDispatch < out[j].AtDispatch })
	return out, nil
}

// specFromSig reconstructs a runnable Spec from a stored decision key
// (Sig's "region/i%d/k%g/p%d" format) — re-probe scheduling reads keys
// back from the store, which holds only signatures.
func specFromSig(sig string) (Spec, bool) {
	parts := strings.Split(sig, "/")
	if len(parts) < 4 {
		return Spec{}, false
	}
	n := len(parts)
	iters, ok1 := atoiPrefixed(parts[n-3], "i")
	ops, ok2 := atofPrefixed(parts[n-2], "k")
	pages, ok3 := atoiPrefixed(parts[n-1], "p")
	if !ok1 || !ok2 || !ok3 {
		return Spec{}, false
	}
	sp := Spec{
		Region:     strings.Join(parts[:n-3], "/"),
		Iterations: iters,
		OpsPerByte: ops,
		Pages:      pages,
	}
	return sp.withDefaults(), true
}

func atoiPrefixed(s, prefix string) (int, bool) {
	rest, ok := strings.CutPrefix(s, prefix)
	if !ok {
		return 0, false
	}
	v, err := strconv.Atoi(rest)
	if err != nil || v <= 0 {
		return 0, false
	}
	return v, true
}

func atofPrefixed(s, prefix string) (float64, bool) {
	rest, ok := strings.CutPrefix(s, prefix)
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil || v <= 0 {
		return 0, false
	}
	return v, true
}
