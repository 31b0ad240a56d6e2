package server

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is elastic cluster membership's surface (ROADMAP item 2,
// DESIGN.md §16): named node lanes added, cordoned and removed while
// jobs are in flight, their parsers, and the shell's node lane worker.
// The decisions — chunk plans, rehoming, churn at dispatch milestones,
// exactly-once accounting — are the dispatch core's (dispatch.go). A
// chunk's simulated execution is a function of (signature, chunk index,
// invocation count), never of the lane that serves it or when, so churn
// moves no virtual time.

// Typed membership errors, for callers to match with errors.Is.
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

var nodeStateNames = [...]string{"active", "warming", "cordoned", "draining", "removed"}

func (st NodeState) String() string {
	if st >= 0 && int(st) < len(nodeStateNames) {
		return nodeStateNames[st]
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

// ChurnEvent is one scheduled membership change, applied when the
// dispatch count reaches AtDispatch — a virtual milestone, never a
// wall-clock time, so a churn schedule replays identically and its
// records fold into the dispatch hash.
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

// AddNode adds (or re-adds) a node lane. A node of a class the
// decision store already covers serves immediately — warm-started,
// zero probes; an uncovered class warms up first through a bounded
// class-scoped re-probe of stored signatures.
func (s *RegionServer) AddNode(mem Member) error { return s.nodeOp(ChurnAdd, mem) }

// RemoveNode drains a node: its queued chunks re-apportion across the
// survivors immediately (exactly-once — whole chunks move, nothing is
// re-split or re-run), the running chunk completes, then the lane
// exits. Refuses to remove the last serving node (ErrLastNode).
func (s *RegionServer) RemoveNode(name string) error {
	return s.nodeOp(ChurnRemove, Member{Name: name})
}

// CordonNode stops routing new chunks to a node; queued chunks still
// run. Refuses to cordon the last serving node.
func (s *RegionServer) CordonNode(name string) error {
	return s.nodeOp(ChurnCordon, Member{Name: name})
}

// UncordonNode returns a cordoned node to service.
func (s *RegionServer) UncordonNode(name string) error {
	return s.nodeOp(ChurnUncordon, Member{Name: name})
}

func (s *RegionServer) nodeOp(op ChurnOp, m Member) (err error) {
	s.step(func() { err = s.d.apiOp(op, m) })
	return err
}

// memberLoop is node lane m: it pulls m's next re-probe or chunk from
// the core, runs it outside s.mu and books it, until the core says m is
// removed. It blocks on wake only when there is nothing to pull.
func (s *RegionServer) memberLoop(m *memberState, wake chan struct{}) {
	defer s.memberWG.Done()
	for {
		var w work
		s.step(func() { w = s.d.next(m) })
		switch {
		case w.exit:
			s.wakes.Delete(m)
			return
		case w.c != nil:
			res, err := s.execute(w.c)
			s.step(func() { s.d.complete(m, w.c, res, err) })
		case w.reprobe != nil:
			res, err := s.cfg.Executor.(ClassWarmer).Reprobe(*w.reprobe, []string{m.spec.Class})
			s.step(func() { s.d.reprobed(m, *w.reprobe, res, err) })
		default:
			<-wake
		}
	}
}

// execute runs one chunk under the chunk-index seed when the executor
// supports it. A whole-job chunk (all invocations, index 0) is exactly
// Execute(sp) either way.
func (s *RegionServer) execute(c *chunk) (ExecResult, error) {
	sp := c.j.spec
	if ce, ok := s.cfg.Executor.(ChunkExecutor); ok {
		return ce.ExecuteChunk(sp, c.invs, c.index)
	}
	sp.Invocations = c.invs
	return s.cfg.Executor.Execute(sp)
}

// ParseMembers parses a member list: "name:class[:weight],..."
// (e.g. "n0:xeon:1,n1:thunderx:1,n2:thunderx:1"). A name may appear
// once.
func ParseMembers(s string) ([]Member, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []Member
	seen := map[string]bool{}
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
		if seen[m.Name] {
			return nil, fmt.Errorf("server: member %q: name %q repeated", part, m.Name)
		}
		seen[m.Name] = true
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
