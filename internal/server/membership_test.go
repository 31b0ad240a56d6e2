package server

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeChunkExec is a deterministic executor with the membership
// capabilities. A signature's first chunk is its cold prober (instant,
// never blocked — like fakeExec's first Execute); every later chunk is
// warm and reports a per-invocation virtual time that depends only on
// the chunk index — placement-neutral by construction — with one index
// optionally slowed, so total virtual time depends on the plans' shape.
type fakeChunkExec struct {
	mu         sync.Mutex
	seen       map[string]bool
	baseNs     int64
	slowIndex  int // chunk index that runs slow; -1 for none
	slowNs     int64
	block      chan struct{} // non-nil: warm chunks block until closed
	chunkCalls int           // warm chunks started
}

func newFakeChunkExec() *fakeChunkExec {
	return &fakeChunkExec{baseNs: 1000, slowIndex: -1, slowNs: 10_000}
}

func (f *fakeChunkExec) Execute(sp Spec) (ExecResult, error) {
	return f.ExecuteChunk(sp, sp.withDefaults().Invocations, 0)
}

func (f *fakeChunkExec) ExecuteChunk(sp Spec, invocations, chunkIndex int) (ExecResult, error) {
	f.mu.Lock()
	if f.seen == nil {
		f.seen = map[string]bool{}
	}
	warm := f.seen[sp.Sig()]
	f.seen[sp.Sig()] = true
	if warm {
		f.chunkCalls++
	}
	block := f.block
	f.mu.Unlock()
	if !warm {
		return ExecResult{VirtualNs: f.baseNs * int64(invocations), Probes: 4}, nil
	}
	if block != nil {
		<-block
	}
	per := f.baseNs
	if chunkIndex == f.slowIndex {
		per = f.slowNs
	}
	return ExecResult{VirtualNs: per * int64(invocations), Predictions: 1}, nil
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", msg)
}

func threeNodes() []Member {
	return []Member{
		{Name: "n0", Class: "xeon", Weight: 1},
		{Name: "n1", Class: "thunderx", Weight: 1},
		{Name: "n2", Class: "thunderx", Weight: 1},
	}
}

// Removing a node with chunks queued on it must re-apportion them to
// the survivors: every planned invocation executes exactly once, zero
// lost iterations, and the victim finishes draining once its running
// chunk completes.
func TestRemoveWhileChunksInFlight(t *testing.T) {
	f := newFakeChunkExec()
	f.block = make(chan struct{})
	s := New(Config{
		StartPaused: true,
		MaxInFlight: 8,
		QueueDepth:  64,
		Executor:    f,
		Members:     threeNodes(),
	})
	defer s.Close()
	const jobs, invs = 10, 6
	var specs []Spec
	for i := 0; i < jobs; i++ {
		specs = append(specs, Spec{Tenant: "t0", Region: "r", Invocations: invs})
	}
	chans := preload(t, s, specs)
	s.Resume()

	// Wait until n1 has chunks queued behind its blocked running chunk.
	waitFor(t, func() bool {
		ms := s.Stats().Membership
		return ms != nil && ms.Nodes["n1"].QueueDepth > 0
	}, "chunks queued on n1")

	if err := s.RemoveNode("n1"); err != nil {
		t.Fatalf("RemoveNode(n1): %v", err)
	}
	// A second removal mid-drain is the typed draining error.
	if err := s.RemoveNode("n1"); !errors.Is(err, ErrNodeDraining) {
		t.Fatalf("second RemoveNode(n1) = %v, want ErrNodeDraining", err)
	}
	close(f.block)

	for i, r := range collect(chans) {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
	}
	waitFor(t, func() bool {
		return s.Stats().Membership.Nodes["n1"].State == "removed"
	}, "n1 drained to removed")

	ms := s.Stats().Membership
	if ms.LostIterations != 0 {
		t.Fatalf("LostIterations = %d, want 0 (exactly-once broke)", ms.LostIterations)
	}
	if ms.Rehomed == 0 {
		t.Fatal("no chunks rehomed — removal did not re-apportion the queue")
	}
	var total int64
	for _, name := range []string{"n0", "n1", "n2"} {
		total += ms.Nodes[name].Invocations
	}
	if want := int64(jobs * invs); total != want {
		t.Fatalf("executed invocations = %d, want %d (exactly-once accounting)", total, want)
	}
}

// Membership guard rails: unknown nodes, duplicate adds, and the
// last-node refusal for both remove and cordon.
func TestMembershipGuards(t *testing.T) {
	s := New(Config{Executor: newFakeChunkExec(), Members: []Member{{Name: "n0", Class: "xeon"}}})
	defer s.Close()
	if err := s.RemoveNode("n0"); !errors.Is(err, ErrLastNode) {
		t.Fatalf("RemoveNode(last) = %v, want ErrLastNode", err)
	}
	if err := s.CordonNode("n0"); !errors.Is(err, ErrLastNode) {
		t.Fatalf("CordonNode(last) = %v, want ErrLastNode", err)
	}
	if err := s.RemoveNode("ghost"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("RemoveNode(ghost) = %v, want ErrUnknownNode", err)
	}
	if err := s.AddNode(Member{Name: "n0", Class: "xeon"}); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("AddNode(dup) = %v, want ErrNodeExists", err)
	}
	if err := s.AddNode(Member{Name: "n1", Class: "xeon"}); err != nil {
		t.Fatalf("AddNode(n1): %v", err)
	}
	if err := s.CordonNode("n0"); err != nil {
		t.Fatalf("CordonNode(n0) with n1 serving: %v", err)
	}
	if err := s.UncordonNode("n0"); err != nil {
		t.Fatalf("UncordonNode(n0): %v", err)
	}
	if err := s.RemoveNode("n1"); err != nil {
		t.Fatalf("RemoveNode(n1): %v", err)
	}
	waitFor(t, func() bool { return s.Stats().Membership.Nodes["n1"].State == "removed" }, "n1 removed")
	if err := s.RemoveNode("n0"); !errors.Is(err, ErrLastNode) {
		t.Fatalf("RemoveNode(new last) = %v, want ErrLastNode", err)
	}
	// A removed name is re-addable.
	if err := s.AddNode(Member{Name: "n1", Class: "xeon"}); err != nil {
		t.Fatalf("re-AddNode(n1): %v", err)
	}
}

// A non-finite weight is refused at AddNode: apportion.Split turns a NaN
// weight into negative chunk counts, the plan keeps no chunk, and the
// job never completes.
func TestAddNodeRefusesNonFiniteWeight(t *testing.T) {
	s := New(Config{Executor: newFakeChunkExec(), Members: []Member{{Name: "n0", Class: "xeon"}}})
	defer s.Close()
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := s.AddNode(Member{Name: "n1", Class: "xeon", Weight: w}); err == nil {
			t.Errorf("AddNode accepted weight %v", w)
		}
	}
	if _, ok := s.Stats().Membership.Nodes["n1"]; ok {
		t.Fatal("a refused add left a member behind")
	}
}

// A newcomer serves at once, whatever its class: over a warm store, a
// node of a class no member has had joins active, and the next job
// adopts the stored decision probe-free with a chunk on the newcomer.
func TestAddNodeServesAtOnce(t *testing.T) {
	store, err := NewCache("", SimFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		MaxInFlight: 2,
		Executor:    NewSimExecutor(SimExecutorConfig{Seed: 7, Store: store}),
		Members: []Member{
			{Name: "n0", Class: "xeon", Weight: 1},
			{Name: "n1", Class: "thunderx", Weight: 1},
		},
	})
	defer s.Close()
	sp := Spec{Tenant: "t0", Region: "r0", Iterations: 2048, Pages: 16, Invocations: 4}
	cold, err := s.Submit(sp)
	if err != nil || cold.Err != nil || cold.Probes == 0 {
		t.Fatalf("cold job: %+v, %v; want it to probe", cold, err)
	}
	if err := s.AddNode(Member{Name: "n3", Class: "gracehopper", Weight: 1}); err != nil {
		t.Fatalf("AddNode(n3): %v", err)
	}
	if st := s.Stats().Membership.Nodes["n3"].State; st != "active" {
		t.Fatalf("n3 is %s right after AddNode, want active", st)
	}
	r, err := s.Submit(sp)
	if err != nil || r.Err != nil || !r.Warm || r.Probes != 0 {
		t.Fatalf("next job: err=%v/%v Warm=%v Probes=%d, want probe-free", err, r.Err, r.Warm, r.Probes)
	}
	st := s.Stats()
	if n := st.Membership.Nodes["n3"].Chunks; n == 0 {
		t.Fatalf("n3 ran no chunk of the next job (%d chunks planned)", r.Chunks)
	}
	if st.WarmProbes != 0 {
		t.Fatalf("WarmProbes = %d, want 0 pinned", st.WarmProbes)
	}
}

// Members are lanes, not hardware: a chunk's simulation is seeded by
// (signature, chunk index), so permuting the members' names and classes
// — which moves every chunk onto a different "node" — changes no
// virtual time, per job or in total. This is the invariant that made
// per-node health scoring observe plan position instead of the node.
func TestMembersArePlacementNeutral(t *testing.T) {
	specs := Workload(LoadConfig{Jobs: 24, Tenants: 4, Signatures: 3, SimServerConfig: SimServerConfig{Seed: 1}})
	run := func(nodes string) (int64, map[int]int64) {
		members, err := ParseMembers(nodes)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := simServer(t, SimServerConfig{Config: Config{StartPaused: true, QueueDepth: len(specs), Members: members}, Seed: 1})
		defer s.Close()
		chans := preload(t, s, specs)
		s.Resume()
		perSeq := map[int]int64{}
		for _, r := range collect(chans) {
			if r.Err != nil {
				t.Fatalf("%s: job %d failed: %v", nodes, r.Seq, r.Err)
			}
			perSeq[r.Seq] = r.VirtualNs
		}
		return s.Stats().VirtualNs, perSeq
	}
	const base = "n0:xeon,n1:thunderx,n2:thunderx"
	wantTotal, wantPerSeq := run(base)
	for _, nodes := range []string{
		"n0:thunderx,n1:thunderx,n2:xeon",
		"c:xeon,b:thunderx,a:thunderx",
		"a:xeon,b:xeon,c:xeon",
	} {
		total, perSeq := run(nodes)
		if total != wantTotal {
			t.Errorf("-nodes %s: total virtual time %d, want %d (as %s)", nodes, total, wantTotal, base)
		}
		for seq, want := range wantPerSeq {
			if perSeq[seq] != want {
				t.Errorf("-nodes %s: job %d virtual time %d, want %d (as %s)", nodes, seq, perSeq[seq], want, base)
			}
		}
	}
}

// Drain racing a churn schedule: every admitted job completes, the due
// churn applies, nothing is lost.
func TestDrainDuringChurn(t *testing.T) {
	churn, err := ParseChurn("remove:n1@4,add:n1:thunderx:1@9,cordon:n2@12,uncordon:n2@14")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		StartPaused: true,
		MaxInFlight: 2,
		QueueDepth:  64,
		Executor:    newFakeChunkExec(),
		Members:     threeNodes(),
		Churn:       churn,
	})
	defer s.Close()
	var specs []Spec
	for i := 0; i < 18; i++ {
		specs = append(specs, Spec{Tenant: fmt.Sprintf("t%d", i%2), Region: "r", Invocations: 6})
	}
	chans := preload(t, s, specs)
	s.Resume()
	s.Drain() // drain races the churn milestones
	for i, r := range collect(chans) {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
	}
	ms := s.Stats().Membership
	if ms.ChurnApplied != 4 {
		t.Fatalf("ChurnApplied = %d, want 4", ms.ChurnApplied)
	}
	if ms.LostIterations != 0 {
		t.Fatalf("LostIterations = %d, want 0", ms.LostIterations)
	}
	if got := s.Stats().Completed; got != 18 {
		t.Fatalf("Completed = %d, want 18", got)
	}
}

// Nothing the server starts outlives Close: every laneless chunk's
// goroutine and every member lane, including the lanes of nodes added
// and removed on the way. The bound is the baseline
// itself, not baseline plus slack: one lingering goroutine per server
// is the leak this exists to catch. (A finishing chunk's goroutine
// still delivers its job's reply after releasing Drain, so it may trail
// Close by a moment, hence the poll.)
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	churn, err := ParseChurn("remove:n1@4,add:n3:thunderx:1@9,cordon:n2@12")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{
		StartPaused: true,
		MaxInFlight: 2,
		QueueDepth:  64,
		Executor:    newFakeChunkExec(),
		Members:     threeNodes(),
		Churn:       churn,
	})
	var specs []Spec
	for i := 0; i < 18; i++ {
		specs = append(specs, Spec{Tenant: fmt.Sprintf("t%d", i%2), Region: "r", Invocations: 6})
	}
	chans := preload(t, s, specs)
	s.Resume()
	for i, r := range collect(chans) {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
	}
	if got := s.Stats().Membership.ChurnApplied; got != 3 {
		t.Fatalf("ChurnApplied = %d, want 3", got)
	}
	s.Close()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before },
		fmt.Sprintf("the goroutine count to return to its baseline of %d after Close", before))
}

// The determinism contract under churn: two identical preloaded runs —
// same workload, same churn schedule, concurrency 2 — produce bit-equal
// dispatch hashes, virtual time and transition logs.
func TestChurnDeterminism(t *testing.T) {
	run := func() (uint64, int64, string, string) {
		f := newFakeChunkExec()
		f.slowIndex = 1
		churn, err := ParseChurn("add:n3:xeon:1@6,remove:n3@20,cordon:n0@24,uncordon:n0@28")
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{
			StartPaused: true,
			MaxInFlight: 2,
			QueueDepth:  128,
			Executor:    f,
			Members:     threeNodes(),
			Churn:       churn,
		})
		defer s.Close()
		var specs []Spec
		for i := 0; i < 36; i++ {
			specs = append(specs, Spec{Tenant: fmt.Sprintf("t%d", i%3), Region: fmt.Sprintf("r%d", i%2), Invocations: 6})
		}
		chans := preload(t, s, specs)
		s.Resume()
		collect(chans)
		s.Drain()
		st := s.Stats()
		return st.DispatchHash, st.VirtualNs,
			strings.Join(st.Membership.Transitions, "\n"),
			strings.Join(s.DispatchOrder(), "\n")
	}
	h1, v1, t1, o1 := run()
	h2, v2, t2, o2 := run()
	if o1 != o2 {
		t.Fatalf("dispatch orders diverged:\n--- run1\n%s\n--- run2\n%s", o1, o2)
	}
	if t1 != t2 {
		t.Fatalf("transitions diverged:\n--- run1\n%s\n--- run2\n%s", t1, t2)
	}
	if h1 != h2 {
		t.Fatalf("DispatchHash diverged: %x vs %x", h1, h2)
	}
	if v1 != v2 {
		t.Fatalf("virtual time diverged: %d vs %d", v1, v2)
	}
}

func TestParseMembersAndChurn(t *testing.T) {
	ms, err := ParseMembers("n0:xeon:1, n1:ThunderX:2.5,n2:thunderx")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 || ms[1].Class != "thunderx" || ms[1].Weight != 2.5 || ms[2].Weight != 1 {
		t.Fatalf("ParseMembers = %+v", ms)
	}
	if _, err := ParseMembers("bare"); err == nil {
		t.Error("ParseMembers accepted a member without class")
	}
	if _, err := ParseMembers("n0:xeon:-1"); err == nil {
		t.Error("ParseMembers accepted a negative weight")
	}
	for _, w := range []string{"NaN", "+Inf"} {
		if _, err := ParseMembers("n0:xeon:" + w); err == nil {
			t.Errorf("ParseMembers accepted weight %s", w)
		}
	}
	if ms, err := ParseMembers("n0:xeon,n0:thunderx"); err == nil || !strings.Contains(err.Error(), `"n0"`) {
		t.Errorf("ParseMembers(repeated n0) = %+v, %v, want an error naming n0", ms, err)
	}

	evs, err := ParseChurn("remove:n1@30,add:n1:thunderx:1@70,cordon:n2@10")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 || evs[0].Op != ChurnCordon || evs[0].AtDispatch != 10 {
		t.Fatalf("ParseChurn not sorted by milestone: %+v", evs)
	}
	if evs[2].Op != ChurnAdd || evs[2].Member.Class != "thunderx" {
		t.Fatalf("add event mangled: %+v", evs[2])
	}
	if _, err := ParseChurn("remove:n1"); err == nil {
		t.Error("ParseChurn accepted an event without @dispatch")
	}
	if _, err := ParseChurn("explode:n1@3"); err == nil {
		t.Error("ParseChurn accepted an unknown op")
	}
}

// FuzzParseMembers: ParseMembers never panics, and every list it
// accepts has non-empty, unique names, non-empty lower-case classes and
// positive, finite weights, and re-parses to itself when re-formatted
// as name:class:weight. The seed corpus in
// testdata/fuzz/FuzzParseMembers holds the README/hetserve list, a
// repeated name, a NaN weight and empty parts.
func FuzzParseMembers(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		ms, err := ParseMembers(s)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		parts := make([]string, len(ms))
		for i, m := range ms {
			if m.Name == "" || seen[m.Name] {
				t.Fatalf("%q: member %d has an empty or repeated name: %+v", s, i, ms)
			}
			seen[m.Name] = true
			if m.Class == "" || strings.ToLower(m.Class) != m.Class {
				t.Fatalf("%q: member %q has class %q", s, m.Name, m.Class)
			}
			if !(m.Weight > 0) || math.IsInf(m.Weight, 1) {
				t.Fatalf("%q: member %q has weight %v", s, m.Name, m.Weight)
			}
			parts[i] = m.Name + ":" + m.Class + ":" + strconv.FormatFloat(m.Weight, 'g', -1, 64)
		}
		again, err := ParseMembers(strings.Join(parts, ","))
		if err != nil || !reflect.DeepEqual(again, ms) {
			t.Fatalf("%q: %+v re-formatted as %q parses to %+v, %v", s, ms, strings.Join(parts, ","), again, err)
		}
	})
}

// FuzzParseChurn: ParseChurn never panics, and every schedule it
// accepts is sorted by milestone, names a node in every event, and
// gives every add a class and a positive, finite weight. The seed corpus in
// testdata/fuzz/FuzzParseChurn holds the schedules the churn smoke and
// the serve_churn benchmark run.
func FuzzParseChurn(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		evs, err := ParseChurn(s)
		if err != nil {
			return
		}
		for i, ev := range evs {
			if i > 0 && ev.AtDispatch < evs[i-1].AtDispatch {
				t.Fatalf("%q: events out of milestone order: %+v", s, evs)
			}
			if ev.AtDispatch < 0 || ev.Member.Name == "" {
				t.Fatalf("%q: event %d has milestone %d, node %q", s, i, ev.AtDispatch, ev.Member.Name)
			}
			if ev.Op == ChurnAdd && (ev.Member.Class == "" || !(ev.Member.Weight > 0) || math.IsInf(ev.Member.Weight, 1)) {
				t.Fatalf("%q: add event %d has class %q, weight %v", s, i, ev.Member.Class, ev.Member.Weight)
			}
		}
	})
}
