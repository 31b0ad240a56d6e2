package server

import (
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"hetmp/internal/rpc"
)

// Full daemon round-trip: a RegionServer bound to an rpc.Server,
// driven by rpc.Clients — submissions succeed, stats decode, drain
// works, and the draining and stopped rejections survive the wire typed.
func TestRPCBindingRoundTrip(t *testing.T) {
	rs := New(Config{MaxInFlight: 2, QueueDepth: 8, Executor: &fakeExec{}})
	srv := &rpc.Server{Name: "hetserve-test"}
	if err := Bind(srv, rs); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	c, err := rpc.DialClient(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	res, err := SubmitRemote(c, Spec{Tenant: "alice", Region: "r"}, 10*time.Second)
	if err != nil {
		t.Fatalf("SubmitRemote: %v", err)
	}
	if res.Tenant != "alice" || res.VirtualNs != 1000 {
		t.Fatalf("result = %+v, want tenant alice virtual 1000", res)
	}
	if res.Chunks != 1 || res.Rehomed != 0 {
		t.Fatalf("result = %+v, want the one whole-job chunk, not rehomed", res)
	}
	if rt := resultFromMeta("t", "r", resultToMeta(Result{Chunks: 3, Rehomed: 2})); rt.Chunks != 3 || rt.Rehomed != 2 {
		t.Fatalf("wire round trip = %+v, want Chunks 3 Rehomed 2", rt)
	}
	// Second submission of the same signature is warm (fakeExec).
	res2, err := SubmitRemote(c, Spec{Tenant: "bob", Region: "r"}, 10*time.Second)
	if err != nil {
		t.Fatalf("SubmitRemote 2: %v", err)
	}
	if !res2.Warm || !res2.CrossTenantWarm {
		t.Fatalf("second submission = %+v, want warm cross-tenant", res2)
	}

	st, err := StatsRemote(c, 5*time.Second)
	if err != nil {
		t.Fatalf("StatsRemote: %v", err)
	}
	if st.Completed != 2 || st.Tenants["alice"].Completed != 1 {
		t.Fatalf("remote stats = %+v, want 2 completed", st)
	}

	if err := DrainRemote(c, 5*time.Second); err != nil {
		t.Fatalf("DrainRemote: %v", err)
	}
	if _, err := SubmitRemote(c, Spec{Tenant: "alice", Region: "r"}, 5*time.Second); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain = %v, want ErrDraining", err)
	}
	// Close the region server while the rpc listener still serves: the
	// rejection changes type, and that type survives the wire as well.
	rs.Close()
	if _, err := SubmitRemote(c, Spec{Tenant: "alice", Region: "r"}, 5*time.Second); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after Close = %v, want ErrStopped", err)
	}
}

// Queue-full rejections keep their type across the wire.
func TestRPCQueueFullTyped(t *testing.T) {
	gate := make(chan struct{})
	rs := New(Config{MaxInFlight: 1, QueueDepth: 1, Executor: &fakeExec{gate: gate}})
	defer func() {
		close(gate)
		rs.Close()
	}()
	srv := &rpc.Server{Name: "hetserve-full"}
	if err := Bind(srv, rs); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	// Fill: one in flight (gated), one queued — using direct local
	// submission so the single rpc connection stays free.
	if _, err := rs.SubmitAsync(Spec{Tenant: "a", Region: "r"}); err != nil {
		t.Fatal(err)
	}
	waitInFlight(t, rs, 1)
	if _, err := rs.SubmitAsync(Spec{Tenant: "a", Region: "r"}); err != nil {
		t.Fatal(err)
	}

	c, err := rpc.DialClient(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = SubmitRemote(c, Spec{Tenant: "b", Region: "r"}, 5*time.Second)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("remote submit = %v, want ErrQueueFull", err)
	}
}

// A spec over the admission ceilings is refused with ErrBadSpec across
// the wire before it takes a queue slot: the tenant's rejection counter
// moves, the queue does not. A spec exactly at the ceilings is admitted.
func TestRPCBadSpecTyped(t *testing.T) {
	rs := New(Config{StartPaused: true, Executor: &fakeExec{}})
	defer rs.Close()
	srv := &rpc.Server{Name: "hetserve-badspec"}
	if err := Bind(srv, rs); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	c, err := rpc.DialClient(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	bad := []Spec{
		{Iterations: math.MaxInt32, Invocations: math.MaxInt32},
		{Iterations: math.MaxInt, Invocations: maxInvocations}, // the product overflows
		{Iterations: maxJobIterations + 1, Invocations: 1},
		{Iterations: maxJobIterations/maxInvocations + 1, Invocations: maxInvocations},
		{Iterations: 1, Invocations: maxInvocations + 1},
		{Pages: maxPages + 1},
		{OpsPerByte: math.NaN()},
		{OpsPerByte: math.Inf(1)},
		{OpsPerByte: 1e300},
	}
	for _, sp := range bad {
		sp.Tenant, sp.Region = "mallory", "r"
		if _, err := SubmitRemote(c, sp, 5*time.Second); !errors.Is(err, ErrBadSpec) {
			t.Errorf("remote submit of %+v = %v, want ErrBadSpec", sp, err)
		}
	}
	st := rs.Stats()
	if got := st.Tenants["mallory"]; got.Rejected != len(bad) || got.Admitted != 0 {
		t.Errorf("tenant stats = %+v, want %d rejected, 0 admitted", got, len(bad))
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth = %d after %d bad specs, want 0", st.QueueDepth, len(bad))
	}

	atCeiling := []Spec{
		{Iterations: maxJobIterations, Invocations: 1, Pages: maxPages, OpsPerByte: maxOpsPerByte},
		{Iterations: maxJobIterations / maxInvocations, Invocations: maxInvocations},
	}
	for _, sp := range atCeiling {
		sp.Tenant, sp.Region = "alice", "r"
		if _, err := rs.SubmitAsync(sp); err != nil {
			t.Errorf("submit of %+v at the ceilings = %v, want admitted", sp, err)
		}
	}
	if st := rs.Stats(); st.QueueDepth != len(atCeiling) {
		t.Errorf("queue depth = %d, want %d", st.QueueDepth, len(atCeiling))
	}
}

// Membership control plane over the wire: add/remove/cordon/uncordon
// work on a live daemon, and every typed refusal (ErrNodeExists,
// ErrUnknownNode, ErrLastNode, ErrNodeDraining) survives the rpc
// round-trip via its err_kind tag.
func TestRPCMembershipOps(t *testing.T) {
	fx := newFakeChunkExec()
	fx.block = make(chan struct{})
	rs := New(Config{MaxInFlight: 4, QueueDepth: 16, Executor: fx,
		Members: []Member{{Name: "n0", Class: "xeon", Weight: 1}, {Name: "n1", Class: "thunderx", Weight: 1}}})
	defer rs.Close()
	srv := &rpc.Server{Name: "hetserve-members"}
	if err := Bind(srv, rs); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	c, err := rpc.DialClient(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := AddNodeRemote(c, Member{Name: "n2", Class: "thunderx", Weight: 2}, 5*time.Second); err != nil {
		t.Fatalf("AddNodeRemote: %v", err)
	}
	if r, err := SubmitRemote(c, Spec{Tenant: "a", Region: "probe"}, 5*time.Second); err != nil || r.Chunks < 1 {
		t.Fatalf("SubmitRemote on a 3-member server = %+v / %v, want Chunks >= 1", r, err)
	}
	if err := AddNodeRemote(c, Member{Name: "n2", Class: "thunderx"}, 5*time.Second); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate add = %v, want ErrNodeExists", err)
	}
	// A non-finite weight on the wire is refused before it can reach
	// the apportioning.
	for _, w := range []string{"NaN", "+Inf"} {
		meta := map[string]string{"node": "n3", "class": "xeon", "weight": w}
		if _, _, err := c.CallMeta(TaskNodeAdd, 0, 0, 0, meta, 5*time.Second); err == nil {
			t.Fatalf("node-add with weight %s accepted", w)
		}
	}
	if err := RemoveNodeRemote(c, "ghost", 5*time.Second); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("remove unknown = %v, want ErrUnknownNode", err)
	}
	if err := CordonNodeRemote(c, "n1", 5*time.Second); err != nil {
		t.Fatalf("CordonNodeRemote: %v", err)
	}
	if err := UncordonNodeRemote(c, "n1", 5*time.Second); err != nil {
		t.Fatalf("UncordonNodeRemote: %v", err)
	}

	// Park a chunk in flight on every node so a removal has to drain —
	// the second removal of the same node must be a typed
	// ErrNodeDraining, not a silent dup.
	var chans []<-chan Result
	for i := 0; i < 3; i++ {
		ch, err := rs.SubmitAsync(Spec{Tenant: "a", Region: "r", Invocations: 6})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	// Every worker blocks inside its first chunk, so once three chunk
	// calls have started all three nodes are busy — n2's drain cannot
	// finish until the block lifts.
	waitFor(t, func() bool {
		fx.mu.Lock()
		defer fx.mu.Unlock()
		return fx.chunkCalls >= 3
	}, "all three node workers to block in a chunk")
	if err := RemoveNodeRemote(c, "n2", 5*time.Second); err != nil {
		t.Fatalf("RemoveNodeRemote: %v", err)
	}
	if err := RemoveNodeRemote(c, "n2", 5*time.Second); !errors.Is(err, ErrNodeDraining) {
		t.Fatalf("remove during drain = %v, want ErrNodeDraining", err)
	}
	close(fx.block)
	for _, ch := range chans {
		if r := <-ch; r.Err != nil {
			t.Fatalf("job failed: %v", r.Err)
		}
	}

	// Drain the survivors down to one: removing the last serving node
	// must refuse with a typed ErrLastNode.
	if err := RemoveNodeRemote(c, "n1", 5*time.Second); err != nil {
		t.Fatalf("remove n1: %v", err)
	}
	if err := RemoveNodeRemote(c, "n0", 5*time.Second); !errors.Is(err, ErrLastNode) {
		t.Fatalf("remove last node = %v, want ErrLastNode", err)
	}
	if err := CordonNodeRemote(c, "n0", 5*time.Second); !errors.Is(err, ErrLastNode) {
		t.Fatalf("cordon last node = %v, want ErrLastNode", err)
	}

	st, err := StatsRemote(c, 5*time.Second)
	if err != nil {
		t.Fatalf("StatsRemote: %v", err)
	}
	if st.Membership == nil {
		t.Fatal("membership stats did not survive the stats round-trip")
	}
	if st.Membership.LostIterations != 0 {
		t.Fatalf("lost %d iterations, want 0", st.Membership.LostIterations)
	}
	if _, ok := st.Membership.Nodes["n0"]; !ok {
		t.Fatalf("membership nodes missing n0: %+v", st.Membership.Nodes)
	}
}

func waitInFlight(t *testing.T, rs *RegionServer, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if rs.Stats().InFlight >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("in-flight never reached %d", want)
}
