package server

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"hetmp/internal/rpc"
)

// Full daemon round-trip: a RegionServer bound to an rpc.Server,
// driven by rpc.Clients — submissions succeed and their Results come
// back whole, and after an in-process drain and close the draining and
// stopped rejections survive the wire typed.
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
	// Second submission of the same signature is warm (fakeExec).
	res2, err := SubmitRemote(c, Spec{Tenant: "bob", Region: "r"}, 10*time.Second)
	if err != nil {
		t.Fatalf("SubmitRemote 2: %v", err)
	}
	if !res2.Warm || !res2.CrossTenantWarm {
		t.Fatalf("second submission = %+v, want warm cross-tenant", res2)
	}

	if st := rs.Stats(); st.Completed != 2 || st.Tenants["alice"].Completed != 1 {
		t.Fatalf("stats = %+v, want 2 completed", st)
	}

	rs.Drain()
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

// FuzzSubmitBody sends arbitrary bytes as the submit body, the one
// place the daemon decodes a client's bytes. The handler must never
// panic or hang, and every body must end one of three ways: it fails
// to decode (exactly when it does not decode as a Spec here either),
// it is refused — typed ErrBadSpec exactly when the spec is over the
// admission ceilings, untyped when it lacks a tenant or region — or it
// completes with a Result for the same tenant and region.
//
//	go test -run '^$' -fuzz FuzzSubmitBody -fuzztime 10s -parallel 2 ./internal/server/
func FuzzSubmitBody(f *testing.F) {
	encode := func(sp Spec) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(sp); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	valid := encode(Spec{Tenant: "alice", Region: "r", Iterations: 64, Invocations: 2, OpsPerByte: 8, Pages: 4, Priority: 1})
	f.Add(valid)
	for _, sp := range []Spec{
		{OpsPerByte: math.NaN()},
		{OpsPerByte: math.Inf(1)},
		{OpsPerByte: 1e300},
		{Iterations: math.MaxInt32, Invocations: math.MaxInt32},
	} {
		sp.Tenant, sp.Region = "mallory", "r"
		f.Add(encode(sp))
	}
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])

	rs := New(Config{MaxInFlight: 2, QueueDepth: 8, Executor: &fakeExec{}})
	srv := &rpc.Server{Name: "hetserve-fuzz"}
	if err := Bind(srv, rs); err != nil {
		f.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	c, err := rpc.DialClient(ln.Addr().String())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		c.Close()
		srv.Close()
		<-served
		rs.Close()
	})

	f.Fuzz(func(t *testing.T, body []byte) {
		var sp Spec
		decodeErr := gob.NewDecoder(bytes.NewReader(body)).Decode(&sp)
		_, meta, err := c.CallMeta(TaskSubmit, 0, 0, 0, map[string]string{specKey: string(body)}, 10*time.Second)
		switch {
		case decodeErr != nil:
			if err == nil || !strings.Contains(err.Error(), "submit decode") {
				t.Fatalf("body that does not decode (%v): got %v, want a decode error", decodeErr, err)
			}
		case sp.Tenant == "" || sp.Region == "":
			if err == nil || meta[errKindKey] != "" {
				t.Fatalf("spec %+v without tenant or region: got %v / %v, want an untyped refusal", sp, err, meta)
			}
		case sp.withDefaults().check() != nil:
			if meta[errKindKey] != "bad_spec" {
				t.Fatalf("spec %+v over the ceilings: got %v / %v, want bad_spec", sp, err, meta)
			}
		default:
			if err != nil {
				t.Fatalf("spec %+v: got %v, want it to complete", sp, err)
			}
			var res Result
			if err := gob.NewDecoder(strings.NewReader(meta[resultKey])).Decode(&res); err != nil {
				t.Fatalf("spec %+v: result decode: %v", sp, err)
			}
			if res.Tenant != sp.Tenant || res.Region != sp.Region || res.Sig != sp.Sig() {
				t.Fatalf("spec %+v: result %+v for another job", sp, res)
			}
		}
	})
}
