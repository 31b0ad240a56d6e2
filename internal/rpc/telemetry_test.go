package rpc

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hetmp/internal/telemetry"
)

// startTelemetryWorker spins up a worker whose server has telemetry
// attached from the start (setting Server.Telemetry after Serve would
// race with the server's own reads).
func startTelemetryWorker(t *testing.T, name string, fault *FaultConfig, tel *telemetry.Telemetry) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{Name: name, Cores: 2, Fault: fault, Telemetry: tel}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return ln.Addr().String()
}

// scrape fetches a path from the telemetry debug handler and returns
// the body (the same handler hetworker mounts on -debug-addr).
func scrape(t *testing.T, tel *telemetry.Telemetry, path string) string {
	t.Helper()
	ts := httptest.NewServer(telemetry.Handler(tel))
	defer ts.Close()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
	}
	return string(body)
}

// TestServerTelemetryCountsInjectedFaults exercises the acceptance
// criterion for hetworker -debug-addr: after a run against a worker
// with fault injection, its /metrics endpoint serves parseable
// Prometheus text that includes the RPC fault counters.
func TestServerTelemetryCountsInjectedFaults(t *testing.T) {
	registerTestTasks(t)
	telSrv := telemetry.New(telemetry.Options{})
	telPool := telemetry.New(telemetry.Options{})

	// "chaos" drops exactly one request, so a single retry recovers it.
	addrChaos := startTelemetryWorker(t, "chaos", &FaultConfig{DropAfter: 2, DropCount: 1}, telSrv)
	addrSteady := startWorker(t, "steady", 0)

	pool, err := Dial(addrChaos, addrSteady)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.Telemetry = telPool

	const n = 20000
	got, stats, err := pool.Run("sum-squares", n, 1.0, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if want := sumSquares(n, 1.0); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	if statsByName(stats)["chaos"].Retries == 0 {
		t.Fatal("chaos worker recorded no retries; fault was not injected")
	}

	// Worker-side metrics: the injected drop must show up as a fault
	// counter, alongside the request counter.
	body := scrape(t, telSrv, "/metrics")
	for _, series := range []string{
		`hetmp_rpc_server_faults_injected_total{kind="drop",worker="chaos"} 1`,
		`hetmp_rpc_server_requests_total{worker="chaos"}`,
		`hetmp_rpc_server_iterations_total{worker="chaos"}`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("worker /metrics missing %q in:\n%s", series, body)
		}
	}

	// Pool-side metrics: the retry that recovered the dropped request.
	poolBody := scrape(t, telPool, "/metrics")
	if !strings.Contains(poolBody, `hetmp_rpc_retries_total{worker="chaos"} 1`) {
		t.Errorf("pool metrics missing retry counter in:\n%s", poolBody)
	}

	// The worker's /trace endpoint must serve a structurally valid
	// Chrome trace document with at least one task span.
	trace := scrape(t, telSrv, "/trace")
	if err := telemetry.ValidateTrace([]byte(trace)); err != nil {
		t.Fatalf("worker /trace invalid: %v", err)
	}
	if !strings.Contains(trace, `"task sum-squares"`) {
		t.Error("worker trace has no task span")
	}
}

// TestPoolTelemetryRecordsDeadlineExpiry covers the stall → deadline
// expiry counter path.
func TestPoolTelemetryRecordsDeadlineExpiry(t *testing.T) {
	registerTestTasks(t)
	tel := telemetry.New(telemetry.Options{})

	// Stall every request after the probe for far longer than the call
	// timeout; the pool must drop the worker and count the expiry.
	addrStall, _ := startFaultyWorker(t, "molasses", 0, &FaultConfig{StallAfter: 2, StallFor: 5 * time.Second})
	addrSteady := startWorker(t, "steady2", 0)

	pool, err := Dial(addrStall, addrSteady)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.Telemetry = tel

	const n = 20000
	got, _, err := pool.Run("sum-squares", n, 1.0, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if want := sumSquares(n, 1.0); got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}

	body := scrape(t, tel, "/metrics")
	for _, series := range []string{
		`hetmp_rpc_deadline_expiries_total{worker="molasses"}`,
		`hetmp_rpc_worker_deaths_total{worker="molasses"} 1`,
		`hetmp_rpc_redistributed_iterations_total{worker="molasses"}`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("pool metrics missing %q in:\n%s", series, body)
		}
	}
}

// TestPoolTelemetryCountsRunsByPath answers "did it probe" from
// /metrics: one cold run, then warm ones.
func TestPoolTelemetryCountsRunsByPath(t *testing.T) {
	registerTestTasks(t)
	tel := telemetry.New(telemetry.Options{})
	pool, err := Dial(startWorker(t, "a", slow), startWorker(t, "b", slow))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.Telemetry = tel

	for i := 0; i < 3; i++ {
		runChecked(t, pool, "count", 4000, 4000, RunOptions{})
	}
	body := scrape(t, tel, "/metrics")
	for _, series := range []string{
		`hetmp_rpc_runs_total{path="cold"} 1`,
		`hetmp_rpc_runs_total{path="warm"} 2`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("pool metrics missing %q in:\n%s", series, body)
		}
	}
}

// TestPoolResolvesWorkerHandlesOncePerRegistry pins the per-Run fixed
// cost: a worker's metric handles and track name are resolved when the
// pool's telemetry changes, not on every Run.
func TestPoolResolvesWorkerHandlesOncePerRegistry(t *testing.T) {
	registerTestTasks(t)
	pool, err := Dial(startWorker(t, "a", 0), startWorker(t, "b", 0))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	resolved := func() [2]*workerTel {
		runChecked(t, pool, "count", 4000, 4000, RunOptions{})
		return [2]*workerTel{pool.workers[0].tel, pool.workers[1].tel}
	}
	off := resolved()
	if again := resolved(); again != off {
		t.Error("telemetry off: a second Run resolved the workers' handles again")
	}
	tel := telemetry.New(telemetry.Options{})
	pool.Telemetry = tel
	on := resolved()
	if on == off || on[0] == nil || on[0].iters == nil {
		t.Fatal("handles were not resolved against the newly attached telemetry")
	}
	if again := resolved(); again != on {
		t.Error("telemetry on: a second Run resolved the workers' handles again")
	}
	if body := scrape(t, tel, "/metrics"); !strings.Contains(body, `hetmp_rpc_iterations_total{worker="a"}`) {
		t.Errorf("pool metrics missing worker a's iterations in:\n%s", body)
	}
	if trace := scrape(t, tel, "/trace"); !strings.Contains(trace, `"worker b"`) {
		t.Error("pool trace does not name worker b's track")
	}
}
