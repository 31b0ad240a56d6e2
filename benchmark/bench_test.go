package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// declared is the part of BENCHMARK.json the program must agree with.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// runMain runs the command in-process and returns its exit status and
// one report per workload.
func runMain(t *testing.T, args ...string) (int, []report) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	status := realMain(args, &stdout, &stderr)
	var reports []report
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		var r report
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("stdout line %q: %v\nstderr:\n%s", line, err, stderr.String())
		}
		reports = append(reports, r)
	}
	if t.Failed() || status != 0 {
		t.Logf("stderr:\n%s", stderr.String())
	}
	return status, reports
}

// A smoke run of every workload, untraced and traced, reports every
// declared metric exactly once, with its declared unit, and nothing
// undeclared.
func TestSmokeReportsDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, d.Workloads[i].Name, w.name)
		}
	}
	for _, mode := range []struct {
		trace string
		want  []struct{ Name, Unit string }
	}{{"0", d.EndToEnd}, {"1", d.PerLayer}} {
		status, reports := runMain(t, "-workload", "all", "-smoke", "-trace", mode.trace)
		if status != 0 {
			t.Fatalf("-trace %s: exit status %d", mode.trace, status)
		}
		if len(reports) != len(workloads) {
			t.Fatalf("-trace %s: %d reports for %d workloads", mode.trace, len(reports), len(workloads))
		}
		for i, r := range reports {
			name := workloads[i].name
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s -trace %s: correct=%t attempted=%d failed=%d", name, mode.trace, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(mode.want) {
				t.Errorf("%s -trace %s: %d metrics reported, %d declared", name, mode.trace, len(r.Metrics), len(mode.want))
			}
			for _, m := range mode.want {
				got, ok := r.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s -trace %s: declared metric %s not reported", name, mode.trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, declared %q", name, m.Name, got.Unit, m.Unit)
				case mode.trace == "0" && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, m.Name, got.Value)
				}
			}
		}
		if mode.trace == "1" {
			checkLayerIsolation(t, reports)
		}
	}
}

// checkLayerIsolation holds the counters to the workloads' design: a
// layer a workload bypasses reads zero there.
func checkLayerIsolation(t *testing.T, reports []report) {
	t.Helper()
	for i, r := range reports {
		name := workloads[i].name
		zero := func(metrics ...string) {
			for _, m := range metrics {
				if v := r.Metrics[m].Value; v != 0 {
					t.Errorf("%s: %s = %v, want 0", name, m, v)
				}
			}
		}
		positive := func(metrics ...string) {
			for _, m := range metrics {
				if v := r.Metrics[m].Value; !(v > 0) {
					t.Errorf("%s: %s = %v, want > 0", name, m, v)
				}
			}
		}
		zero("bench.goroutines_leaked", "bench.child_processes_at_exit", "rpc.retries", "rpc.redistributed")
		positive("simtime.switch_ns", "dsm.read_fault_ns", "server.dispatch_us.t16", "rpc.call_rtt_us")
		switch {
		case strings.HasPrefix(name, "sim_"):
			positive("sim_virt_s", "core.run_s", "core.regions", "kernels.verify_s", "perf.llc_accesses")
			zero("serve_virt_s", "server.executor_busy_s", "rpc.worker_busy_s", "rpc.run_p99_us")
		case strings.HasPrefix(name, "serve_"):
			positive("serve_virt_s", "server.executor_busy_s", "server.service_p99_ms", "core.regions")
			zero("sim_virt_s", "kernels.new_s", "rpc.worker_busy_s", "rpc.run_p99_us")
		default:
			positive("rpc.worker_busy_s", "rpc.run_p99_us", "rpc.pool_self_s")
			zero("sim_virt_s", "serve_virt_s", "core.regions", "dsm.read_faults", "server.cache_hits")
		}
	}
	byName := map[string]report{}
	for i, r := range reports {
		byName[workloads[i].name] = r
	}
	if v := byName["serve_warm"].Metrics["server.cache_misses"].Value; v != 0 {
		t.Errorf("serve_warm: %v cache misses on a warm store, want 0", v)
	}
	churn := byName["serve_churn"].Metrics
	if churn["server.cache_misses"].Value == 0 || churn["server.churn_applied"].Value != 4 {
		t.Errorf("serve_churn: cache misses %v (want one per signature), churn events %v (want 4)",
			churn["server.cache_misses"].Value, churn["server.churn_applied"].Value)
	}
	if v := byName["sim_probe"].Metrics["hetprobe_speedup_x"].Value; !(v > 0) {
		t.Errorf("sim_probe: hetprobe_speedup_x = %v, want > 0", v)
	}
}

// A check that cannot pass — a wrong pi reference — must surface as
// failed operations, correct=false and a non-zero exit.
func TestBrokenCheckFailsTheRun(t *testing.T) {
	saved := append([]workload(nil), workloads...)
	defer func() { workloads = saved }()
	for i, w := range workloads {
		if w.name != "rpc_pool" {
			continue
		}
		workloads[i].setup = func(o options) (instance, error) {
			in, err := setupRPCPool(o)
			if err == nil {
				ref := in.(*rpcInstance).ref
				for n := range ref {
					ref[n] += 1e-6
				}
			}
			return in, err
		}
	}
	// -reps with the broken set-up: the warm-up pass already fails.
	status, reports := runMain(t, "-workload", "rpc_pool", "-smoke")
	if status == 0 {
		t.Errorf("exit status 0 with a broken check")
	}
	if len(reports) != 1 || reports[0].Correct || reports[0].Failed == 0 {
		t.Errorf("reports = %+v, want one with correct=false and failed > 0", reports)
	}
}

func TestMedianQuartilesPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: helpers must sort
		}
		return xs
	}
	if got := median(seq(5)); got != 3 {
		t.Errorf("median(1..5) = %v, want 3", got)
	}
	if got := median(seq(4)); got != 2.5 {
		t.Errorf("median(1..4) = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(seq(10)); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 := quartiles(seq(5)); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v, want 1.5, 4.5", q1, q3)
	}
	// statistics.quantiles([10, 20], n=4) == [7.5, 22.5]
	if q1, q3 := quartiles([]float64{20, 10}); q1 != 7.5 || q3 != 22.5 {
		t.Errorf("quartiles(10, 20) = %v, %v, want 7.5, 22.5", q1, q3)
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
	}{{100, 0.95, 95}, {100, 0.5, 50}, {20, 0.95, 19}, {4, 0.5, 2}, {3, 0.99, 3}, {1, 0.5, 1}} {
		if got := percentile(seq(c.n), c.q); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "root", start: 0, end: 100 * ms, parent: -1},
		{name: "a", start: 10 * ms, end: 40 * ms, parent: 0},
		{name: "b", start: 30 * ms, end: 60 * ms, parent: 0, track: 1}, // overlaps a: [10,60) is covered once
		{name: "c", start: 70 * ms, end: 80 * ms, parent: 0},
		{name: "a", start: 15 * ms, end: 25 * ms, parent: 1},     // a's own child, same name
		{name: "late", start: 95 * ms, end: 120 * ms, parent: 0}, // runs past its parent: only [95,100) counts
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"root": (100 - 50 - 10 - 5) * ms,
		"a":    (30-10)*ms + 10*ms,
		"b":    30 * ms,
		"c":    10 * ms,
		"late": 25 * ms,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
	// Sequential children partition their parent: self times add up to it.
	seq := []span{
		{name: "root", start: 0, end: 50 * ms, parent: -1},
		{name: "x", start: 5 * ms, end: 20 * ms, parent: 0},
		{name: "y", start: 20 * ms, end: 45 * ms, parent: 0},
		{name: "z", start: 22 * ms, end: 30 * ms, parent: 2},
	}
	var sum time.Duration
	for _, d := range selfTimes(seq) {
		sum += d
	}
	if sum != 50*ms {
		t.Errorf("self times of a sequential tree sum to %v, want the root's 50ms", sum)
	}
	if _, err := chromeTrace(seq, "test"); err != nil {
		t.Errorf("chromeTrace: %v", err)
	}
	if _, err := chromeTrace([]span{{name: "open", start: ms, end: -1, parent: -1}}, "test"); err == nil {
		t.Errorf("chromeTrace accepted a span that was never closed")
	}
}

// The traced sim path calls the layers itself; it must be the same
// computation as experiments.Suite.Run.
func TestTracedSimPathMatchesSuiteRun(t *testing.T) {
	o := options{seed: 3, smoke: true, par: 2}
	for _, setup := range []func(options) (instance, error){setupSimFaultstorm, setupSimProbe} {
		in, err := setup(o)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := in.pass(nil, -1, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := newRecorder()
		root := rec.begin("bench.pass", -1)
		traced, err := in.pass(rec, root, nil)
		rec.end(root)
		if err != nil {
			t.Fatal(err)
		}
		if ref.failed != 0 || traced.failed != 0 {
			t.Fatalf("failed operations: untraced %v, traced %v", ref.notes, traced.notes)
		}
		if traced.exact != ref.exact || !strings.HasPrefix(ref.exact, "virt=") {
			t.Errorf("traced pass %q, Suite.Run pass %q", traced.exact, ref.exact)
		}
		if math.Abs(traced.layer["sim_virt_s"]-ref.layer["sim_virt_s"]) != 0 {
			t.Errorf("sim_virt_s: traced %v, untraced %v", traced.layer["sim_virt_s"], ref.layer["sim_virt_s"])
		}
		self := selfTimes(rec.snapshot())
		for _, name := range []string{"experiments.run", "kernels.New", "cluster.NewSim", "core.Runtime.Run", "kernels.Verify"} {
			if self[name] <= 0 {
				t.Errorf("no self time recorded for %s", name)
			}
		}
		in.close()
	}
}
