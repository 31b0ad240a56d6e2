package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hetmp/internal/telemetry"
)

// instance is one set-up workload: everything a timed pass needs.
type instance interface {
	// pass runs the workload's whole operation list once. With a
	// recorder it records a span around each call into a layer, under
	// root, and threads tel through the program's own telemetry fields.
	pass(rec *recorder, root int, tel *telemetry.Telemetry) (passResult, error)
	// close releases listeners, pools, servers and temp directories.
	close() error
}

// passResult is what one pass measured.
type passResult struct {
	wall   time.Duration   // the timed interval
	ops    int             // operations completed
	failed int             // operations failed, refused, or wrong
	lat    []time.Duration // per-operation latency
	// exact fingerprints everything that must repeat bit for bit across
	// passes of one set-up: virtual time, fault counts, dispatch hash.
	exact string
	// layer holds per-layer values a pass can observe from outside
	// (counters the program exports), keyed by metric name.
	layer map[string]float64
	notes []string // what failed, for the operator
}

type workload struct {
	name  string
	setup func(o options) (instance, error)
}

var workloads = []workload{
	{"sim_compute", setupSimCompute},
	{"sim_faultstorm", setupSimFaultstorm},
	{"sim_probe", setupSimProbe},
	{"serve_warm", setupServeWarm},
	{"serve_churn", setupServeChurn},
	{"rpc_pool", setupRPCPool},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome accumulates one workload's result.
type outcome struct {
	attempted, failed int
	broken            []string // reasons the run is not correct
	values            map[string]float64
	rows              []row // human table
}

type row struct {
	name        string
	med, q1, q3 float64
	n           int
}

func (out *outcome) fail(format string, args ...any) {
	out.broken = append(out.broken, fmt.Sprintf(format, args...))
}

func (out *outcome) set(name string, v float64) { out.values[name] = v }

// add folds one pass's operation counts and failures into the result.
func (out *outcome) add(pr passResult, where string) {
	out.attempted += pr.ops + pr.failed
	out.failed += pr.failed
	for _, note := range pr.notes {
		out.fail("%s: %s", where, note)
	}
}

// sample reports a metric as the median of xs and remembers the
// quartiles and count for the human table.
func (out *outcome) sample(name string, xs []float64) {
	med := median(xs)
	q1, q3 := quartiles(xs)
	out.set(name, med)
	out.rows = append(out.rows, row{name: name, med: med, q1: q1, q3: q3, n: len(xs)})
}

func (out *outcome) report(traced bool) report {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	r := report{
		Correct:   len(out.broken) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]value, len(defs)),
	}
	if r.Attempted < 1 {
		r.Attempted, r.Correct = 1, false
	}
	if !r.Correct && r.Failed == 0 {
		r.Failed = 1
	}
	for _, d := range defs {
		r.Metrics[d.name] = value{Value: out.values[d.name], Unit: d.unit}
	}
	return r
}

func (out *outcome) printTable(w io.Writer, name string, o options) {
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (seed %d, %s) attempted %d failed %d\n", name, o.seed, mode, out.attempted, out.failed)
	for _, b := range out.broken {
		fmt.Fprintf(w, "   FAILED: %s\n", b)
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[d.name] = d.unit
	}
	shown := map[string]bool{}
	for _, r := range out.rows {
		shown[r.name] = true
		fmt.Fprintf(w, "   %-34s %14.6g %-7s q1 %-12.6g q3 %-12.6g n %d\n", r.name, r.med, units[r.name], r.q1, r.q3, r.n)
	}
	for _, k := range sortedKeys(out.values) {
		if !shown[k] {
			fmt.Fprintf(w, "   %-34s %14.6g %s\n", k, out.values[k], units[k])
		}
	}
}

// setUp builds a workload instance and runs its one untimed warm-up
// pass; the time it takes is the workload's set-up time.
func setUp(w workload, o options) (instance, time.Duration, error) {
	t0 := time.Now()
	inst, err := w.setup(o)
	if err != nil {
		return nil, 0, err
	}
	pr, err := inst.pass(nil, -1, nil)
	if err == nil && pr.failed > 0 {
		err = fmt.Errorf("warm-up pass: %d of %d operations failed: %s", pr.failed, pr.ops, strings.Join(pr.notes, "; "))
	}
	if err != nil {
		inst.close()
		return nil, 0, err
	}
	return inst, time.Since(t0), nil
}

func runWorkload(w workload, o options) *outcome {
	out := &outcome{values: map[string]float64{}}
	if o.trace {
		runTraced(w, o, out)
	} else {
		runTimed(w, o, out)
	}
	return out
}

// runTimed measures the end-to-end metrics: several set-ups, then
// untraced passes for o.seconds.
func runTimed(w workload, o options, out *outcome) {
	setups, minPasses := 3, 3
	if o.smoke {
		setups, minPasses = 1, 2
	}
	var (
		inst       instance
		setupTimes []float64
	)
	for k := 0; k < setups; k++ {
		in, d, err := setUp(w, o)
		if err != nil {
			out.fail("set-up: %v", err)
			return
		}
		setupTimes = append(setupTimes, d.Seconds())
		if k < setups-1 {
			if err := in.close(); err != nil {
				out.fail("close: %v", err)
			}
			continue
		}
		inst = in
	}
	defer func() {
		if err := inst.close(); err != nil {
			out.fail("close: %v", err)
		}
	}()

	var (
		rates, p50s, p95s, allocs []float64
		exact                     string
		begin                     = time.Now()
	)
	for n := 0; ; n++ {
		if o.reps > 0 {
			if n >= o.reps {
				break
			}
		} else if n >= minPasses && time.Since(begin).Seconds() >= o.seconds {
			break
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		pr, err := inst.pass(nil, -1, nil)
		runtime.ReadMemStats(&m1)
		if err != nil {
			out.fail("pass %d: %v", n, err)
			return
		}
		out.add(pr, fmt.Sprintf("pass %d", n))
		if n == 0 {
			exact = pr.exact
		} else if pr.exact != exact {
			out.fail("pass %d is not a repeat of pass 0: %s != %s", n, pr.exact, exact)
		}
		ms := durs(pr.lat, time.Millisecond)
		rates = append(rates, float64(pr.ops)/pr.wall.Seconds())
		p50s = append(p50s, percentile(ms, 0.50))
		p95s = append(p95s, percentile(ms, 0.95))
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	}
	out.sample("setup_s", setupTimes)
	out.sample("ops_per_s", rates)
	out.sample("op_p50_ms", p50s)
	out.sample("op_p95_ms", p95s) // on the table only: declared per-layer, see metrics.go
	out.sample("host_alloc_mb", allocs)
}

// spanMetrics maps a span name to the per-layer metric that reports
// its summed self time. Executor spans have no children and overlap
// each other, so theirs is busy time and can exceed the pass's wall.
var spanMetrics = []struct{ span, metric string }{
	{"cluster.NewSim", "cluster.new_sim_s"},
	{"core.Runtime.Run", "core.run_s"},
	{"kernels.New", "kernels.new_s"},
	{"kernels.Verify", "kernels.verify_s"},
	{"experiments.run", "experiments.self_s"},
	{"decstore.Save", "decstore.save_s"},
	{"server.Executor", "server.executor_busy_s"},
	{"server.Resume..Drain", "server.sched_self_s"},
}

// registryMetrics maps a series family the program exports through its
// telemetry registry to the per-layer metric that reports its sum.
var registryMetrics = []struct {
	family, metric string
	scale          float64
}{
	{"hetmp_dsm_read_faults_total", "dsm.read_faults", 1},
	{"hetmp_dsm_write_faults_total", "dsm.write_faults", 1},
	{"hetmp_dsm_invalidations_total", "dsm.invalidations", 1},
	{"hetmp_dsm_bytes_in_total", "dsm.bytes_in_mb", 1e-6},
	{"hetmp_dsm_stall_seconds_sum", "dsm.stall_virt_s", 1},
	{"hetmp_interconnect_fault_seconds_sum", "interconnect.fault_virt_s", 1},
	{"hetmp_regions_total", "core.regions", 1},
	{"hetmp_hetprobe_probes_total", "core.probes", 1},
	{"hetmp_hetprobe_predictions_total", "core.predictions", 1},
	{"hetmp_hetprobe_redecisions_total", "core.redecisions", 1},
	{"hetmp_rpc_retries_total", "rpc.retries", 1},
	{"hetmp_rpc_redistributed_iterations_total", "rpc.redistributed", 1},
}

// familySums reads the registry the way a scraper would and sums every
// series of a family (all nodes, all labels).
func familySums(tel *telemetry.Telemetry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := tel.Metrics().WritePrometheus(&buf); err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("registry line %q: %w", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		sums[name] += v
	}
	return sums, nil
}

// runTraced measures the per-layer metrics: traced passes with the
// program's telemetry on, each beside an untraced reference pass, and
// the layer probes.
func runTraced(w workload, o options, out *outcome) {
	inst, _, err := setUp(w, o)
	if err != nil {
		out.fail("set-up: %v", err)
		return
	}
	defer func() {
		if err := inst.close(); err != nil {
			out.fail("close: %v", err)
		}
	}()
	// Untraced and traced passes alternate for half the time budget (the
	// probes take the rest): the overhead is the median over the pairs,
	// the spans and counters are the last traced pass's.
	var (
		overheads []float64
		p95s      []float64
		tp        passResult
		rec       *recorder
		tel       *telemetry.Telemetry
		begin     = time.Now()
	)
	for n := 0; n == 0 || (o.reps == 0 && time.Since(begin).Seconds() < o.seconds/2); n++ {
		ref, err := inst.pass(nil, -1, nil)
		if err != nil {
			out.fail("reference pass: %v", err)
			return
		}
		rec = newRecorder()
		tel = telemetry.New(telemetry.Options{})
		root := rec.begin("bench.pass", -1)
		tp, err = inst.pass(rec, root, tel)
		rec.end(root)
		if err != nil {
			out.fail("traced pass: %v", err)
			return
		}
		out.add(ref, "reference pass")
		out.add(tp, "traced pass")
		// The traced pass calls the layers itself; it must be the same
		// computation as the untraced one, to the nanosecond and the fault.
		if tp.exact != ref.exact {
			out.fail("traced pass diverged from the untraced one: %s != %s", tp.exact, ref.exact)
		}
		overheads = append(overheads, tp.wall.Seconds()/ref.wall.Seconds()-1)
		p95s = append(p95s, percentile(durs(ref.lat, time.Millisecond), 0.95))
	}

	for k, v := range tp.layer {
		out.set(k, v)
	}
	spans := rec.snapshot()
	self := selfTimes(spans)
	for _, sm := range spanMetrics {
		out.set(sm.metric, self[sm.span].Seconds())
	}
	sums, err := familySums(tel)
	if err != nil {
		out.fail("telemetry registry: %v", err)
	}
	for _, rm := range registryMetrics {
		out.set(rm.metric, sums[rm.family]*rm.scale)
	}
	out.set("core.cross_node_decisions",
		float64(tel.Metrics().Counter("hetmp_hetprobe_decisions_total", telemetry.L("outcome", "cross-node")).Value()))
	out.sample("bench.trace_overhead_frac", overheads)
	out.sample("op_p95_ms", p95s)

	trace, err := chromeTrace(spans, w.name)
	if err != nil {
		out.fail("trace: %v", err)
	} else if o.traceFile != "" {
		if err := os.WriteFile(o.traceFile, trace, 0o644); err != nil {
			out.fail("trace file: %v", err)
		}
	}

	if err := runProbes(o, out); err != nil {
		out.fail("layer probes: %v", err)
	}
}
