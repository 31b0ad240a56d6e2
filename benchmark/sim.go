package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"hetmp/internal/cluster"
	"hetmp/internal/core"
	"hetmp/internal/experiments"
	"hetmp/internal/interconnect"
	"hetmp/internal/kernels"
	"hetmp/internal/machine"
	"hetmp/internal/telemetry"
)

// simRun is one operation of a sim_* workload.
type simRun struct{ bench, config string }

// simInstance is a paper-platform suite (experiments.Default: 16 Xeon +
// 96 ThunderX cores, RDMA56) plus the run list one pass works through.
type simInstance struct {
	suite *experiments.Suite
	runs  []simRun
	// cross is HetProbe's expected verdict per benchmark: the paper's
	// profitable benchmarks must go cross-node, lud must stay on one.
	cross map[string]bool
}

func newSimInstance(o options, benches, configs []string, cross map[string]bool) (instance, error) {
	s := experiments.Default()
	if o.smoke {
		s = experiments.Quick()
	}
	s.Seed = o.seed
	in := &simInstance{suite: s, cross: cross}
	for _, b := range benches {
		for _, c := range configs {
			in.runs = append(in.runs, simRun{b, c})
		}
	}
	// The kernels build their own data and the suite runs without
	// latency jitter, so what the seed generates here is the order the
	// runs arrive in. Simulated results must not depend on it.
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(in.runs), func(i, j int) { in.runs[i], in.runs[j] = in.runs[j], in.runs[i] })
	if _, err := s.Threshold(interconnect.RDMA56()); err != nil {
		return nil, fmt.Errorf("threshold calibration: %w", err)
	}
	return in, nil
}

// sim_compute: the cross-node-profitable side of the paper's Figure 6.
// Host time sits in the kernels, cluster access accounting, the LLC
// model and simtime switching (96- and 112-proc teams); the DSM is
// nearly idle.
func setupSimCompute(o options) (instance, error) {
	benches := []string{"kmeans", "EP-C"}
	if o.smoke {
		benches = []string{"EP-C"}
	}
	return newSimInstance(o, benches,
		[]string{experiments.CfgXeon, experiments.CfgThunderX, experiments.CfgHetProbe},
		map[string]bool{"kmeans": true, "EP-C": true})
}

// sim_faultstorm: a communication-bound kernel forced across nodes with
// dynamic scheduling — about half a million DSM faults a pass. The DSM,
// the interconnect, simtime.Resource and core's dynamic pool do the
// work and the LLC model little: the mirror image of sim_compute.
func setupSimFaultstorm(o options) (instance, error) {
	benches := []string{"BT-C"}
	if o.smoke {
		benches = []string{"lud"}
	}
	return newSimInstance(o, benches, []string{experiments.CfgCrossDyn}, nil)
}

// sim_probe: lud under HetProbe — hundreds of short regions, so region
// fork/join, the probing period, decide and collapse-to-one-node are
// the workload (EXPERIMENTS.md Deviation 2: lud probe overhead 420 %).
func setupSimProbe(o options) (instance, error) {
	return newSimInstance(o, []string{"lud"},
		[]string{experiments.CfgXeon, experiments.CfgHetProbe},
		map[string]bool{"lud": false})
}

func (in *simInstance) close() error { return nil }

// simStats is what one run adds to a pass's per-layer counters.
type simStats struct {
	llcAccesses, llcMisses int64
}

func (in *simInstance) pass(rec *recorder, root int, tel *telemetry.Telemetry) (passResult, error) {
	pr := passResult{layer: map[string]float64{}}
	var (
		virt   time.Duration
		faults int64
		stats  simStats
		times  = map[simRun]time.Duration{}
	)
	begin := time.Now()
	for _, r := range in.runs {
		t0 := time.Now()
		var (
			res experiments.Result
			err error
		)
		if rec == nil {
			res, err = in.suite.Run(r.bench, r.config, interconnect.RDMA56())
		} else {
			res, err = in.tracedRun(rec, root, tel, r, &stats)
		}
		pr.lat = append(pr.lat, time.Since(t0))
		if err == nil && r.config == experiments.CfgHetProbe {
			err = in.checkVerdict(r.bench, res.Decisions)
		}
		if err != nil {
			pr.failed++
			pr.notes = append(pr.notes, fmt.Sprintf("%s/%s: %v", r.bench, r.config, err))
			continue
		}
		pr.ops++
		virt += res.Time
		faults += res.Faults
		times[r] = res.Time
	}
	pr.wall = time.Since(begin)
	pr.exact = fmt.Sprintf("virt=%dns faults=%d", virt.Nanoseconds(), faults)
	pr.layer["sim_virt_s"] = virt.Seconds()
	pr.layer["perf.llc_accesses"] = float64(stats.llcAccesses)
	if stats.llcAccesses > 0 {
		pr.layer["perf.llc_miss_ratio"] = float64(stats.llcMisses) / float64(stats.llcAccesses)
	}
	// Geomean over the workload's benchmarks of Time(Xeon)/Time(HetProbe):
	// the paper's headline, per workload.
	var logs float64
	n := 0
	for _, r := range in.runs {
		hp, ok := times[r]
		if !ok || r.config != experiments.CfgHetProbe {
			continue
		}
		if xe, ok := times[simRun{r.bench, experiments.CfgXeon}]; ok && hp > 0 {
			logs += math.Log(float64(xe) / float64(hp))
			n++
		}
	}
	if n > 0 {
		pr.layer["hetprobe_speedup_x"] = math.Exp(logs / float64(n))
	}
	return pr, nil
}

func (in *simInstance) checkVerdict(bench string, decs map[string]core.Decision) error {
	want, ok := in.cross[bench]
	if !ok {
		return nil
	}
	if len(decs) == 0 {
		return fmt.Errorf("HetProbe recorded no decision")
	}
	for _, id := range sortedKeys(decs) {
		if decs[id].CrossNode != want {
			return fmt.Errorf("HetProbe decided cross-node=%t for region %s, want %t", decs[id].CrossNode, id, want)
		}
	}
	return nil
}

// dynChunk is the chunk size experiments.Suite uses for Cross-Node
// Dynamic, per benchmark. The traced path cannot read the suite's
// private table; a wrong value here fails the exactness check.
var dynChunk = map[string]int{"BT-C": 4, "lud": 2}

// tracedRun is experiments.Suite.Run with the calls into each layer
// made from here, so a span can be put around each one. It must stay
// the same computation: the harness compares its virtual time and fault
// count with Suite.Run's, exactly.
func (in *simInstance) tracedRun(rec *recorder, parent int, tel *telemetry.Telemetry, r simRun, st *simStats) (experiments.Result, error) {
	s := in.suite
	run := rec.begin("experiments.run", parent)
	defer rec.end(run)

	id := rec.begin("experiments.Threshold", run)
	th, err := s.Threshold(interconnect.RDMA56())
	rec.end(id)
	if err != nil {
		return experiments.Result{}, err
	}

	xeon := machine.XeonE5_2620v4().ScaleCaches(s.CacheScale)
	xeon.Cores = s.XeonCores
	tx := machine.ThunderX().ScaleCaches(s.CacheScale)
	tx.Cores = s.TXCores
	both := machine.Platform{Nodes: []machine.NodeSpec{xeon, tx}, Origin: 0}
	var (
		platform machine.Platform
		sched    core.Schedule
	)
	switch r.config {
	case experiments.CfgXeon:
		platform, sched = machine.Platform{Nodes: []machine.NodeSpec{xeon}}, core.StaticSchedule()
	case experiments.CfgThunderX:
		platform, sched = machine.Platform{Nodes: []machine.NodeSpec{tx}}, core.StaticSchedule()
	case experiments.CfgCrossDyn:
		chunk, ok := dynChunk[r.bench]
		if !ok {
			return experiments.Result{}, fmt.Errorf("no dynamic chunk size known for %s", r.bench)
		}
		platform, sched = both, core.DynamicSchedule(chunk)
	case experiments.CfgHetProbe:
		platform, sched = both, core.HetProbeSchedule()
	default:
		return experiments.Result{}, fmt.Errorf("traced path does not know config %q", r.config)
	}

	id = rec.begin("kernels.New", run)
	k, err := kernels.New(r.bench, s.Scale)
	rec.end(id)
	if err != nil {
		return experiments.Result{}, err
	}

	id = rec.begin("cluster.NewSim", run)
	cl, err := cluster.NewSim(cluster.SimConfig{
		Platform:      platform,
		Protocol:      interconnect.RDMA56().Scaled(s.TimeScale),
		Seed:          s.Seed,
		MigrationCost: time.Duration(200 * float64(time.Microsecond) * s.TimeScale),
		Telemetry:     tel,
	})
	rec.end(id)
	if err != nil {
		return experiments.Result{}, err
	}

	rt := core.New(cl, core.Options{
		FaultPeriodThreshold: th,
		ProbeRegionID:        k.ProbeRegion(),
		Telemetry:            tel,
	})
	id = rec.begin("core.Runtime.Run", run)
	err = rt.Run(func(a *core.App) { k.Run(a, kernels.Fixed(sched)) })
	rec.end(id)
	if err != nil {
		return experiments.Result{}, err
	}

	id = rec.begin("kernels.Verify", run)
	err = k.Verify()
	rec.end(id)
	if err != nil {
		return experiments.Result{}, err
	}

	for node := range platform.Nodes {
		a, m := cl.LLCStats(node)
		st.llcAccesses += a
		st.llcMisses += m
	}
	return experiments.Result{
		Benchmark: r.bench,
		Config:    r.config,
		Time:      cl.Elapsed(),
		Faults:    cl.DSMFaults(),
		Decisions: rt.Decisions(),
		Probes:    rt.Probes(),
	}, nil
}
