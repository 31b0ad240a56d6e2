package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"hetmp/internal/server"
	"hetmp/internal/telemetry"
)

// serveInstance drives an in-process RegionServer the way hetload's
// preload mode does: a closed batch from one generator goroutine,
// admitted to a paused server, then Resume..Drain. Every pass is a
// daemon restart: a new executor, store handle and server.
type serveInstance struct {
	o       options
	jobs    []server.Spec
	sigs    int
	members []server.Member
	churn   []server.ChurnEvent
	// dir is the decision-cache directory. serve_warm keeps one for its
	// lifetime (the warm-up pass fills it); serve_churn makes an empty
	// one inside it for every pass.
	dir        string
	freshCache bool
	passes     int
}

// genJobs makes the seeded job list. The shape formula is
// server.Workload's, but every signature appears exactly jobs/sigs
// times and the seed only draws order, tenant and priority: the total
// work is then the same for every seed, so seed-to-seed spread measures
// the machine, and a cold pass misses exactly sigs times.
func genJobs(seed int64, jobs, tenants, sigs int) []server.Spec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]server.Spec, jobs)
	for i := range specs {
		s := i % sigs
		specs[i] = server.Spec{
			Region:     fmt.Sprintf("w%d", s),
			Iterations: 1024 << (s % 3),
			Pages:      16 + 8*(s%4),
			OpsPerByte: []float64{16, 32, 64}[s%3],
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	for i := range specs {
		specs[i].Tenant = fmt.Sprintf("t%d", rng.Intn(tenants))
		specs[i].Priority = rng.Intn(2)
	}
	return specs
}

// serve_warm: every timed pass restarts the daemon onto a warm store,
// so WFQ dispatch, the warm-executor path and decision-cache reads are
// the work; nothing probes.
func setupServeWarm(o options) (instance, error) {
	jobs, sigs := 300, 6
	if o.smoke {
		jobs, sigs = 12, 3
	}
	dir, err := os.MkdirTemp("", "hetmp-bench-warm-")
	if err != nil {
		return nil, err
	}
	return &serveInstance{o: o, jobs: genJobs(o.seed, jobs, 4, sigs), sigs: sigs, dir: dir}, nil
}

// serve_churn: the same layers the other way round — every signature
// probes cold through the probe lanes, chunks are apportioned over
// three member nodes and rehomed as the membership churns, and the
// decision cache is written and saved, on an empty cache directory
// every pass.
func setupServeChurn(o options) (instance, error) {
	jobs, sigs := 240, 48
	if o.smoke {
		jobs, sigs = 16, 4
	}
	members, err := server.ParseMembers("n0:xeon:1,n1:thunderx:1,n2:thunderx:1")
	if err != nil {
		return nil, err
	}
	churn, err := server.ParseChurn(fmt.Sprintf("remove:n1@%d,add:n1:thunderx:1@%d,cordon:n2@%d,uncordon:n2@%d",
		jobs/4, jobs/2, jobs*2/3, jobs*5/6))
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "hetmp-bench-churn-")
	if err != nil {
		return nil, err
	}
	return &serveInstance{o: o, jobs: genJobs(o.seed, jobs, 4, sigs), sigs: sigs,
		members: members, churn: churn, dir: dir, freshCache: true}, nil
}

func (in *serveInstance) close() error { return os.RemoveAll(in.dir) }

// tracedExecutor records a span around every executor call. Embedding
// keeps the membership layer's optional capabilities (ClassCovered,
// ReprobeSpecs) visible to the server.
type tracedExecutor struct {
	*server.SimExecutor
	rec    *recorder
	parent int
}

func (t *tracedExecutor) span(fn func() (server.ExecResult, error)) (server.ExecResult, error) {
	track := t.rec.acquireTrack()
	id := t.rec.beginOn("server.Executor", t.parent, track)
	res, err := fn()
	t.rec.end(id)
	t.rec.releaseTrack(track)
	return res, err
}

func (t *tracedExecutor) Execute(sp server.Spec) (server.ExecResult, error) {
	return t.span(func() (server.ExecResult, error) { return t.SimExecutor.Execute(sp) })
}

func (t *tracedExecutor) ExecuteChunk(sp server.Spec, invocations, chunkIndex int) (server.ExecResult, error) {
	return t.span(func() (server.ExecResult, error) { return t.SimExecutor.ExecuteChunk(sp, invocations, chunkIndex) })
}

func (t *tracedExecutor) Reprobe(sp server.Spec, classes []string) (server.ExecResult, error) {
	return t.span(func() (server.ExecResult, error) { return t.SimExecutor.Reprobe(sp, classes) })
}

func (in *serveInstance) pass(rec *recorder, root int, tel *telemetry.Telemetry) (passResult, error) {
	pr := passResult{layer: map[string]float64{}}
	wantMisses := 0
	if in.freshCache || in.passes == 0 {
		wantMisses = in.sigs
	}
	in.passes++

	dir := in.dir
	if in.freshCache {
		d, err := os.MkdirTemp(in.dir, "pass-")
		if err != nil {
			return pr, err
		}
		defer os.RemoveAll(d)
		dir = d
	}

	xcfg := server.SimExecutorConfig{Seed: in.o.seed, Telemetry: tel}
	id := rec.begin("decstore.OpenDir", root)
	store, err := server.NewCache(dir, server.NewSimExecutor(xcfg).Fingerprint())
	rec.end(id)
	if err != nil {
		return pr, err
	}
	xcfg.Store = store
	x := server.NewSimExecutor(xcfg)
	var exec server.Executor = x
	var traced *tracedExecutor
	if rec != nil {
		traced = &tracedExecutor{SimExecutor: x, rec: rec}
		exec = traced
	}

	id = rec.begin("server.New", root)
	rs := server.New(server.Config{
		QueueDepth:  len(in.jobs),
		MaxInFlight: in.o.par,
		StartPaused: true,
		Executor:    exec,
		Telemetry:   tel,
		Members:     in.members,
		Churn:       in.churn,
	})
	rec.end(id)
	defer rs.Close()

	id = rec.begin("server.SubmitAsync", root)
	chans := make([]<-chan server.Result, 0, len(in.jobs))
	for i, sp := range in.jobs {
		ch, err := rs.SubmitAsync(sp)
		if err != nil {
			pr.failed++
			pr.notes = append(pr.notes, fmt.Sprintf("job %d refused: %v", i, err))
			continue
		}
		chans = append(chans, ch)
	}
	rec.end(id)

	drain := rec.begin("server.Resume..Drain", root)
	if traced != nil {
		traced.parent = drain
	}
	var waits []time.Duration
	t0 := time.Now()
	rs.Resume()
	for _, ch := range chans {
		res := <-ch
		if res.Err != nil {
			pr.failed++
			pr.notes = append(pr.notes, fmt.Sprintf("job %d (%s): %v", res.Seq, res.Sig, res.Err))
			continue
		}
		pr.ops++
		pr.lat = append(pr.lat, res.Service)
		waits = append(waits, res.Wait)
	}
	rs.Drain()
	pr.wall = time.Since(t0)
	rec.end(drain)

	id = rec.begin("decstore.Save", root)
	err = x.Save()
	rec.end(id)
	if err != nil {
		return pr, err
	}

	st := rs.Stats()
	check := func(what string, got, want int64) {
		if got != want {
			pr.failed++
			pr.notes = append(pr.notes, fmt.Sprintf("%s = %d, want %d", what, got, want))
		}
	}
	check("completed jobs", int64(st.Completed), int64(len(in.jobs)))
	check("failed jobs", int64(st.Failed), 0)
	check("warm probes", int64(st.WarmProbes), 0)
	check("cache misses", int64(st.CacheMisses), int64(wantMisses))
	if m := st.Membership; m != nil {
		check("lost iterations", m.LostIterations, 0)
		check("churn events applied", int64(m.ChurnApplied), int64(len(in.churn)))
		pr.layer["server.rehomed"] = float64(m.Rehomed)
		pr.layer["server.reprobes"] = float64(m.Reprobes)
		pr.layer["server.churn_applied"] = float64(m.ChurnApplied)
	}
	pr.exact = fmt.Sprintf("virt=%dns dispatch=%016x", st.VirtualNs, st.DispatchHash)
	pr.layer["serve_virt_s"] = time.Duration(st.VirtualNs).Seconds()
	pr.layer["serve_wait_p95_ms"] = percentile(durs(waits, time.Millisecond), 0.95)
	pr.layer["server.service_p99_ms"] = percentile(durs(pr.lat, time.Millisecond), 0.99)
	pr.layer["server.cache_hits"] = float64(st.CacheHits)
	pr.layer["server.cache_misses"] = float64(st.CacheMisses)
	pr.layer["server.cross_tenant_warm"] = float64(st.CrossTenantWarm)
	pr.layer["server.budget_windows"] = float64(st.BudgetWindows)
	return pr, nil
}
