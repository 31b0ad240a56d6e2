package main

import (
	"fmt"
	"os"
	"time"

	"hetmp/internal/apportion"
	"hetmp/internal/cluster"
	"hetmp/internal/core"
	"hetmp/internal/decstore"
	"hetmp/internal/dsm"
	"hetmp/internal/experiments"
	"hetmp/internal/interconnect"
	"hetmp/internal/machine"
	"hetmp/internal/perf"
	"hetmp/internal/rpc"
	"hetmp/internal/server"
	"hetmp/internal/simtime"
	"hetmp/internal/telemetry"
)

// A layer probe is a tight loop over one layer's public functions. It
// returns how many operations it did and how long they took on the host
// clock; the harness repeats it and reports the median cost of one
// operation. Probes measure the simulator, never the simulated system:
// the virtual durations they pass in are constants.
type probeFunc func(n int) (ops int, d time.Duration, err error)

type probeDef struct {
	metric string
	unit   time.Duration // the metric's unit of host time
	n      int           // loop size at full scale
	fn     probeFunc
}

// sink keeps results alive so the compiler cannot drop a probed call.
var sink int64

func runProbes(o options, out *outcome) error {
	batches := 5
	if o.smoke {
		batches = 1
	}
	tmp, err := os.MkdirTemp("", "hetmp-bench-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	workers, err := startWorkers(1)
	if err != nil {
		return err
	}
	defer workers.close()

	storeEntries := 10000 // the .n10k probes
	if o.smoke {
		storeEntries = 200
	}
	for _, p := range probeDefs(tmp, workers.addrs[0], storeEntries) {
		n := p.n
		if o.smoke {
			n = max(n/50, 1)
		}
		var costs []float64
		for b := 0; b < batches; b++ {
			ops, d, err := p.fn(n)
			if err != nil {
				return fmt.Errorf("%s: %w", p.metric, err)
			}
			costs = append(costs, float64(d)/float64(p.unit)/float64(ops))
		}
		out.sample(p.metric, costs)
	}
	return nil
}

// timeEngine runs body as the only proc of a fresh engine and returns
// the host time body itself reports.
func timeEngine(body func(p *simtime.Proc) time.Duration) (time.Duration, error) {
	var d time.Duration
	eng := simtime.NewEngine(1)
	eng.Go("probe", 0, func(p *simtime.Proc) { d = body(p) })
	return d, eng.Run()
}

// timeSim runs master as the application of a fresh paper-platform Sim.
func timeSim(platform machine.Platform, master func(e cluster.Env) time.Duration) (time.Duration, error) {
	cl, err := cluster.NewSim(cluster.SimConfig{Platform: platform, Protocol: interconnect.RDMA56()})
	if err != nil {
		return 0, err
	}
	var d time.Duration
	err = cl.Run(func(e cluster.Env) { d = master(e) })
	return d, err
}

// timeApp runs app on a fresh runtime over the platform.
func timeApp(platform machine.Platform, app func(a *core.App) time.Duration) (time.Duration, error) {
	cl, err := cluster.NewSim(cluster.SimConfig{Platform: platform, Protocol: interconnect.RDMA56()})
	if err != nil {
		return 0, err
	}
	var d time.Duration
	err = core.New(cl, core.Options{}).Run(func(a *core.App) { d = app(a) })
	return d, err
}

// nopExecutor completes a job at once: what is left is the scheduler.
type nopExecutor struct{}

func (nopExecutor) Execute(server.Spec) (server.ExecResult, error) { return server.ExecResult{}, nil }

// schedulerProbe preloads n jobs over the given number of tenants onto
// a paused server with a no-op executor, and times admission (submit)
// or Resume..Drain (dispatch).
func schedulerProbe(tenants int, submit bool) probeFunc {
	return func(n int) (int, time.Duration, error) {
		rs := server.New(server.Config{QueueDepth: n, MaxInFlight: 4, StartPaused: true, Executor: nopExecutor{}})
		defer rs.Close()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := rs.SubmitAsync(server.Spec{Tenant: fmt.Sprintf("t%d", i%tenants), Region: "r"}); err != nil {
				return 0, 0, err
			}
		}
		admitted := time.Since(t0)
		t0 = time.Now()
		rs.Resume()
		rs.Drain()
		if submit {
			return n, admitted, nil
		}
		return n, time.Since(t0), nil
	}
}

// executeProbe times SimExecutor.Execute for one job shape: cold on a
// fresh in-memory store every time, or warm on one that already holds
// the shape's decision.
func executeProbe(warm bool) probeFunc {
	spec := server.Spec{Tenant: "t0", Region: "w0", Iterations: 2048, Pages: 24, OpsPerByte: 32}
	return func(n int) (int, time.Duration, error) {
		newExec := func() *server.SimExecutor {
			cfg := server.SimExecutorConfig{Seed: 1}
			cfg.Store = decstore.NewMem(server.NewSimExecutor(cfg).Fingerprint())
			return server.NewSimExecutor(cfg)
		}
		x := newExec()
		if warm {
			if _, err := x.Execute(spec); err != nil {
				return 0, 0, err
			}
		}
		var total time.Duration
		for i := 0; i < n; i++ {
			if !warm {
				x = newExec()
			}
			t0 := time.Now()
			res, err := x.Execute(spec)
			total += time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			if warm != (res.Probes == 0) {
				return 0, 0, fmt.Errorf("warm=%t execute paid %d probes", warm, res.Probes)
			}
		}
		return n, total, nil
	}
}

// filledStore returns a store holding n plausible entries.
func filledStore(s *decstore.Store, n int) *decstore.Store {
	for i := 0; i < n; i++ {
		s.Put(fmt.Sprintf("w%d/i4096/k32/p32", i), decstore.Entry{
			CrossNode: true, Nodes: []int{0, 1}, CSR: map[int]float64{0: 3.7, 1: 1},
			FaultPeriodNs: 250000, PerIterNs: map[int]int64{0: 900, 1: 3300},
			Invocations: 4, Classes: []string{"thunderx", "xeon"},
			Features: decstore.Features{Iterations: 4096, BytesTouched: 1 << 17, OpsPerByte: 32},
		})
	}
	return s
}

func saveProbe(tmp string, entries int) probeFunc {
	return func(n int) (int, time.Duration, error) {
		var total time.Duration
		for i := 0; i < n; i++ {
			dir, err := os.MkdirTemp(tmp, "save-")
			if err != nil {
				return 0, 0, err
			}
			s, err := decstore.OpenDir(dir, "probe")
			if err != nil {
				return 0, 0, err
			}
			filledStore(s, entries)
			t0 := time.Now()
			err = s.Save()
			total += time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return 0, 0, err
			}
		}
		return n, total, nil
	}
}

func probeDefs(tmp, workerAddr string, storeEntries int) []probeDef {
	// The Table 1 pair with the caches experiments.Default gives them,
	// so construction and LLC costs are the sim_* workloads'.
	cacheScale := experiments.Default().CacheScale
	xeon, tx := machine.XeonE5_2620v4().ScaleCaches(cacheScale), machine.ThunderX().ScaleCaches(cacheScale)
	xeonOnly := machine.Platform{Nodes: []machine.NodeSpec{xeon}}
	both := machine.Platform{Nodes: []machine.NodeSpec{xeon, tx}, Origin: 0}
	rdma := interconnect.RDMA56()
	const kb = 1024

	// dsmScan builds a two-node space with one region homed at node 0
	// and hands it to body running as the engine's only proc.
	dsmScan := func(pages int, batch bool, body func(p *simtime.Proc, r *dsm.Region) time.Duration) (time.Duration, error) {
		proto := rdma
		proto.BatchFaults = batch
		space, err := dsm.NewSpace([]machine.NodeSpec{xeon, tx}, proto, nil)
		if err != nil {
			return 0, err
		}
		r, err := space.Alloc("probe", int64(pages)*dsm.PageSize, 0)
		if err != nil {
			return 0, err
		}
		return timeEngine(func(p *simtime.Proc) time.Duration { return body(p, r) })
	}
	// readScan faults every page in at node 1, one page per call.
	readScan := func(p *simtime.Proc, r *dsm.Region) {
		for pg := 0; pg < r.Pages(); pg++ {
			sink += r.Access(p, 1, int64(pg)*dsm.PageSize, dsm.PageSize, false).Faults
		}
	}

	return []probeDef{
		// simtime
		{"simtime.switch_ns", time.Nanosecond, 100000, func(n int) (int, time.Duration, error) {
			// Two procs advancing in lockstep: every Advance makes the
			// other proc strictly earlier, so every Advance is a switch.
			eng := simtime.NewEngine(1)
			for i := 0; i < 2; i++ {
				eng.Go("pingpong", 0, func(p *simtime.Proc) {
					for k := 0; k < n/2; k++ {
						p.Advance(time.Nanosecond)
					}
				})
			}
			t0 := time.Now()
			err := eng.Run()
			return n, time.Since(t0), err
		}},
		{"simtime.advance_fast_ns", time.Nanosecond, 2000000, func(n int) (int, time.Duration, error) {
			d, err := timeEngine(func(p *simtime.Proc) time.Duration {
				t0 := time.Now()
				for k := 0; k < n; k++ {
					p.Advance(time.Nanosecond)
				}
				return time.Since(t0)
			})
			return n, d, err
		}},
		{"simtime.barrier_ns_per_party.p112", time.Nanosecond, 200, func(n int) (int, time.Duration, error) {
			const parties = 112
			eng := simtime.NewEngine(1)
			b := simtime.NewBarrier(parties)
			for i := 0; i < parties; i++ {
				eng.Go("party", 0, func(p *simtime.Proc) {
					for k := 0; k < n; k++ {
						b.Wait(p)
					}
				})
			}
			t0 := time.Now()
			err := eng.Run()
			return n * parties, time.Since(t0), err
		}},
		{"simtime.resource_use_ns", time.Nanosecond, 1000000, func(n int) (int, time.Duration, error) {
			res := simtime.NewResource("probe")
			d, err := timeEngine(func(p *simtime.Proc) time.Duration {
				t0 := time.Now()
				for k := 0; k < n; k++ {
					sink += int64(res.Use(p, time.Nanosecond))
				}
				return time.Since(t0)
			})
			return n, d, err
		}},

		// perf
		{"perf.llc_access_hit_ns", time.Nanosecond, 2000000, func(n int) (int, time.Duration, error) {
			llc := perf.NewLLC(xeon.Cache)
			const lines = 512 // far below capacity: after one round every access hits
			for i := int64(0); i < lines; i++ {
				llc.Access(i * 64)
			}
			t0 := time.Now()
			for k := 0; k < n; k++ {
				if llc.Access(int64(k%lines) * 64) {
					sink++
				}
			}
			return n, time.Since(t0), nil
		}},
		{"perf.llc_access_miss_ns", time.Nanosecond, 2000000, func(n int) (int, time.Duration, error) {
			llc := perf.NewLLC(xeon.Cache)
			t0 := time.Now()
			for k := 0; k < n; k++ { // a stream of never-seen lines: every access misses
				if llc.Access(int64(k) * 64) {
					sink++
				}
			}
			return n, time.Since(t0), nil
		}},
		{"perf.sampled_range_ns_per_kb", time.Nanosecond, 20000, func(n int) (int, time.Duration, error) {
			llc := perf.NewLLC(xeon.Cache)
			t0 := time.Now()
			for k := 0; k < n; k++ {
				l, _ := llc.SampledRange(int64(k%64)*64*kb, 64*kb)
				sink += l
			}
			return n * 64, time.Since(t0), nil
		}},

		// interconnect
		{"interconnect.page_fault_ns", time.Nanosecond, 2000000, func(n int) (int, time.Duration, error) {
			t0 := time.Now()
			for k := 0; k < n; k++ {
				sink += int64(rdma.PageFault(tx, xeon, dsm.PageSize, nil).Wire)
			}
			return n, time.Since(t0), nil
		}},
		{"interconnect.control_msg_ns", time.Nanosecond, 2000000, func(n int) (int, time.Duration, error) {
			t0 := time.Now()
			for k := 0; k < n; k++ {
				sink += int64(rdma.ControlMessage(tx, xeon).Owner)
			}
			return n, time.Since(t0), nil
		}},

		// dsm, driven under a simtime engine
		{"dsm.read_fault_ns", time.Nanosecond, 20000, func(n int) (int, time.Duration, error) {
			d, err := dsmScan(n, false, func(p *simtime.Proc, r *dsm.Region) time.Duration {
				t0 := time.Now()
				readScan(p, r)
				return time.Since(t0)
			})
			return n, d, err
		}},
		{"dsm.access_hit_ns_per_page", time.Nanosecond, 20000, func(n int) (int, time.Duration, error) {
			const rescans = 20
			d, err := dsmScan(n, false, func(p *simtime.Proc, r *dsm.Region) time.Duration {
				readScan(p, r)
				t0 := time.Now()
				for k := 0; k < rescans; k++ {
					readScan(p, r)
				}
				return time.Since(t0)
			})
			return n * rescans, d, err
		}},
		{"dsm.write_fault_ns", time.Nanosecond, 20000, func(n int) (int, time.Duration, error) {
			const pages = 64
			d, err := dsmScan(pages, false, func(p *simtime.Proc, r *dsm.Region) time.Duration {
				t0 := time.Now()
				for k := 0; k < n; k++ { // the two nodes take the page from each other in turn
					sink += r.Access(p, 1-k/pages%2, int64(k%pages)*dsm.PageSize, 8, true).Faults
				}
				return time.Since(t0)
			})
			return n, d, err
		}},
		{"dsm.batched_fault_ns_per_page", time.Nanosecond, 20000, func(n int) (int, time.Duration, error) {
			d, err := dsmScan(n, true, func(p *simtime.Proc, r *dsm.Region) time.Duration {
				t0 := time.Now()
				sink += r.Access(p, 1, 0, r.Size(), false).Faults
				return time.Since(t0)
			})
			return n, d, err
		}},
		{"dsm.access_pages_ns_per_page", time.Nanosecond, 20000, func(n int) (int, time.Duration, error) {
			const rescans = 20
			d, err := dsmScan(n, false, func(p *simtime.Proc, r *dsm.Region) time.Duration {
				pages := make([]int64, 0, n/2)
				for pg := 0; pg < n; pg += 2 {
					pages = append(pages, int64(pg))
				}
				r.AccessPages(p, 1, pages, false)
				t0 := time.Now()
				for k := 0; k < rescans; k++ { // a settled gather: every page already held
					sink += r.AccessPages(p, 1, pages, false).Faults
				}
				return time.Since(t0)
			})
			return n / 2 * rescans, d, err
		}},

		// cluster
		{"cluster.new_sim_us", time.Microsecond, 50, func(n int) (int, time.Duration, error) {
			t0 := time.Now()
			for k := 0; k < n; k++ {
				if _, err := cluster.NewSim(cluster.SimConfig{Platform: both, Protocol: rdma}); err != nil {
					return 0, 0, err
				}
			}
			return n, time.Since(t0), nil
		}},
		{"cluster.load_ns_per_kb", time.Nanosecond, 200, func(n int) (int, time.Duration, error) {
			cl, err := cluster.NewSim(cluster.SimConfig{Platform: xeonOnly})
			if err != nil {
				return 0, 0, err
			}
			const size = 256 * kb
			r := cl.Alloc("probe", size, 0)
			var d time.Duration
			err = cl.Run(func(e cluster.Env) {
				t0 := time.Now()
				for k := 0; k < n; k++ {
					e.Load(r, 0, size)
				}
				d = time.Since(t0)
			})
			return n * size / kb, d, err
		}},
		{"cluster.loadat_ns_per_offset", time.Nanosecond, 200, func(n int) (int, time.Duration, error) {
			cl, err := cluster.NewSim(cluster.SimConfig{Platform: xeonOnly})
			if err != nil {
				return 0, 0, err
			}
			const size, gather = 1024 * kb, 1024
			r := cl.Alloc("probe", size, 0)
			offs := make([]int64, gather)
			for i := range offs {
				offs[i] = int64(i*7919*8) % size // a fixed scatter over the region
			}
			var d time.Duration
			err = cl.Run(func(e cluster.Env) {
				t0 := time.Now()
				for k := 0; k < n; k++ {
					e.LoadAt(r, offs, 8)
				}
				d = time.Since(t0)
			})
			return n * gather, d, err
		}},
		{"cluster.spawn_join_us.p112", time.Microsecond, 10, func(n int) (int, time.Duration, error) {
			d, err := timeSim(both, func(e cluster.Env) time.Duration {
				t0 := time.Now()
				for k := 0; k < n; k++ {
					hs := make([]cluster.Handle, 0, 112)
					for i := 0; i < 112; i++ {
						node := 0
						if i >= 16 {
							node = 1
						}
						hs = append(hs, e.Spawn(node, "t", func(cluster.Env) {}))
					}
					for _, h := range hs {
						h.Join(e)
					}
				}
				return time.Since(t0)
			})
			return n * 112, d, err
		}},

		// core
		{"core.fork_join_us.p16", time.Microsecond, 200, forkJoinProbe(xeonOnly, 16)},
		{"core.fork_join_us.p112", time.Microsecond, 50, forkJoinProbe(both, 112)},
		{"core.dynamic_chunk_ns", time.Nanosecond, 50000, func(n int) (int, time.Duration, error) {
			d, err := timeApp(both, func(a *core.App) time.Duration {
				t0 := time.Now()
				a.ParallelFor("dyn", n, core.DynamicSchedule(1), func(cluster.Env, int, int) {})
				return time.Since(t0)
			})
			return n, d, err
		}},
		{"core.hetprobe_cold_region_us", time.Microsecond, 5, func(n int) (int, time.Duration, error) {
			var total time.Duration
			for k := 0; k < n; k++ { // a fresh runtime each time: the region is never cached
				d, err := timeApp(both, func(a *core.App) time.Duration {
					const iters, bytesPerIter = 4096, 64
					r := a.Alloc("probe", iters*bytesPerIter)
					t0 := time.Now()
					a.ParallelFor("cold", iters, core.HetProbeSchedule(), func(e cluster.Env, lo, hi int) {
						for i := lo; i < hi; i++ {
							e.Load(r, int64(i)*bytesPerIter, bytesPerIter)
							e.Compute(32*bytesPerIter, 0.5)
						}
					})
					return time.Since(t0)
				})
				if err != nil {
					return 0, 0, err
				}
				total += d
			}
			return n, total, nil
		}},

		// experiments
		{"experiments.threshold_ms", time.Millisecond, 1, func(n int) (int, time.Duration, error) {
			t0 := time.Now()
			for k := 0; k < n; k++ { // a new suite each time: the calibration is never cached
				if _, err := experiments.Default().Threshold(rdma); err != nil {
					return 0, 0, err
				}
			}
			return n, time.Since(t0), nil
		}},

		// decstore
		{"decstore.lookup_ns", time.Nanosecond, 500000, func(n int) (int, time.Duration, error) {
			s := filledStore(decstore.NewMem("probe"), 1000)
			keys := make([]string, 1000)
			for i := range keys {
				keys[i] = fmt.Sprintf("w%d/i4096/k32/p32", i)
			}
			t0 := time.Now()
			for k := 0; k < n; k++ {
				if e, ok := s.Lookup(keys[k%len(keys)]); ok {
					sink += int64(e.Invocations)
				}
			}
			return n, time.Since(t0), nil
		}},
		{"decstore.put_ns", time.Nanosecond, 50000, func(n int) (int, time.Duration, error) {
			t0 := time.Now()
			filledStore(decstore.NewMem("probe"), n)
			return n, time.Since(t0), nil
		}},
		{"decstore.save_ms.n10", time.Millisecond, 20, saveProbe(tmp, 10)},
		{"decstore.save_ms.n10k", time.Millisecond, 1, saveProbe(tmp, storeEntries)},
		{"decstore.open_ms.n10k", time.Millisecond, 1, func(n int) (int, time.Duration, error) {
			dir, err := os.MkdirTemp(tmp, "open-")
			if err != nil {
				return 0, 0, err
			}
			defer os.RemoveAll(dir)
			s, err := decstore.OpenDir(dir, "probe")
			if err != nil {
				return 0, 0, err
			}
			if err := filledStore(s, storeEntries).Save(); err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			for k := 0; k < n; k++ {
				s, err := decstore.OpenDir(dir, "probe")
				if err != nil {
					return 0, 0, err
				}
				if s.Len() != storeEntries {
					return 0, 0, fmt.Errorf("reopened store holds %d entries (%s)", s.Len(), s.Status())
				}
			}
			return n, time.Since(t0), nil
		}},

		// apportion
		{"apportion.split_ns.w3", time.Nanosecond, 1000000, func(n int) (int, time.Duration, error) {
			weights := []float64{3.7, 1, 1}
			t0 := time.Now()
			for k := 0; k < n; k++ {
				sink += int64(apportion.Split(1000+k%7, weights)[0])
			}
			return n, time.Since(t0), nil
		}},

		// server
		{"server.submit_us", time.Microsecond, 2000, schedulerProbe(16, true)},
		{"server.dispatch_us.t1", time.Microsecond, 2000, schedulerProbe(1, false)},
		{"server.dispatch_us.t16", time.Microsecond, 2000, schedulerProbe(16, false)},
		{"server.dispatch_us.t256", time.Microsecond, 2000, schedulerProbe(256, false)},
		{"server.execute_ms.warm", time.Millisecond, 20, executeProbe(true)},
		{"server.execute_ms.cold", time.Millisecond, 10, executeProbe(false)},

		// rpc
		{"rpc.dial_us", time.Microsecond, 50, func(n int) (int, time.Duration, error) {
			t0 := time.Now()
			for k := 0; k < n; k++ {
				c, err := rpc.DialClient(workerAddr)
				if err != nil {
					return 0, 0, err
				}
				c.Close()
			}
			return n, time.Since(t0), nil
		}},
		{"rpc.call_rtt_us", time.Microsecond, 2000, func(n int) (int, time.Duration, error) {
			c, err := rpc.DialClient(workerAddr)
			if err != nil {
				return 0, 0, err
			}
			defer c.Close()
			t0 := time.Now()
			for k := 0; k < n; k++ {
				if _, err := c.Call("pi", 0, 1, 0, 0); err != nil {
					return 0, 0, err
				}
			}
			return n, time.Since(t0), nil
		}},

		// telemetry
		{"telemetry.emit_ns", time.Nanosecond, 500000, func(n int) (int, time.Duration, error) {
			tr := telemetry.New(telemetry.Options{SpanCapacity: 1 << 12}).Tracer()
			t0 := time.Now()
			for k := 0; k < n; k++ {
				tr.Emit(telemetry.Track{}, "probe", time.Duration(k), time.Duration(k+1))
			}
			return n, time.Since(t0), nil
		}},
		{"telemetry.counter_add_ns", time.Nanosecond, 2000000, func(n int) (int, time.Duration, error) {
			c := telemetry.New(telemetry.Options{}).Metrics().Counter("hetmp_bench_probe_total")
			t0 := time.Now()
			for k := 0; k < n; k++ {
				c.Add(1)
			}
			sink += c.Value()
			return n, time.Since(t0), nil
		}},
	}
}

// forkJoinProbe times an empty static ParallelFor on an already formed
// team: region fork, the work split and the join barrier.
func forkJoinProbe(platform machine.Platform, cores int) probeFunc {
	return func(n int) (int, time.Duration, error) {
		d, err := timeApp(platform, func(a *core.App) time.Duration {
			empty := func(cluster.Env, int, int) {}
			a.ParallelFor("warm", cores, core.StaticSchedule(), empty)
			t0 := time.Now()
			for k := 0; k < n; k++ {
				a.ParallelFor("fj", cores, core.StaticSchedule(), empty)
			}
			return time.Since(t0)
		})
		return n, d, err
	}
}
