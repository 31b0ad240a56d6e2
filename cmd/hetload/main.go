// Command hetload is the deterministic seeded load generator for the
// region server: it drives hundreds of concurrent parallel-region jobs
// from N synthetic tenants through an in-process RegionServer (or a
// remote hetserve daemon via -connect), emits a JSON report with
// throughput and p50/p95/p99 wait+service latency, and asserts
// configurable SLOs — exiting non-zero when one fails.
//
// In the default preload mode the admission order is fixed before
// dispatch begins, so the dispatch sequence (fingerprinted in the
// report's dispatch_hash) reproduces bit-for-bit for a fixed -seed;
// -verify-determinism runs the workload twice and asserts exactly
// that. -no-preload submits concurrently instead, exercising live
// queue-full backpressure with retry/backoff.
//
// -nodes turns on the elastic-membership layer (jobs chunk across the
// named nodes), -churn schedules add/remove/cordon/uncordon events at
// dispatch milestones, and -chaos-slo asserts the per-profile p95/p99
// wait+service latency budget table under the active -chaos-profile.
//
// Example:
//
//	hetload -jobs 200 -tenants 4 -seed 1 -verify-determinism \
//	    -slo-p95-wait-ms 2000 -slo-min-cross-tenant-warm 10 -json -
//
//	hetload -jobs 120 -nodes n0:xeon:1,n1:thunderx:1,n2:thunderx:1 \
//	    -churn remove:n1@30,add:n1:thunderx:1@70 \
//	    -chaos-profile mixed -chaos-slo -verify-determinism
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"hetmp/internal/rpc"
	"hetmp/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "hetload: %v\n", err)
		os.Exit(1)
	}
}

// inProcessOnly are the flags that configure the in-process server or
// how hetload drives it. A remote hetserve is configured on the daemon,
// so -connect rejects them rather than ignore them. -chaos-profile is
// one of them too unless -chaos-slo is set: then it only picks the
// budget table.
var inProcessOnly = []string{
	"verify-determinism", "cache-dir", "queue-depth", "max-inflight",
	"tenant-budget", "weights", "no-preload", "nodes", "churn",
}

func run(args []string) error {
	fs := flag.NewFlagSet("hetload", flag.ExitOnError)
	var (
		jobs       = fs.Int("jobs", 200, "total jobs to submit")
		tenants    = fs.Int("tenants", 4, "synthetic tenant count")
		signatures = fs.Int("signatures", 6, "distinct region shapes in the mix")
		seed       = fs.Int64("seed", 1, "workload + executor seed")
		queueDepth = fs.Int("queue-depth", 0, "server queue depth (0 = jobs, so preload admits everything)")
		inflight   = fs.Int("max-inflight", 8, "server max concurrently executing jobs")
		budget     = fs.Int64("tenant-budget", 0, "per-tenant iteration budget per window")
		weights    = fs.String("weights", "", "per-tenant weights, tenant=w,tenant=w")
		chaosProf  = fs.String("chaos-profile", "", "run jobs under this chaos profile")
		cacheDir   = fs.String("cache-dir", "", "persist the shared decision cache here")
		noPreload  = fs.Bool("no-preload", false, "submit concurrently instead of preloading (exercises backpressure; not deterministic)")
		verify     = fs.Bool("verify-determinism", false, "run twice and assert identical dispatch hash and virtual time")
		connect    = fs.String("connect", "", "drive a remote hetserve at this address instead of an in-process server")
		jsonOut    = fs.String("json", "", "write the JSON report here (- = stdout)")
		quiet      = fs.Bool("quiet", false, "suppress progress output")

		nodes    = fs.String("nodes", "", "elastic membership: name:class[:weight],... (empty = membership off)")
		churn    = fs.String("churn", "", "membership-churn schedule: op:args@dispatch,... (e.g. remove:n1@30,add:n1:thunderx:1@70)")
		chaosSLO = fs.Bool("chaos-slo", false, "assert the per-profile latency budget table for -chaos-profile (explicit -slo-* flags override)")

		sloWaitP95 = fs.Float64("slo-p95-wait-ms", 0, "SLO: max p95 admission-to-dispatch wait (ms)")
		sloWaitP99 = fs.Float64("slo-p99-wait-ms", 0, "SLO: max p99 admission-to-dispatch wait (ms)")
		sloSvcP95  = fs.Float64("slo-p95-service-ms", 0, "SLO: max p95 service time (ms)")
		sloSvcP99  = fs.Float64("slo-p99-service-ms", 0, "SLO: max p99 service time (ms)")
		sloMinTput = fs.Float64("slo-min-throughput", 0, "SLO: min completed jobs per second")
		sloMinXT   = fs.Int("slo-min-cross-tenant-warm", 0, "SLO: min cross-tenant warm (probe-free) runs")
		expectRej  = fs.Bool("expect-rejections", false, "tolerate admission rejections (backpressure runs)")
	)
	fs.Parse(args)
	if *connect != "" {
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(inProcessOnly, f.Name) || f.Name == "chaos-profile" && !*chaosSLO {
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("%s configure an in-process server; a remote hetserve is configured on the daemon",
				strings.Join(ignored, ", "))
		}
	}
	cfg := server.LoadConfig{
		Jobs: *jobs, Tenants: *tenants, Signatures: *signatures, Seed: *seed,
		QueueDepth: *queueDepth, MaxInFlight: *inflight, TenantIterBudget: *budget,
		ChaosProfile: *chaosProf, CacheDir: *cacheDir, NoPreload: *noPreload,
		SLO: server.SLO{
			MaxP95WaitMs:       *sloWaitP95,
			MaxP99WaitMs:       *sloWaitP99,
			MaxP95ServiceMs:    *sloSvcP95,
			MaxP99ServiceMs:    *sloSvcP99,
			MinThroughput:      *sloMinTput,
			MinCrossTenantWarm: *sloMinXT,
		},
	}
	if *expectRej {
		cfg.SLO.MaxRejections = -1
	}
	var err error
	if cfg.Weights, err = server.ParseWeights(*weights); err != nil {
		return err
	}
	if cfg.Members, err = server.ParseMembers(*nodes); err != nil {
		return err
	}
	if cfg.Churn, err = server.ParseChurn(*churn); err != nil {
		return err
	}
	if len(cfg.Churn) > 0 && len(cfg.Members) == 0 {
		return errors.New("-churn requires -nodes")
	}
	if *chaosSLO {
		budget, ok := server.ChaosSLOs(*chaosProf)
		if !ok {
			return fmt.Errorf("-chaos-slo: no latency budget for chaos profile %q", *chaosProf)
		}
		cfg.SLO = server.MergeSLO(cfg.SLO, budget)
	}
	if !*quiet {
		cfg.Logf = func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
	}

	var report server.LoadReport
	switch {
	case *connect != "":
		report, err = runRemote(cfg, *connect)
	case *verify:
		report, err = server.RunLoadVerified(cfg)
	default:
		report, err = server.RunLoad(cfg)
	}
	if err != nil {
		return err
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
	}
	if len(report.SLOFailures) > 0 {
		return fmt.Errorf("SLO failures: %v", report.SLOFailures)
	}
	return nil
}

// runRemote drives a remote hetserve: one rpc connection per tenant
// (the rpc layer serializes per connection, matching the one-stream-
// per-tenant model), jobs fanned out across them with queue-full
// retry/backoff. Determinism is not asserted against a remote server —
// its admission order depends on the network.
func runRemote(cfg server.LoadConfig, addr string) (server.LoadReport, error) {
	cfg = cfg.WithDefaults()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	specs := server.Workload(cfg)

	// One client per tenant; jobs for a tenant run serially on its
	// connection, tenants in parallel.
	byTenant := map[string][]server.Spec{}
	for _, sp := range specs {
		byTenant[sp.Tenant] = append(byTenant[sp.Tenant], sp)
	}
	report := server.LoadReport{
		Jobs: cfg.Jobs, Tenants: cfg.Tenants, Signatures: cfg.Signatures,
		Seed: cfg.Seed, TenantJobs: map[string]int{},
	}
	var mu sync.Mutex
	var results []server.Result
	var wg sync.WaitGroup
	start := time.Now()
	errs := make(chan error, len(byTenant))
	for tenant, sps := range byTenant {
		wg.Add(1)
		go func(tenant string, sps []server.Spec) {
			defer wg.Done()
			c, err := rpc.DialClient(addr)
			if err != nil {
				errs <- fmt.Errorf("tenant %s: %w", tenant, err)
				return
			}
			defer c.Close()
			for _, sp := range sps {
				backoff := 5 * time.Millisecond
				for attempt := 0; ; attempt++ {
					r, err := server.SubmitRemote(c, sp, 5*time.Minute)
					if err == nil {
						mu.Lock()
						results = append(results, r)
						report.TenantJobs[tenant]++
						mu.Unlock()
						break
					}
					if !errors.Is(err, server.ErrQueueFull) || attempt >= cfg.MaxRetries {
						errs <- fmt.Errorf("tenant %s: %w", tenant, err)
						return
					}
					mu.Lock()
					report.Rejections++
					report.Retries++
					mu.Unlock()
					time.Sleep(backoff)
					if backoff < 500*time.Millisecond {
						backoff *= 2
					}
				}
			}
		}(tenant, sps)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return report, err
	}
	wall := time.Since(start)
	report.WallSeconds = wall.Seconds()
	report.Completed = len(results)
	var waits, svcs []time.Duration
	var virtual int64
	for _, r := range results {
		waits = append(waits, r.Wait)
		svcs = append(svcs, r.Service)
		virtual += r.VirtualNs
		if r.Warm {
			report.CacheHits++
		} else {
			report.CacheMisses++
		}
		if r.CrossTenantWarm {
			report.CrossTenantWarm++
		}
	}
	report.Wait = server.ComputePercentiles(waits)
	report.Service = server.ComputePercentiles(svcs)
	report.VirtualSeconds = time.Duration(virtual).Seconds()
	if wall > 0 {
		report.Throughput = float64(report.Completed) / wall.Seconds()
	}
	report.SLOFailures = server.CheckSLO(cfg.SLO, report)
	logf("hetload: remote %s: %d jobs in %.2fs (%.1f jobs/s), %d cache hits (%d cross-tenant)",
		addr, report.Completed, report.WallSeconds, report.Throughput, report.CacheHits, report.CrossTenantWarm)
	return report, nil
}
