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

	"hetmp/internal/runconfig"
	"hetmp/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "hetload: %v\n", err)
		os.Exit(1)
	}
}

// inProcessOnly are the flags that configure the in-process server or
// how hetload drives it: every serving flag but -seed, which also seeds
// the workload, and hetload's own. A remote hetserve is configured on
// the daemon, so -connect rejects them rather than ignore them.
// -chaos-profile passes with -chaos-slo: then it only picks the budget
// table.
var inProcessOnly = append(slices.DeleteFunc(slices.Clone(runconfig.ServeFlagNames), func(name string) bool {
	return name == "seed"
}), "verify-determinism", "no-preload", "churn")

func run(args []string) error {
	fs := flag.NewFlagSet("hetload", flag.ExitOnError)
	serve := runconfig.RegisterServe(fs, 0)
	var cfg server.LoadConfig
	fs.IntVar(&cfg.Jobs, "jobs", 200, "total jobs to submit")
	fs.IntVar(&cfg.Tenants, "tenants", 4, "synthetic tenant count")
	fs.IntVar(&cfg.Signatures, "signatures", 6, "distinct region shapes in the mix")
	fs.BoolVar(&cfg.NoPreload, "no-preload", false, "submit concurrently instead of preloading (exercises backpressure; not deterministic)")
	fs.Float64Var(&cfg.SLO.MaxP95WaitMs, "slo-p95-wait-ms", 0, "SLO: max p95 admission-to-dispatch wait (ms)")
	fs.Float64Var(&cfg.SLO.MaxP99WaitMs, "slo-p99-wait-ms", 0, "SLO: max p99 admission-to-dispatch wait (ms)")
	fs.Float64Var(&cfg.SLO.MaxP95ServiceMs, "slo-p95-service-ms", 0, "SLO: max p95 service time (ms)")
	fs.Float64Var(&cfg.SLO.MaxP99ServiceMs, "slo-p99-service-ms", 0, "SLO: max p99 service time (ms)")
	fs.Float64Var(&cfg.SLO.MinThroughput, "slo-min-throughput", 0, "SLO: min completed jobs per second")
	fs.IntVar(&cfg.SLO.MinCrossTenantWarm, "slo-min-cross-tenant-warm", 0, "SLO: min cross-tenant warm (probe-free) runs")
	var (
		verify    = fs.Bool("verify-determinism", false, "run twice and assert identical dispatch hash and virtual time")
		connect   = fs.String("connect", "", "drive a remote hetserve at this address instead of an in-process server")
		jsonOut   = fs.String("json", "", "write the JSON report here (- = stdout)")
		quiet     = fs.Bool("quiet", false, "suppress progress output")
		churn     = fs.String("churn", "", "membership-churn schedule: op:args@dispatch,... (e.g. remove:n1@30,add:n1:thunderx:1@70)")
		chaosSLO  = fs.Bool("chaos-slo", false, "assert the per-profile latency budget table for -chaos-profile (explicit -slo-* flags override)")
		expectRej = fs.Bool("expect-rejections", false, "tolerate admission rejections (backpressure runs)")
	)
	fs.Parse(args)
	if *connect != "" {
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			if slices.Contains(inProcessOnly, f.Name) && (f.Name != "chaos-profile" || !*chaosSLO) {
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("%s configure an in-process server; a remote hetserve is configured on the daemon",
				strings.Join(ignored, ", "))
		}
	}
	var err error
	if cfg.SimServerConfig, err = serve.Server(); err != nil {
		return err
	}
	if *expectRej {
		cfg.SLO.MaxRejections = -1
	}
	if cfg.Churn, err = server.ParseChurn(*churn); err != nil {
		return err
	}
	if len(cfg.Churn) > 0 && len(cfg.Members) == 0 {
		return errors.New("-churn requires -nodes")
	}
	if *chaosSLO {
		budget, ok := server.ChaosSLOs(cfg.ChaosProfile)
		if !ok {
			return fmt.Errorf("-chaos-slo: no latency budget for chaos profile %q", cfg.ChaosProfile)
		}
		cfg.SLO = server.MergeSLO(cfg.SLO, budget)
	}
	if !*quiet {
		cfg.Logf = func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
	}

	var report server.LoadReport
	switch {
	case *connect != "":
		report, err = server.RunRemote(cfg, *connect)
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
