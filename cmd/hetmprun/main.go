// Command hetmprun executes one of the paper's benchmarks under a
// chosen work-distribution configuration on the simulated platform and
// reports the model execution time, DSM faults and (for HetProbe) the
// scheduler's decisions. With -rpc it instead drives a registered task
// across real hetworker daemons over TCP, with the pool's full
// fault-tolerance machinery (deadlines, retry, redistribution), and
// reports per-worker statistics including casualties.
//
// Usage:
//
//	hetmprun -bench kmeans -config HetProbe
//	hetmprun -bench BT-C -config ThunderX -protocol tcpip -scale 0.5
//	hetmprun -rpc :7001,:7002 -task blackscholes -n 2000000 -call-timeout 10s
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"hetmp/internal/chaos"
	"hetmp/internal/experiments"
	"hetmp/internal/interconnect"
	"hetmp/internal/kernels"
	"hetmp/internal/profiling"
	"hetmp/internal/rpc"
	"hetmp/internal/telemetry"
)

func main() {
	var (
		bench    = flag.String("bench", "kmeans", "benchmark name (see -list)")
		config   = flag.String("config", experiments.CfgHetProbe, "Xeon | ThunderX | Ideal CSR | Cross-Node Dynamic | HetProbe")
		protocol = flag.String("protocol", "rdma", "rdma or tcpip")
		scale    = flag.Float64("scale", 0, "problem scale override")
		quick    = flag.Bool("quick", false, "reduced platform")
		list     = flag.Bool("list", false, "list benchmarks and exit")

		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON file of the run (load in chrome://tracing or Perfetto)")
		metricsOut = flag.String("metrics", "", "write a Prometheus text-format metrics dump of the run")

		batch      = flag.Bool("batch-faults", false, "enable the DSM's batched-fault protocol")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (post-GC, at exit) to this file")

		chaosProfile = flag.String("chaos-profile", "", "inject a named degradation profile: "+strings.Join(chaos.Profiles(), " | ")+" (enables HetProbe re-decision)")
		chaosSeed    = flag.Int64("chaos-seed", 1, "seed for the chaos schedule; same seed = same degradation, bit for bit")

		decisionStore = flag.String("decision-store", "", "directory of persistent HetProbe decision stores: seed decisions from prior runs (skipping the probing period) and save learned ones back")

		rpcAddrs    = flag.String("rpc", "", "comma-separated worker addresses: run -task over real RPC workers instead of the simulator")
		task        = flag.String("task", "blackscholes", "registered task name for -rpc mode")
		n           = flag.Int("n", 1_000_000, "iteration count for -rpc mode")
		arg         = flag.Float64("arg", 0, "scalar task argument for -rpc mode")
		probe       = flag.Float64("probe", 0.1, "probe fraction of a cold run in -rpc mode (a warm run does not probe)")
		callTimeout = flag.Duration("call-timeout", rpc.DefaultCallTimeout, "per-chunk RPC deadline (-rpc mode)")
		retries     = flag.Int("retries", rpc.DefaultMaxRetries, "reconnect retries per failed call before a worker is dropped (-rpc mode)")
		redial      = flag.Duration("redial", 0, "background re-dial interval for dropped workers, 0 = off (-rpc mode)")
	)
	flag.Parse()
	if *list {
		for _, name := range kernels.PaperOrder {
			fmt.Println(name)
		}
		return
	}
	var tel *telemetry.Telemetry
	if *traceOut != "" || *metricsOut != "" {
		tel = telemetry.New(telemetry.Options{})
	}
	stop, err := profiling.Start(*cpuProfile, *memProfile)
	if err == nil {
		if *rpcAddrs != "" {
			err = runRPC(*rpcAddrs, *task, *n, *arg, *probe, *callTimeout, *retries, *redial, tel)
		} else {
			err = run(*bench, *config, *protocol, *scale, *quick, *chaosProfile, *chaosSeed, *batch, *decisionStore, tel)
		}
		if perr := stop(); err == nil {
			err = perr
		}
	}
	if err == nil {
		err = writeTelemetry(tel, *traceOut, *metricsOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hetmprun:", err)
		os.Exit(1)
	}
}

// writeTelemetry exports the run's spans and metrics to the requested
// files.
func writeTelemetry(tel *telemetry.Telemetry, traceOut, metricsOut string) error {
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := tel.Tracer().WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%d spans", traceOut, tel.Tracer().Len())
		if d := tel.Tracer().Dropped(); d > 0 {
			fmt.Printf(", %d dropped", d)
		}
		fmt.Println(")")
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			return err
		}
		if err := tel.Metrics().WritePrometheus(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("metrics written to %s\n", metricsOut)
	}
	return nil
}

// runRPC distributes a task over real workers and reports the outcome,
// degradation included: a run that lost workers still prints its result
// alongside each casualty's failure.
func runRPC(addrList, task string, n int, arg, probe float64, callTimeout time.Duration, retries int, redial time.Duration, tel *telemetry.Telemetry) error {
	var addrs []string
	for _, a := range strings.Split(addrList, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	pool, err := rpc.Dial(addrs...)
	if err != nil {
		return err
	}
	defer pool.Close()
	pool.RedialInterval = redial
	pool.Telemetry = tel
	fmt.Printf("connected to workers: %v\n", pool.Workers())

	start := time.Now()
	total, stats, err := pool.Run(task, n, arg, rpc.RunOptions{
		ProbeFraction: probe,
		CallTimeout:   callTimeout,
		MaxRetries:    retries,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s over %d iterations = %v (%.2fs)\n", task, n, total, time.Since(start).Seconds())
	printWorkerStats(stats)
	return nil
}

func printWorkerStats(stats []rpc.WorkerStats) {
	for _, s := range stats {
		state := "alive"
		if !s.Alive {
			state = "DEAD: " + s.Failure
		}
		fmt.Printf("  %-12s ratio %6.2f  iters %8d  busy %-10v retries %d  redistributed %d  %s\n",
			s.Name, s.SpeedRatio, s.Iterations, s.Elapsed.Round(time.Millisecond),
			s.Retries, s.Redistributed, state)
	}
}

func run(bench, config, protocol string, scale float64, quick bool, chaosProfile string, chaosSeed int64, batch bool, decisionStore string, tel *telemetry.Telemetry) error {
	if scale < 0 {
		return fmt.Errorf("-scale %g is negative", scale)
	}
	s := experiments.Default()
	if quick {
		s = experiments.Quick()
	}
	if scale > 0 {
		s.Scale = scale
	}
	s.Telemetry = tel
	s.ChaosProfile = chaosProfile
	s.ChaosSeed = chaosSeed
	s.BatchFaults = batch
	s.DecisionStore = decisionStore
	proto, err := interconnect.ByName(protocol)
	if err != nil {
		return err
	}
	res, err := s.Run(bench, config, proto)
	if err != nil {
		return err
	}
	fmt.Printf("%s under %s (%s): %s, %d DSM faults\n",
		bench, config, proto.Name, experiments.FormatDuration(res.Time), res.Faults)
	if chaosProfile != "" {
		fmt.Printf("  chaos %s (seed %d): %d mid-region re-decision(s)\n",
			chaosProfile, chaosSeed, res.ReDecisions)
	}
	if decisionStore != "" {
		fmt.Printf("  decision store: %d probing period(s), %d prediction(s)\n",
			res.Probes, res.Predictions)
	}
	if len(res.Decisions) > 0 {
		ids := make([]string, 0, len(res.Decisions))
		for id := range res.Decisions {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Printf("  %-24s %s\n", id, res.Decisions[id])
		}
	}
	return nil
}
