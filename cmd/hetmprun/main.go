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
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"hetmp/internal/experiments"
	"hetmp/internal/interconnect"
	"hetmp/internal/kernels"
	"hetmp/internal/rpc"
	"hetmp/internal/runconfig"
	"hetmp/internal/telemetry"
)

func main() {
	sim := runconfig.Register(flag.CommandLine, true)
	var (
		bench  = flag.String("bench", "kmeans", "benchmark name (see -list)")
		config = flag.String("config", experiments.CfgHetProbe, "Xeon | ThunderX | Ideal CSR | Cross-Node Dynamic | HetProbe")
		list   = flag.Bool("list", false, "list benchmarks and exit")

		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON file of the run (load in chrome://tracing or Perfetto)")
		metricsOut = flag.String("metrics", "", "write a Prometheus text-format metrics dump of the run")

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
	err := sim.Run(os.Stdout, func(s *experiments.Suite, proto interconnect.Spec) error {
		if *rpcAddrs != "" {
			return runRPC(*rpcAddrs, *task, *n, *arg, *probe, *callTimeout, *retries, *redial, tel)
		}
		s.Telemetry = tel
		return run(s, *bench, *config, proto)
	})
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
		if err := writeFile(traceOut, tel.Tracer().WriteTrace); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%d spans", traceOut, tel.Tracer().Len())
		if d := tel.Tracer().Dropped(); d > 0 {
			fmt.Printf(", %d dropped", d)
		}
		fmt.Println(")")
	}
	if metricsOut != "" {
		if err := writeFile(metricsOut, tel.Metrics().WritePrometheus); err != nil {
			return err
		}
		fmt.Printf("metrics written to %s\n", metricsOut)
	}
	return nil
}

// writeFile creates path and lets write fill it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

func run(s *experiments.Suite, bench, config string, proto interconnect.Spec) error {
	res, err := s.Run(bench, config, proto)
	if err != nil {
		return err
	}
	fmt.Printf("%s under %s (%s): %s, %d DSM faults\n",
		bench, config, proto.Name, experiments.FormatDuration(res.Time), res.Faults)
	if s.ChaosProfile != "" {
		fmt.Printf("  chaos %s (seed %d): %d mid-region re-decision(s)\n",
			s.ChaosProfile, s.ChaosSeed, res.ReDecisions)
	}
	if s.DecisionStore != "" {
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
