// RPCCluster: distribute real work over TCP workers with HetProbe-style
// measurement and fault tolerance. Three worker daemons start
// in-process: one at full speed, one throttled to stand in for a slower
// ISA, and one rigged to die mid-run. The pool probes all three,
// measures speed ratios, skews the distribution accordingly — and when
// the rigged worker drops its connection, redistributes its unfinished
// span across the survivors instead of aborting, so the portfolio value
// still comes out exact. The loop then runs a second time on the same
// pool: the survivors' measured rates are cached, so the warm run skips
// the probe and splits the whole loop in one round trip.
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"time"

	"hetmp/internal/rpc"
	"hetmp/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	rpc.RegisterBuiltins()

	// Spin up three workers on loopback ports. "flaky" serves its probe
	// chunk, then hangs up on every later request — a stand-in for a
	// node crashing mid-loop.
	addrs := make([]string, 0, 3)
	for _, w := range []struct {
		name     string
		throttle time.Duration
		fault    *rpc.FaultConfig
	}{
		{"bignode", 0, nil},
		{"smallnode", 2 * time.Millisecond, nil},
		{"flaky", 0, &rpc.FaultConfig{DropAfter: 2}},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &rpc.Server{Name: w.name, Cores: runtime.GOMAXPROCS(0), Throttle: w.throttle, Fault: w.fault}
		go srv.Serve(ln)
		defer srv.Close()
		addrs = append(addrs, ln.Addr().String())
	}

	pool, err := rpc.Dial(addrs...)
	if err != nil {
		return err
	}
	defer pool.Close()
	tel := telemetry.New(telemetry.Options{})
	pool.Telemetry = tel
	fmt.Printf("connected to workers: %v\n", pool.Workers())

	const n = 2_000_000
	for _, pass := range []string{"cold", "warm"} {
		start := time.Now()
		total, stats, err := pool.Run("blackscholes", n, 0, rpc.RunOptions{
			ProbeFraction: 0.1, // cold runs only: a warm run does not probe
			CallTimeout:   30 * time.Second,
			MaxRetries:    1,
			RetryBackoff:  20 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%s run: portfolio value over %d options: %.2f (%.2fs)\n", pass, n, total, time.Since(start).Seconds())
		for _, s := range stats {
			state := "alive"
			if !s.Alive {
				state = "DEAD (" + s.Failure + ")"
			}
			fmt.Printf("  %-10s speed ratio %.2f : 1, %7d iterations, busy %v, retries %d, redistributed %d — %s\n",
				s.Name, s.SpeedRatio, s.Iterations, s.Elapsed.Round(time.Millisecond),
				s.Retries, s.Redistributed, state)
		}
	}
	fmt.Println("cold: the flaky worker's span was re-executed by the survivors; the total is exact because tasks are pure")
	fmt.Println("warm: no probe, no casualty, one chunk per survivor, split by the rates the cold run measured")

	// The pool recorded every retry, death and redistributed span into
	// its telemetry registry — dump it in Prometheus text format.
	fmt.Println("\n--- pool metrics (Prometheus text format) ---")
	if err := tel.Metrics().WritePrometheus(os.Stdout); err != nil {
		return err
	}
	return nil
}
