package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"time"

	"hetmp/internal/rpc"
	"hetmp/internal/telemetry"
)

// rpcWorkers is two in-process rpc.Servers on loopback, the way
// hetworker serves: no throttle, no fault injection.
type rpcWorkers struct {
	servers []*rpc.Server
	served  chan error
	addrs   []string
}

func startWorkers(n int) (*rpcWorkers, error) {
	rpc.RegisterBuiltins()
	w := &rpcWorkers{served: make(chan error, n)} // one send per Serve goroutine
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.close()
			return nil, err
		}
		srv := &rpc.Server{Name: fmt.Sprintf("w%d", i), Cores: 1}
		w.servers = append(w.servers, srv)
		w.addrs = append(w.addrs, ln.Addr().String())
		go func() { w.served <- srv.Serve(ln) }()
	}
	return w, nil
}

// close stops every server and waits for its Serve goroutine.
func (w *rpcWorkers) close() error {
	var first error
	for _, srv := range w.servers {
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
	}
	for range w.servers {
		if err := <-w.served; !errors.Is(err, rpc.ErrServerClosed) && first == nil {
			first = err
		}
	}
	w.servers = nil
	return first
}

// piPrefix sums the pi task's series in index order: prefix[n] is the
// single-threaded reference for Pool.Run("pi", n).
func piPrefix(max int) []float64 {
	prefix := make([]float64, max+1)
	for i := 0; i < max; i++ {
		term := 4.0 / float64(2*i+1)
		if i%2 == 1 {
			term = -term
		}
		prefix[i+1] = prefix[i] + term
	}
	return prefix
}

// rpcInstance is one rpc.Dial pool over two workers and the seeded list
// of loop sizes a pass runs through it: a closed loop, one client.
type rpcInstance struct {
	workers *rpcWorkers
	pool    *rpc.Pool
	sizes   []int
	ref     []float64
}

// rpc_pool: gob encode/decode, probe -> speed ratio -> apportion, and
// the TCP round trip are all the work. No other workload touches rpc.
func setupRPCPool(o options) (instance, error) {
	runs := 4000
	if o.smoke {
		runs = 60
	}
	workers, err := startWorkers(2)
	if err != nil {
		return nil, err
	}
	pool, err := rpc.Dial(workers.addrs...)
	if err != nil {
		workers.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	in := &rpcInstance{workers: workers, pool: pool, sizes: make([]int, runs), ref: piPrefix(2500)}
	for i := range in.sizes {
		in.sizes[i] = 1500 + rng.Intn(1001)
	}
	return in, nil
}

func (in *rpcInstance) close() error {
	in.pool.Close()
	return in.workers.close()
}

func (in *rpcInstance) pass(rec *recorder, root int, tel *telemetry.Telemetry) (passResult, error) {
	pr := passResult{layer: map[string]float64{}}
	in.pool.Telemetry = tel
	defer func() { in.pool.Telemetry = nil }()
	var busy, critical time.Duration
	begin := time.Now()
	for _, n := range in.sizes {
		id := rec.begin("rpc.Pool.Run", root)
		t0 := time.Now()
		got, stats, err := in.pool.Run("pi", n, 0, rpc.RunOptions{})
		d := time.Since(t0)
		rec.end(id)
		if err == nil {
			err = checkPi(got, in.ref[n], n, stats)
		}
		if err != nil {
			pr.failed++
			pr.notes = append(pr.notes, fmt.Sprintf("Pool.Run(pi, %d): %v", n, err))
			continue
		}
		pr.ops++
		pr.lat = append(pr.lat, d)
		var slowest time.Duration
		for _, ws := range stats {
			busy += ws.Elapsed
			if ws.Elapsed > slowest {
				slowest = ws.Elapsed
			}
		}
		critical += d - slowest
	}
	pr.wall = time.Since(begin)
	us := durs(pr.lat, time.Microsecond)
	pr.layer["rpc.run_p99_us"] = percentile(us, 0.99)
	pr.layer["rpc.run_p999_us"] = percentile(us, 0.999)
	pr.layer["rpc.worker_busy_s"] = busy.Seconds()
	// What a run costs beyond its slowest worker's compute: encoding,
	// the round trips, probing and apportioning.
	pr.layer["rpc.pool_self_s"] = critical.Seconds()
	return pr, nil
}

// checkPi holds one run to the single-threaded reference and to
// exactly-once accounting of its iterations.
func checkPi(got, want float64, n int, stats []rpc.WorkerStats) error {
	if math.Abs(got-want) > 1e-9 {
		return fmt.Errorf("sum %.12f, want %.12f", got, want)
	}
	iters := 0
	for _, ws := range stats {
		if !ws.Alive {
			return fmt.Errorf("worker %s died: %s", ws.Name, ws.Failure)
		}
		if ws.Retries != 0 || ws.Redistributed != 0 {
			return fmt.Errorf("worker %s needed %d retries, %d iterations redistributed", ws.Name, ws.Retries, ws.Redistributed)
		}
		iters += ws.Iterations
	}
	if iters != n {
		return fmt.Errorf("workers account for %d iterations, want %d", iters, n)
	}
	return nil
}
