package rpc

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetmp/internal/telemetry"
)

// Tests for the pool's probe cache: when a Run probes, what the cache
// survives, what it must not learn from, and that concurrent Runs share
// it safely.

// chunkLog reads the chunk spans Pool.Telemetry records: one span per
// chunk a worker completed, so 2 per worker is a probing Run and 1 per
// worker a warm one.
type chunkLog struct {
	tr   *telemetry.Tracer
	seen int
}

func watchChunks(p *Pool) *chunkLog {
	p.Telemetry = telemetry.New(telemetry.Options{})
	return &chunkLog{tr: p.Telemetry.Tracer()}
}

// next returns the chunks per pool position recorded since the last
// call, e.g. "2 2" after a cold Run over two workers.
func (c *chunkLog) next() string {
	spans := c.tr.Spans()
	var per []int
	for _, sp := range spans[c.seen:] {
		if !strings.HasPrefix(sp.Name, "chunk ") {
			continue
		}
		for len(per) < sp.Track.Tid {
			per = append(per, 0)
		}
		per[sp.Track.Tid-1]++
	}
	c.seen = len(spans)
	return strings.Trim(fmt.Sprint(per), "[]")
}

// iterations is how many iterations the workers account for in all:
// exactly-once accounting means the n the run was given.
func iterations(stats []WorkerStats) int {
	iters := 0
	for _, s := range stats {
		iters += s.Iterations
	}
	return iters
}

// runChecked runs task over n iterations, holds the result to want and
// the workers to exactly-once accounting, and returns their stats.
func runChecked(t *testing.T, p *Pool, task string, n int, want float64, opts RunOptions) map[string]WorkerStats {
	t.Helper()
	got, stats, err := p.Run(task, n, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || iterations(stats) != n {
		t.Fatalf("%s over %d iterations: result %v, want %v; workers account for %d", task, n, got, want, iterations(stats))
	}
	return statsByName(stats)
}

// awaitWorkers waits for the background re-dialer to bring the pool
// back to want workers.
func awaitWorkers(t *testing.T, p *Pool, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(p.Workers()) < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if ws := p.Workers(); len(ws) != want {
		t.Fatalf("pool has workers %v, want %d of them", ws, want)
	}
}

// countConcurrently calls Run("count", n) runs times from each of
// several goroutines and returns how many runs failed, miscounted or
// broke exactly-once accounting, and how many retries they needed.
func countConcurrently(p *Pool, goroutines, runs, n int, opts RunOptions) (bad, retries int64) {
	var wg sync.WaitGroup
	var nBad, nRetries atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < runs; k++ {
				got, stats, err := p.Run("count", n, 0, opts)
				if err != nil || got != float64(n) || iterations(stats) != n {
					nBad.Add(1)
				}
				for _, s := range stats {
					nRetries.Add(int64(s.Retries))
				}
			}
		}()
	}
	wg.Wait()
	return nBad.Load(), nRetries.Load()
}

// slow is a throttle that puts every chunk of these tests well above
// the clock floor, so every chunk is a rate sample.
const slow = 500 * time.Microsecond

func TestColdRunProbesWarmRunDoesNot(t *testing.T) {
	registerTestTasks(t)
	pool, err := Dial(startWorker(t, "a", slow), startWorker(t, "b", 4*slow))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	chunks := watchChunks(pool)

	const n = 8000
	for i, want := range []string{"2 2", "1 1", "1 1"} {
		by := runChecked(t, pool, "count", n, n, RunOptions{})
		if got := chunks.next(); got != want {
			t.Fatalf("run %d of count: chunks per worker %q, want %q", i, got, want)
		}
		// The warm split is by the cached rates, and reports them.
		if a, b := by["a"], by["b"]; i > 0 && (a.Iterations <= b.Iterations || a.SpeedRatio <= 1 || b.SpeedRatio != 1) {
			t.Errorf("run %d: a %d iterations at ratio %.2f, b (throttled 4x) %d at %.2f",
				i, a.Iterations, a.SpeedRatio, b.Iterations, b.SpeedRatio)
		}
	}
	// Rates are per task: a second task probes once itself and leaves
	// the first one warm.
	for i, want := range []string{"2 2", "1 1"} {
		runChecked(t, pool, "sum-squares", n, sumSquares(n, 1), RunOptions{})
		if got := chunks.next(); got != want {
			t.Fatalf("run %d of sum-squares: chunks per worker %q, want %q", i, got, want)
		}
	}
	runChecked(t, pool, "count", n, n, RunOptions{})
	if got := chunks.next(); got != "1 1" {
		t.Fatalf("count after sum-squares: chunks per worker %q, want it still warm", got)
	}
}

func TestRevivedWorkerProbesOnce(t *testing.T) {
	registerTestTasks(t)
	// Requests 1-2 are the cold run, 3 the warm one; 4 is dropped, and
	// with retries off that kills the worker for that run.
	fAddr, _ := startFaultyWorker(t, "reborn", slow, &FaultConfig{DropAfter: 4, DropCount: 1})
	pool, err := Dial(startWorker(t, "steady", slow), fAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.RedialInterval = 5 * time.Millisecond
	chunks := watchChunks(pool)

	const n = 4000
	noRetry := RunOptions{CallTimeout: time.Second, MaxRetries: -1}
	for _, want := range []string{"2 2", "1 1"} {
		runChecked(t, pool, "count", n, n, noRetry)
		if got := chunks.next(); got != want {
			t.Fatalf("before the death: chunks per worker %q, want %q", got, want)
		}
	}
	if by := runChecked(t, pool, "count", n, n, noRetry); by["reborn"].Alive {
		t.Fatal("worker should have died on its dropped request")
	}
	chunks.next()
	awaitWorkers(t, pool, 2)
	// The re-dialed worker arrives with no rates: exactly one probing
	// run, then the pool is warm again.
	for _, want := range []string{"2 2", "1 1", "1 1"} {
		runChecked(t, pool, "count", n, n, noRetry)
		if got := chunks.next(); got != want {
			t.Fatalf("after the revival: chunks per worker %q, want %q", got, want)
		}
	}
}

func TestRetriedDropKeepsRates(t *testing.T) {
	registerTestTasks(t)
	// As above, but the dropped request is retried: the worker re-dials
	// and adopts the fresh connection mid-run, and keeps its rates.
	fAddr, _ := startFaultyWorker(t, "flaky", slow, &FaultConfig{DropAfter: 4, DropCount: 1})
	pool, err := Dial(startWorker(t, "steady", slow), fAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	chunks := watchChunks(pool)

	const n = 4000
	for i, want := range []string{"2 2", "1 1", "1 1", "1 1"} {
		by := runChecked(t, pool, "count", n, n, fastOpts())
		if got := chunks.next(); got != want {
			t.Fatalf("run %d: chunks per worker %q, want %q", i, got, want)
		}
		retries := 0
		if i == 2 {
			retries = 1
		}
		if f := by["flaky"]; !f.Alive || f.Retries != retries {
			t.Fatalf("run %d: flaky worker %+v, want alive after %d retries", i, f, retries)
		}
	}
}

// TestRateFollowsSpeedStep slows one worker 4x between runs: the chunks
// it is handed anyway re-measure it, so its share converges on the new
// ratio within three runs and no run pays a second round trip for it.
func TestRateFollowsSpeedStep(t *testing.T) {
	// time.Sleep is the workers' speed here and a loaded host stretches
	// it. A measurement in which some sleep overran by more than a tenth
	// timed the host, not the pool, and is taken again; what an overrun
	// below that can move a share by is inside both tolerances.
	even, shares, stretched := speedStepShares(t)
	for attempt := 1; stretched && attempt < 5; attempt++ {
		t.Logf("attempt %d: a sleep overran by more than a tenth (shares %.3f then %.3f), measuring again", attempt, even, shares)
		even, shares, stretched = speedStepShares(t)
	}
	if math.Abs(even-0.5) > 0.05 {
		t.Errorf("equal workers: w1's share %.3f, want about 0.5", even)
	}
	// With weight 0.7 on the newest sample the cached ratio after one,
	// two and three runs is 0.475, 0.318 and 0.270 : 1 against a true
	// 0.25 : 1: shares of 0.5 (the stale rates), 0.322, 0.241 and 0.213.
	decreasing := true
	for i := 1; i < len(shares); i++ {
		decreasing = decreasing && shares[i] < shares[i-1]
	}
	if last := shares[3]; !decreasing || math.Abs(last-0.213) > 0.03 {
		t.Errorf("w1's share run by run after slowing 4x: %.3f, want strictly decreasing to 0.213 ± 0.03", shares)
	}
}

// speedStepShares runs "stepped" on a fresh pool of two equal workers,
// twice as they are and four times with w1 slowed 4x, and returns w1's
// share of the second run and of the last four, and whether any worker's
// sleep overran by more than a tenth. The cold run probes with half the
// loop so that no chunk is a 2 ms sleep, which is routinely off by half.
func speedStepShares(t *testing.T) (even float64, shares []float64, stretched bool) {
	const perIter = 40 * time.Microsecond
	var delay [2]atomic.Int64
	var overran atomic.Bool
	addrs := make([]string, 2)
	for i := range addrs {
		delay[i].Store(int64(perIter))
		srv := &Server{Name: fmt.Sprint("w", i)}
		if err := srv.Handle("stepped", func(lo, hi int, _ float64, _ map[string]string) (float64, map[string]string, error) {
			d := time.Duration(delay[i].Load()) * time.Duration(hi-lo)
			start := time.Now()
			time.Sleep(d)
			if time.Since(start) > d+d/10 {
				overran.Store(true)
			}
			return float64(hi - lo), nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		addr, served := startServer(t, srv)
		t.Cleanup(func() { srv.Close(); <-served })
		addrs[i] = addr
	}
	pool, err := Dial(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	chunks := watchChunks(pool)

	const n = 1000
	share := func() float64 {
		return float64(runChecked(t, pool, "stepped", n, n, RunOptions{ProbeFraction: 0.5})["w1"].Iterations) / n
	}
	share()
	chunks.next()
	even = share()
	delay[1].Store(4 * int64(perIter))
	for i := 0; i < 4; i++ {
		shares = append(shares, share())
	}
	if got := chunks.next(); got != "5 5" {
		t.Fatalf("chunks per worker over five warm runs %q, want 5 5", got)
	}
	return even, shares, overran.Load()
}

func TestClockFloorChunksAreNotSamples(t *testing.T) {
	w := &worker{rates: map[string]float64{}}
	w.observe("t", 500, 0)
	if r := w.rates["t"]; r != 0 {
		t.Fatalf("a chunk under the clock floor created a rate %v", r)
	}
	w.observe("t", 4000, time.Millisecond)
	// 2 iterations under the floor prove 2e6 a second, which is no news.
	w.observe("t", 2, minProbeElapsed/2)
	if r := w.rates["t"]; r != 4e6 {
		t.Fatalf("a chunk under the clock floor moved the rate to %v, want 4e6 kept", r)
	}
	// 4000 under it prove 4e9: the cached rate was too low.
	w.observe("t", 4000, 0)
	if r := w.rates["t"]; r != 4e9 {
		t.Fatalf("rate %v after 4000 iterations under the floor, want lifted to 4e9", r)
	}
}

func TestZeroElapsedWorkerNeverWarmsOrDrifts(t *testing.T) {
	registerTestTasks(t)
	fastAddr, _ := startFaultyWorker(t, "instant", 0, &FaultConfig{ZeroElapsed: true})
	pool, err := Dial(fastAddr, startWorker(t, "slow", 2*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	chunks := watchChunks(pool)

	// A worker that cannot be timed never earns a rate, so every run
	// probes equal chunks, where the floor is a fair stand-in, instead
	// of feeding its share back into its rate.
	const n = 20000
	var first int
	for i := 0; i < 20; i++ {
		by := runChecked(t, pool, "count", n, n, RunOptions{})
		if got := chunks.next(); got != "2 2" {
			t.Fatalf("run %d: chunks per worker %q, want a probing run", i, got)
		}
		inst, rest := by["instant"].Iterations, by["slow"].Iterations
		if i == 0 {
			first = inst
		}
		if inst <= rest || rest == 0 || max(inst-first, first-inst) > n/100 {
			t.Fatalf("run %d: instant worker %d iterations, slow %d, run 0 gave instant %d", i, inst, rest, first)
		}
	}
}

// TestConcurrentRuns is the pool's concurrency guarantee: Runs from
// several goroutines share the workers, and each gets its own answer.
func TestConcurrentRuns(t *testing.T) {
	registerTestTasks(t)
	pool, err := Dial(startWorker(t, "a", 0), startWorker(t, "b", 0))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	const goroutines, runs, n = 4, 200, 10000
	if bad, retries := countConcurrently(pool, goroutines, runs, n, RunOptions{}); bad != 0 || retries != 0 {
		t.Errorf("%d of %d concurrent runs failed or miscounted, %d retries", bad, goroutines*runs, retries)
	}
	if ws := pool.Workers(); len(ws) != 2 {
		t.Errorf("workers after concurrent runs: %v, want both still connected", ws)
	}
}

// TestConcurrentRunsShareOneCasualty drops a worker under concurrent
// Runs: every run holding it sees it dead, all finish on the survivor,
// and the pool re-dials it once, not once per run.
func TestConcurrentRunsShareOneCasualty(t *testing.T) {
	registerTestTasks(t)
	fAddr, _ := startFaultyWorker(t, "reborn", 0, &FaultConfig{DropAfter: 9, DropCount: 1})
	pool, err := Dial(startWorker(t, "steady", 0), fAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	pool.RedialInterval = 2 * time.Millisecond

	const goroutines, runs, n = 4, 25, 2000
	if bad, _ := countConcurrently(pool, goroutines, runs, n, RunOptions{CallTimeout: time.Second, MaxRetries: -1}); bad != 0 {
		t.Errorf("%d of %d concurrent runs failed or miscounted", bad, goroutines*runs)
	}
	awaitWorkers(t, pool, 2)
	time.Sleep(20 * time.Millisecond) // room for a second re-dialer to show
	if ws := pool.Workers(); len(ws) != 2 {
		t.Errorf("workers after the casualty was re-dialed: %v, want steady and reborn once each", ws)
	}
}

// TestHetImplTable is the het_impl table (SNIPPETS.md §1) as a test: the
// same loop under each implementation, one result_correct column
// against the serial gold.
func TestHetImplTable(t *testing.T) {
	RegisterBuiltins()
	const n = 300000
	for _, task := range []string{"pi", "blackscholes"} {
		t.Run(task, func(t *testing.T) {
			serial, _ := lookup(task)
			gold := serial(0, n, 0)

			addrs := []string{startWorker(t, "a", 0), startWorker(t, "b", 0)}
			// Request 4 is the victim's chunk of the third run.
			vAddr, _ := startFaultyWorker(t, "victim", 0, &FaultConfig{DropAfter: 4})
			pool, err := Dial(append(addrs, vAddr)...)
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Close()
			chunks := watchChunks(pool)

			for _, row := range []struct {
				impl, chunks string
				victim       bool
			}{
				{"pool cold", "2 2 2", true},
				{"pool warm", "1 1 1", true},
				{"pool warm, a worker dies mid-run", "2 2", false},
				{"pool warm, survivors", "1 1", true},
			} {
				got, stats, err := pool.Run(task, n, 0, RunOptions{CallTimeout: 5 * time.Second, MaxRetries: -1})
				if err != nil {
					t.Fatalf("%s: %v", row.impl, err)
				}
				if math.Abs(got-gold) > 1e-9*math.Max(1, math.Abs(gold)) {
					t.Errorf("%s: result %.12f, serial %.12f", row.impl, got, gold)
				}
				if iters := iterations(stats); iters != n {
					t.Errorf("%s: workers account for %d iterations, want %d", row.impl, iters, n)
				}
				if c := chunks.next(); c != row.chunks {
					t.Errorf("%s: chunks per worker %q, want %q", row.impl, c, row.chunks)
				}
				if v, ok := statsByName(stats)["victim"]; ok && v.Alive != row.victim {
					t.Errorf("%s: victim alive = %v, want %v", row.impl, v.Alive, row.victim)
				}
			}
		})
	}
}
