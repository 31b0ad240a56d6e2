package rpc

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"hetmp/internal/apportion"
	"hetmp/internal/telemetry"
)

// Fault-tolerance defaults for RunOptions zero values.
const (
	// DefaultCallTimeout bounds a single chunk RPC when
	// RunOptions.CallTimeout is zero. Generous, because a remainder
	// chunk can be large — but finite, so a hung worker can never hang
	// a run forever.
	DefaultCallTimeout = 2 * time.Minute
	// DefaultMaxRetries is how often a failed call is re-dialed and
	// re-issued before the worker is declared dead.
	DefaultMaxRetries = 2
	// DefaultRetryBackoff is the delay before the first retry; it
	// doubles on each subsequent attempt.
	DefaultRetryBackoff = 25 * time.Millisecond
	// minProbeElapsed floors a measured probe duration. A fast task on
	// a coarse clock can report elapsed == 0; without the floor that
	// worker would keep the default speed while slower workers get
	// huge 1/elapsed values, starving the *fastest* worker.
	minProbeElapsed = time.Microsecond
	// rateAlpha is the weight of the newest chunk in a worker's cached
	// rate (the weight core's probe cache gives its newest probe).
	rateAlpha = 0.7
)

// RunOptions tunes a distributed loop.
type RunOptions struct {
	// ProbeFraction is the share of iterations a cold run spends
	// measuring worker speeds (default 0.1, as in the paper).
	ProbeFraction float64
	// Combine merges partial results (default: sum). It must be
	// associative and insensitive to partial ordering.
	Combine func(a, b float64) float64
	// CallTimeout bounds each chunk RPC (send + execute + receive). A
	// call exceeding it counts as a worker failure. Zero selects
	// DefaultCallTimeout; negative disables deadlines.
	CallTimeout time.Duration
	// MaxRetries is how many times a failed chunk call is retried
	// against the same worker (each retry re-dials, since a failed gob
	// stream cannot be reused). Zero selects DefaultMaxRetries;
	// negative disables retries.
	MaxRetries int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt. Zero selects DefaultRetryBackoff.
	RetryBackoff time.Duration
}

// span is a contiguous iteration range.
type span struct{ lo, hi int }

func spanCount(spans []span) int {
	c := 0
	for _, sp := range spans {
		c += sp.hi - sp.lo
	}
	return c
}

// observe folds one completed chunk into w's cached rate for task. A
// chunk timed below the clock floor is not a sample: floored, its rate
// would scale with the chunk it was handed, and a larger share would
// earn a larger share. It is still a bound, at least iters per floor,
// and lifts a cached rate below it: a worker whose share has shrunk
// under the floor would otherwise be timed only when it stalls.
func (w *worker) observe(task string, iters int, elapsed time.Duration) {
	rate := float64(iters) / max(elapsed, minProbeElapsed).Seconds()
	w.mu.Lock()
	defer w.mu.Unlock()
	old := w.rates[task]
	switch {
	case elapsed < minProbeElapsed && (old == 0 || rate <= old):
		return
	case elapsed >= minProbeElapsed && old > 0:
		rate = rateAlpha*rate + (1-rateAlpha)*old
	}
	w.rates[task] = rate
}

// Run distributes a registered task's n iterations across the pool and
// combines the partials. A cold run (some worker has no cached rate for
// task: its first run, or a re-dialed worker) probes equal chunks on
// every worker in parallel, derives speed ratios and splits the
// remainder proportionally (largest-remainder apportionment). Every
// completed chunk feeds its worker's cached rate, so every other run is
// warm: one batch, one round trip, split by the cached rates. Workers
// that time out, error, or disconnect are retried, then dropped, with
// their unfinished iterations redistributed across the survivors; the
// run fails only when no workers remain. It returns the combined result
// and per-worker statistics (including casualties).
//
// Run may be called from several goroutines at once: a worker serves
// one chunk at a time, each run accounts only its own responses, all
// feed one rate cache, and a worker one run drops is dead to them all.
func (p *Pool) Run(task string, n int, arg float64, opts RunOptions) (float64, []WorkerStats, error) {
	p.mu.Lock()
	workers := slices.Clone(p.workers)
	if p.runsFor != p.Telemetry {
		p.runsFor = p.Telemetry
		p.coldRuns = p.Telemetry.Metrics().Counter("hetmp_rpc_runs_total", telemetry.L("path", "cold"))
		p.warmRuns = p.Telemetry.Metrics().Counter("hetmp_rpc_runs_total", telemetry.L("path", "warm"))
	}
	tel, coldRuns, warmRuns := p.Telemetry, p.coldRuns, p.warmRuns
	p.mu.Unlock()
	if len(workers) == 0 {
		return 0, nil, errors.New("rpc: pool has no workers")
	}
	if opts.ProbeFraction <= 0 || opts.ProbeFraction >= 1 {
		opts.ProbeFraction = 0.1
	}
	combine := opts.Combine
	if combine == nil {
		combine = func(a, b float64) float64 { return a + b }
	}
	if opts.CallTimeout == 0 {
		opts.CallTimeout = DefaultCallTimeout
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = DefaultMaxRetries
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = DefaultRetryBackoff
	}

	r := &run{
		pool:    p,
		task:    task,
		arg:     arg,
		timeout: max(opts.CallTimeout, 0), // a negative knob means off
		retries: max(opts.MaxRetries, 0),
		backoff: opts.RetryBackoff,
		workers: workers,
		speeds:  make([]float64, len(workers)),
		stats:   make([]WorkerStats, len(workers)),
		tel:     make([]*workerTel, len(workers)),
		tracer:  tel.Tracer(),
	}
	for i, w := range workers {
		r.stats[i] = WorkerStats{Name: w.name, Alive: true}
		r.speeds[i], r.tel[i] = w.begin(task, tel, i+1)
	}
	runs, probeFrac := warmRuns, 0.0
	if slices.Contains(r.speeds, 0) {
		// Cold. Cached and probed rates do not mix: the probe measures
		// every worker, on equal chunks.
		runs, probeFrac = coldRuns, opts.ProbeFraction
		for i := range r.speeds {
			r.speeds[i] = 1
		}
	}
	runs.Inc()
	return r.execute(n, probeFrac, combine)
}

// run is the per-invocation state of Pool.Run.
type run struct {
	pool    *Pool
	task    string
	arg     float64
	timeout time.Duration
	retries int
	backoff time.Duration
	workers []*worker
	speeds  []float64
	stats   []WorkerStats
	// tel is worker i's metric handles, so per-chunk and per-retry
	// accounting never takes the registry mutex.
	tel []*workerTel
	// tracer is nil, a valid nop, when the pool has no telemetry.
	tracer *telemetry.Tracer
}

// workerTel is one worker's metric handles and trace timeline (one
// process, one thread per worker), resolved once per (worker,
// telemetry, track), not per run (hetmplint telemetryhandle contract).
// Every handle is a valid nop when the pool has no telemetry.
type workerTel struct {
	owner     *telemetry.Telemetry
	track     telemetry.Track
	iters     *telemetry.Counter
	chunks    *telemetry.Histogram
	retries   *telemetry.Counter
	deadlines *telemetry.Counter
	deaths    *telemetry.Counter
	redist    *telemetry.Counter
}

// begin returns what a Run needs of w: its cached rate for task (0 when
// it has none) and its handles for pool telemetry t and trace thread
// tid, resolved, and the track named, only when either has changed.
func (w *worker) begin(task string, t *telemetry.Telemetry, tid int) (float64, *workerTel) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.tel == nil || w.tel.owner != t || w.tel.track.Tid != tid {
		m, lbl := t.Metrics(), telemetry.L("worker", w.name)
		w.tel = &workerTel{
			owner:     t,
			track:     telemetry.Track{Pid: 0, Tid: tid},
			iters:     m.Counter("hetmp_rpc_iterations_total", lbl),
			chunks:    m.Histogram("hetmp_rpc_chunk_seconds", lbl),
			retries:   m.Counter("hetmp_rpc_retries_total", lbl),
			deadlines: m.Counter("hetmp_rpc_deadline_expiries_total", lbl),
			deaths:    m.Counter("hetmp_rpc_worker_deaths_total", lbl),
			redist:    m.Counter("hetmp_rpc_redistributed_iterations_total", lbl),
		}
		t.Tracer().NameTrack(w.tel.track, "pool", "worker "+w.name)
	}
	return w.rates[task], w.tel
}

// chunkDone is one successfully executed and accounted span.
type chunkDone struct {
	sp      span
	partial float64
	elapsed time.Duration
}

// workerOutcome is what one worker produced for one batch: completed
// chunks, plus any spans it failed to finish (to be redistributed).
type workerOutcome struct {
	done   []chunkDone
	failed []span
	err    error
}

func (r *run) execute(n int, probeFrac float64, combine func(a, b float64) float64) (float64, []WorkerStats, error) {
	nw := len(r.workers)
	total, first := 0.0, true
	acc := func(v float64) {
		if first {
			total, first = v, false
			return
		}
		total = combine(total, v)
	}
	var lastErr error
	// account folds one worker's batch outcome into the run: partials
	// are combined exactly once per completed span; a failure kills
	// the worker and earmarks its unfinished spans for redistribution.
	account := func(i int, out workerOutcome, probe bool) {
		for _, d := range out.done {
			acc(d.partial)
			r.stats[i].Iterations += d.sp.hi - d.sp.lo
			r.stats[i].Elapsed += d.elapsed
			r.workers[i].observe(r.task, d.sp.hi-d.sp.lo, d.elapsed)
			if probe {
				r.speeds[i] = 1 / max(d.elapsed, minProbeElapsed).Seconds()
			}
		}
		if out.err != nil {
			lastErr = out.err
			r.fail(i, out.err, spanCount(out.failed))
		}
	}

	var pending []span
	base := 0
	chunk := int(float64(n) * probeFrac / float64(nw))
	if chunk >= 1 && n >= 2*nw*chunk {
		// Probing period: a constant chunk per worker, concurrently.
		assigns := make([][]span, nw)
		for i := range assigns {
			assigns[i] = []span{{lo: base, hi: base + chunk}}
			base += chunk
		}
		outs := r.runBatch(assigns)
		for i, out := range outs {
			account(i, out, true)
			pending = append(pending, out.failed...)
		}
	}
	if base < n {
		pending = append(pending, span{lo: base, hi: n})
	}

	// Distribute pending spans proportionally to measured speeds,
	// re-apportioning after every casualty until nothing is left.
	for len(pending) > 0 {
		live := r.liveIndices()
		if len(live) == 0 {
			return 0, r.stats, fmt.Errorf("rpc: %d iterations unrecoverable, %w: %w",
				spanCount(pending), ErrNoSurvivors, lastErr)
		}
		assigns := r.apportionSpans(pending, live)
		pending = nil
		outs := r.runBatch(assigns)
		for i, out := range outs {
			account(i, out, false)
			pending = append(pending, out.failed...)
		}
	}

	// Normalize speed ratios against the slowest surviving worker.
	slowest := 0.0
	for i, s := range r.speeds {
		if r.stats[i].Alive && (slowest == 0 || s < slowest) {
			slowest = s
		}
	}
	for i := range r.stats {
		if slowest > 0 {
			r.stats[i].SpeedRatio = r.speeds[i] / slowest
		}
	}
	return total, r.stats, nil
}

// fail marks worker i dead for this run and drops it from the pool.
func (r *run) fail(i int, err error, lost int) {
	r.stats[i].Alive = false
	r.stats[i].Failure = err.Error()
	r.stats[i].Redistributed += lost
	r.tel[i].deaths.Inc()
	r.tel[i].redist.Add(int64(lost))
	r.pool.dropWorker(r.workers[i])
}

func (r *run) liveIndices() []int {
	var live []int
	for i := range r.stats {
		if r.stats[i].Alive {
			live = append(live, i)
		}
	}
	return live
}

// apportionSpans splits the pending spans across live workers
// proportionally to their measured speeds, using largest-remainder
// apportionment so every iteration is assigned exactly once.
func (r *run) apportionSpans(pending []span, live []int) [][]span {
	assigns := make([][]span, len(r.workers))
	weights := make([]float64, len(live))
	for j, i := range live {
		weights[j] = r.speeds[i]
	}
	counts := apportion.Split(spanCount(pending), weights)
	j := 0
	for _, sp := range pending {
		lo := sp.lo
		for lo < sp.hi {
			for j < len(live) && counts[j] == 0 {
				j++
			}
			if j >= len(live) {
				// Defensive: Split always covers the full count, but
				// never drop iterations if that invariant breaks.
				last := live[len(live)-1]
				assigns[last] = append(assigns[last], span{lo: lo, hi: sp.hi})
				break
			}
			take := min(counts[j], sp.hi-lo)
			assigns[live[j]] = append(assigns[live[j]], span{lo: lo, hi: lo + take})
			counts[j] -= take
			lo += take
		}
	}
	return assigns
}

// runBatch executes each worker's assigned spans: workers run
// concurrently, a worker's own spans sequentially (its connection
// carries one request at a time). Outcome slots are per-worker, so no
// locking is needed; the WaitGroup orders all writes before the reads
// in account().
func (r *run) runBatch(assigns [][]span) []workerOutcome {
	outs := make([]workerOutcome, len(r.workers))
	var wg sync.WaitGroup
	for i, spans := range assigns {
		if len(spans) == 0 {
			continue
		}
		if !r.stats[i].Alive {
			outs[i].failed = spans
			continue
		}
		wg.Add(1)
		go func(i int, spans []span) {
			defer wg.Done()
			for k, sp := range spans {
				chunkStart := r.tracer.WallNow()
				resp, err := r.callChunk(i, sp)
				if err != nil {
					outs[i].err = err
					outs[i].failed = append([]span(nil), spans[k:]...)
					return
				}
				if r.tracer != nil {
					r.tracer.Emit(r.tel[i].track, "chunk "+r.task, chunkStart, r.tracer.WallNow(),
						telemetry.Arg{Key: "lo", Val: fmt.Sprint(sp.lo)},
						telemetry.Arg{Key: "hi", Val: fmt.Sprint(sp.hi)})
					r.tel[i].iters.Add(int64(sp.hi - sp.lo))
					r.tel[i].chunks.Observe(time.Duration(resp.ElapsedNs))
				}
				outs[i].done = append(outs[i].done, chunkDone{
					sp:      sp,
					partial: resp.Partial,
					elapsed: time.Duration(resp.ElapsedNs),
				})
			}
		}(i, spans)
	}
	wg.Wait()
	return outs
}

// callChunk runs one span on worker i with deadline, bounded retry,
// and exponential backoff. Transport failures (timeout, disconnect,
// corrupt frame) re-dial and re-issue — safe because tasks are pure
// and only the final decoded response is accounted. Application
// errors reported by the worker are returned immediately: the worker
// answered, retrying the same request cannot help.
func (r *run) callChunk(i int, sp span) (response, error) {
	w := r.workers[i]
	w.xmu.Lock()
	defer w.xmu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= r.retries; attempt++ {
		if attempt > 0 {
			if !r.pool.has(w) {
				// Never re-dial a worker the pool no longer holds (Close,
				// or a concurrent Run dropped it): the fresh connection
				// would outlive the pool.
				return response{}, fmt.Errorf("rpc: %s: left the pool during retry: %w", w.name, lastErr)
			}
			time.Sleep(r.backoff << (attempt - 1))
			r.stats[i].Retries++
			r.tel[i].retries.Inc()
			fresh, err := dialWorker(w.addr)
			if err != nil {
				lastErr = err
				continue
			}
			w.adopt(fresh)
			if !r.pool.has(w) {
				// It may have left between our check and the adopt;
				// make sure the fresh connection dies either way.
				w.closeConn()
				return response{}, fmt.Errorf("rpc: %s: left the pool during retry: %w", w.name, lastErr)
			}
		}
		resp, err := w.call(r.task, sp.lo, sp.hi, r.arg, nil, false, r.timeout)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		var re *remoteError
		if errors.As(err, &re) {
			return response{}, err
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			r.tel[i].deadlines.Inc()
		}
		w.closeConn()
	}
	return response{}, lastErr
}
