package rpc

import (
	"errors"
	"slices"
	"sync"
	"time"

	"hetmp/internal/telemetry"
)

// ErrNoSurvivors is returned (wrapped) by Pool.Run when every worker
// died before the run could finish. Test with errors.Is; the wrapping
// error carries how many iterations were left and the last failure.
var ErrNoSurvivors = errors.New("all workers failed")

// Pool distributes loops over connected workers.
type Pool struct {
	// RedialInterval, when > 0, makes the pool try to re-dial a worker
	// that a Run dropped, in the background, until it answers or the
	// pool is closed; a revived worker rejoins the pool for subsequent
	// runs. Set it before the first Run.
	RedialInterval time.Duration
	// Telemetry, when non-nil, records per-worker chunk spans, cold and
	// warm runs, and fault-tolerance metrics (retries, deadline expiries,
	// worker deaths, redistributed iterations). Set it before Run.
	Telemetry *telemetry.Telemetry

	mu       sync.Mutex
	workers  []*worker
	closed   bool
	done     chan struct{}
	redialWG sync.WaitGroup
	// Runs counted by path, resolved once per Telemetry value.
	runsFor            *telemetry.Telemetry
	coldRuns, warmRuns *telemetry.Counter
}

// WorkerStats reports one worker's measured behaviour for a run.
type WorkerStats struct {
	Name string
	// SpeedRatio is the worker's measured speed relative to the
	// slowest worker (the paper's core speed ratio).
	SpeedRatio float64
	// Iterations executed and accounted (probe + remaining).
	Iterations int
	// Elapsed is total busy time reported by the worker.
	Elapsed time.Duration
	// Retries counts reconnect-and-retry attempts made for this worker
	// during the run.
	Retries int
	// Redistributed counts iterations that were assigned to this
	// worker but re-executed elsewhere after it failed.
	Redistributed int
	// Alive reports whether the worker was still usable when the run
	// ended.
	Alive bool
	// Failure holds the final error for a worker that died mid-run.
	Failure string
}

// Dial connects to worker addresses. All must be reachable; Close the
// pool when done.
func Dial(addrs ...string) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, errors.New("rpc: no worker addresses")
	}
	p := &Pool{done: make(chan struct{})}
	for _, addr := range addrs {
		w, err := dialWorker(addr)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.workers = append(p.workers, w)
	}
	return p, nil
}

// Close hangs up on every worker and stops background re-dialing.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.redialWG.Wait()
		return
	}
	p.closed = true
	ws := p.workers
	p.workers = nil
	p.mu.Unlock()
	close(p.done)
	for _, w := range ws {
		w.closeConn()
	}
	p.redialWG.Wait()
}

// Workers returns the connected worker names.
func (p *Pool) Workers() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	names := make([]string, len(p.workers))
	for i, w := range p.workers {
		names[i] = w.name
	}
	return names
}

// dropWorker removes a dead worker from the pool and, if configured,
// starts a background goroutine that re-dials it for future runs.
func (p *Pool) dropWorker(w *worker) {
	p.mu.Lock()
	i := slices.Index(p.workers, w)
	if i >= 0 {
		p.workers = slices.Delete(p.workers, i, i+1)
	}
	// The WaitGroup Add must happen under the same lock that Close uses
	// to flip closed: if it moved after Unlock, Close could pass its
	// Wait between our closed check and the Add, and the redial
	// goroutine would outlive Close. Only the Run that removed w starts
	// its redialer; a concurrent Run dropping it again finds it gone.
	redial := i >= 0 && p.RedialInterval > 0 && !p.closed
	if redial {
		p.redialWG.Add(1)
	}
	interval := p.RedialInterval
	p.mu.Unlock()
	w.closeConn()
	if redial {
		go p.redialLoop(w.addr, interval)
	}
}

// has reports whether w is still a member: false once Close has begun
// or a concurrent Run has dropped it.
func (p *Pool) has(w *worker) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Contains(p.workers, w)
}

func (p *Pool) redialLoop(addr string, interval time.Duration) {
	defer p.redialWG.Done()
	for {
		select {
		case <-p.done:
			return
		case <-time.After(interval):
		}
		fresh, err := dialWorker(addr)
		if err != nil {
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			fresh.closeConn()
			return
		}
		p.workers = append(p.workers, fresh)
		p.mu.Unlock()
		return
	}
}
