package core

import (
	"fmt"
	"sync"
	"testing"

	"hetmp/internal/cluster"
	"hetmp/internal/interconnect"
)

// TestConcurrentRuntimesDynamicDispatch is the regression test for the
// data race on the package-level dynSeq counter: several independent
// runtimes constructing dynamic dispatches at once used to race on the
// unguarded increment (caught by -race). Each runtime must still cover
// its iteration space exactly once.
func TestConcurrentRuntimesDynamicDispatch(t *testing.T) {
	const (
		runtimes = 4
		n        = 2000
	)
	errs := make(chan error, runtimes)
	var wg sync.WaitGroup
	for k := 0; k < runtimes; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cl, err := cluster.NewSim(cluster.SimConfig{
				Platform: smallPlatform(),
				Protocol: interconnect.RDMA56(),
				Seed:     int64(k + 1),
			})
			if err != nil {
				errs <- err
				return
			}
			rt := New(cl, Options{})
			body, check := coverageBody(n)
			err = rt.Run(func(a *App) {
				a.ParallelFor("race-region", n, DynamicSchedule(8), func(e cluster.Env, lo, hi int) {
					e.Compute(float64(hi-lo)*10, 0)
					body(e, lo, hi)
				})
			})
			if err != nil {
				errs <- err
				return
			}
			if covered, dup := check(); covered != n || dup {
				errs <- fmt.Errorf("runtime %d: covered %d of %d (dup=%v)", k, covered, n, dup)
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// scriptCell is a cluster.Cell for driving one worker of a dispatch
// through a scripted interleaving: before its first CompareAndSwap it
// runs onCAS, standing for whatever other threads do meanwhile.
type scriptCell struct {
	v     int64
	onCAS func()
}

func (c *scriptCell) Load(cluster.Env) int64       { return c.v }
func (c *scriptCell) Store(_ cluster.Env, v int64) { c.v = v }
func (c *scriptCell) Add(_ cluster.Env, d int64) int64 {
	c.v += d
	return c.v
}

func (c *scriptCell) CompareAndSwap(_ cluster.Env, old, new int64) bool {
	if f := c.onCAS; f != nil {
		c.onCAS = nil
		f()
	}
	if c.v != old {
		return false
	}
	c.v = new
	return true
}

// spinEnv is the Env of a scripted worker: only the losers' backoff
// (Compute) is reachable.
type spinEnv struct{ cluster.Env }

func (spinEnv) Compute(float64, float64) {}

// A worker that saw its node's pool dry and then wins the refill
// election after another thread has already refilled the pool must
// take from that batch, not overwrite it: every iteration still runs
// exactly once.
func TestDynamicRefillAfterRefillKeepsTheBatch(t *testing.T) {
	const n, chunk, batch = 64, 2, 8
	global, pool := &scriptCell{}, &scriptCell{}
	refill := &scriptCell{}
	// The other thread's refill lands between this worker's dry grab
	// and its election: it takes the first batch and releases the flag.
	refill.onCAS = func() {
		g := global.Add(nil, batch) - batch
		pool.Store(nil, min(g+batch, n)<<32|g)
	}
	d := &dynDispatch{
		chunk:  chunk,
		n:      n,
		global: global,
		pool:   map[int]cluster.Cell{0: pool},
		refill: map[int]cluster.Cell{0: refill},
		batch:  map[int]int{0: batch},
	}
	body, check := coverageBody(n)
	r := &regionRun{body: body}
	d.runWorker(spinEnv{}, workerID{}, nil, r, &workerState{})
	if covered, dup := check(); covered != n || dup {
		t.Fatalf("covered %d of %d iterations (dup=%v): a refill overwrote another's batch", covered, n, dup)
	}
}
