package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hetmp/internal/machine"
	"hetmp/internal/perf"
)

// LocalConfig configures the real-goroutine backend.
type LocalConfig struct {
	// NodeCores assigns cores to logical nodes (e.g. {4, 4} splits the
	// host into two 4-thread nodes). Defaults to one node with
	// GOMAXPROCS cores. The split is logical: there is no DSM cost
	// between local nodes, but it lets the runtime exercise its
	// hierarchy and lets HetProbe measure genuinely different thread
	// pools (e.g. pools throttled by the caller).
	NodeCores []int
	// NodeNames optionally names the logical nodes.
	NodeNames []string
}

// Local executes threads as real goroutines with wall-clock timing. It
// is the backend for using hetmp as an ordinary parallel-for library.
type Local struct {
	specs   []machine.NodeSpec
	start   time.Time
	started atomic.Bool
	elapsed time.Duration
	wg      sync.WaitGroup
}

var _ Cluster = (*Local)(nil)

// NewLocal builds the local backend.
func NewLocal(cfg LocalConfig) (*Local, error) {
	cores := cfg.NodeCores
	if len(cores) == 0 {
		cores = []int{runtime.GOMAXPROCS(0)}
	}
	specs := make([]machine.NodeSpec, len(cores))
	for i, n := range cores {
		if n <= 0 {
			return nil, fmt.Errorf("cluster: local node %d has %d cores", i, n)
		}
		name := fmt.Sprintf("local%d", i)
		if i < len(cfg.NodeNames) {
			name = cfg.NodeNames[i]
		}
		specs[i] = machine.NodeSpec{
			Name:              name,
			Arch:              runtime.GOARCH,
			Cores:             n,
			ClockGHz:          1,
			ScalarIPC:         1,
			VectorOpsPerCycle: 1,
			Cache:             machine.CacheSpec{Levels: 1, LLCBytes: 1 << 20, LineBytes: 64, Ways: 8},
			Mem:               machine.MemSpec{BandwidthBytesPerSec: 1e9, Latency: 100 * time.Nanosecond, Parallelism: 1},
		}
	}
	return &Local{specs: specs}, nil
}

// NodeSpecs implements Cluster.
func (c *Local) NodeSpecs() []machine.NodeSpec {
	out := make([]machine.NodeSpec, len(c.specs))
	copy(out, c.specs)
	return out
}

// Origin implements Cluster.
func (c *Local) Origin() int { return 0 }

// Alloc implements Cluster. Local regions carry no DSM state; accesses
// are counted but free.
func (c *Local) Alloc(name string, size int64, home int) *Region {
	if size <= 0 {
		panic(fmt.Sprintf("cluster: local region %q has size %d", name, size))
	}
	return &Region{name: name, size: size}
}

// NewCell implements Cluster.
func (c *Local) NewCell(name string, home int) Cell { return &localCell{} }

// NewBarrier implements Cluster.
func (c *Local) NewBarrier(parties int) Barrier {
	b := &localBarrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// NewChain implements Cluster: the links are waited in turn.
func (c *Local) NewChain(links ...Link) Chain { return localChain(links) }

// Run implements Cluster.
func (c *Local) Run(master func(Env)) error {
	if !c.started.CompareAndSwap(false, true) {
		return errors.New("cluster: Local.Run called twice")
	}
	//hetmp:allow wallclock -- Local is the real-goroutine coherent backend: its clock IS the host clock (sim backend uses simtime)
	c.start = time.Now()
	master(&localEnv{c: c, node: 0})
	c.wg.Wait()
	//hetmp:allow wallclock -- see above: Local measures real elapsed execution by design
	c.elapsed = time.Since(c.start)
	return nil
}

// Elapsed implements Cluster.
func (c *Local) Elapsed() time.Duration { return c.elapsed }

// DSMFaults implements Cluster: local memory is coherent, so zero.
func (c *Local) DSMFaults() int64 { return 0 }

// localEnv is one goroutine-backed thread.
type localEnv struct {
	c    *Local
	node int
	ctr  perf.Counters
}

var _ Env = (*localEnv)(nil)

func (e *localEnv) Node() int { return e.node }

//hetmp:allow wallclock -- Local's Env.Now is wall time since Run started by design; virtual time lives in the sim backend
func (e *localEnv) Now() time.Duration { return time.Since(e.c.start) }

// Compute implements Env: the caller's body does the real work; only
// the instruction counter advances.
func (e *localEnv) Compute(ops, vec float64) { e.ctr.Instructions += int64(ops) }

// ComputeSerial implements Env.
func (e *localEnv) ComputeSerial(ops, vec float64) { e.ctr.Instructions += int64(ops) }

// Load implements Env: access declarations are free locally.
func (e *localEnv) Load(r *Region, off, length int64) {
	e.ctr.LLCAccesses += (length + 63) / 64
}

// Store implements Env.
func (e *localEnv) Store(r *Region, off, length int64) {
	e.ctr.LLCAccesses += (length + 63) / 64
}

// LoadAt implements Env.
func (e *localEnv) LoadAt(r *Region, offsets []int64, width int) {
	e.ctr.LLCAccesses += int64(len(offsets))
}

// StoreAt implements Env.
func (e *localEnv) StoreAt(r *Region, offsets []int64, width int) {
	e.ctr.LLCAccesses += int64(len(offsets))
}

// Counters implements Env.
func (e *localEnv) Counters() perf.Counters { return e.ctr }

// Spawn implements Env.
func (e *localEnv) Spawn(node int, name string, fn func(Env)) Handle {
	if node < 0 || node >= len(e.c.specs) {
		panic(fmt.Sprintf("cluster: spawn on unknown node %d", node))
	}
	h := &localHandle{done: make(chan struct{})}
	e.c.wg.Add(1)
	go func() {
		defer e.c.wg.Done()
		defer close(h.done)
		fn(&localEnv{c: e.c, node: node})
	}()
	return h
}

type localHandle struct{ done chan struct{} }

// Join implements Handle.
func (h *localHandle) Join(from Env) { <-h.done }

// localBarrier is a reusable generation-counted barrier.
type localBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	gen     uint64
}

// Wait implements Barrier.
func (b *localBarrier) Wait(e Env) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.waiting++
	if b.waiting == b.parties {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return true
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	return false
}

// localChain waits its links one Barrier.Wait at a time.
type localChain []Link

// Wait implements Chain.
func (c localChain) Wait(e Env, from int) int {
	for i := from; i < len(c); i++ {
		last := c[i].Barrier == nil || c[i].Barrier.Wait(e)
		if last && c[i].Stop {
			return i
		}
	}
	return len(c)
}

// localCell is an atomic word.
type localCell struct{ v atomic.Int64 }

func (s *localCell) Load(e Env) int64         { return s.v.Load() }
func (s *localCell) Store(e Env, v int64)     { s.v.Store(v) }
func (s *localCell) Add(e Env, d int64) int64 { return s.v.Add(d) }
func (s *localCell) CompareAndSwap(e Env, old, new int64) bool {
	return s.v.CompareAndSwap(old, new)
}
