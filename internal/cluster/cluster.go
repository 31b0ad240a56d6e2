// Package cluster abstracts the execution substrate the hetmp runtime
// runs on: a set of nodes, threads placed on those nodes, shared memory
// regions with (possibly) DSM cost, cross-thread synchronization and
// per-thread measurement. Two implementations exist, both here:
//
//   - Sim: deterministic virtual-time simulation of a heterogeneous
//     multi-node platform with page-granularity DSM — the substrate
//     for all paper experiments.
//   - Local: real goroutines on the host machine, for using the
//     library as an ordinary parallel-for runtime.
//
// Package rpc shares work over TCP workers by itself; it does not
// implement Cluster.
package cluster

import (
	"time"

	"hetmp/internal/machine"
	"hetmp/internal/perf"
)

// Env is the execution environment of one thread. All methods must be
// called by the thread that owns the Env.
type Env interface {
	// Node returns the node this thread runs on.
	Node() int
	// Now returns the thread's current time (virtual in simulation,
	// wall-clock in real backends).
	Now() time.Duration
	// Compute accounts ops operations of a kernel whose vectorizable
	// fraction is vec, advancing the thread's clock accordingly.
	Compute(ops, vec float64)
	// ComputeSerial is Compute at the node's single-threaded boost
	// clock (serial application phases).
	ComputeSerial(ops, vec float64)
	// Load declares a read of [off, off+length) of region r.
	Load(r *Region, off, length int64)
	// Store declares a write of [off, off+length) of region r.
	Store(r *Region, off, length int64)
	// LoadAt declares reads of `width` bytes at each offset (irregular
	// gathers through indirection arrays).
	LoadAt(r *Region, offsets []int64, width int)
	// StoreAt declares writes of `width` bytes at each offset.
	StoreAt(r *Region, offsets []int64, width int)
	// Counters returns this thread's cumulative counters.
	Counters() perf.Counters
	// Spawn starts a new thread on the given node (paying thread
	// migration cost if the node differs from the caller's).
	Spawn(node int, name string, fn func(Env)) Handle
}

// Handle joins a spawned thread.
type Handle interface {
	// Join blocks the calling thread until the spawned thread finishes,
	// advancing the caller's clock to at least the finish time.
	Join(from Env)
}

// Barrier is a reusable rendezvous.
type Barrier interface {
	// Wait blocks until all parties arrive; reports whether the caller
	// was the last to arrive (used for leader election).
	Wait(e Env) bool
}

// Link is one barrier of a Chain. Stop ends the walk at this barrier
// when the walking thread is its last arrival. A nil Barrier stands for
// a rendezvous whose only party is the walker: the walker is always its
// last arrival, and arriving costs nothing.
type Link struct {
	Barrier Barrier
	Stop    bool
}

// Chain is a fixed sequence of barriers a thread waits on in order
// without running code in between. Walking it behaves exactly as
// Barrier.Wait on each link in turn; the simulated backend parks the
// thread once for the whole walk instead of once per barrier.
type Chain interface {
	// Wait waits on the links from index from on, in order, and
	// returns the index of the first stop link at which the caller was
	// the last arrival, or the number of links if there was none.
	Wait(e Env, from int) int
}

// Cell is an 8-byte shared word. In the simulated backend it lives on a
// DSM page, so cross-node operations pay coherence costs — this is how
// the runtime's global counters and flags generate the traffic the
// paper's thread hierarchy is designed to minimize.
type Cell interface {
	// Load returns the current value (a read access).
	Load(e Env) int64
	// Store sets the value (a write access).
	Store(e Env, v int64)
	// Add atomically adds delta and returns the new value.
	Add(e Env, delta int64) int64
	// CompareAndSwap atomically replaces old with new if the value
	// equals old.
	CompareAndSwap(e Env, old, new int64) bool
}

// Region is an allocation of shared bytes. The concrete meaning depends
// on the backend; the simulated backend maps it onto DSM pages and LLC
// address space.
type Region struct {
	name string
	size int64
	// backend-specific state:
	sim *simRegion
}

// Name returns the region's debug name.
func (r *Region) Name() string { return r.name }

// Size returns the region's size in bytes.
func (r *Region) Size() int64 { return r.size }

// Cluster is a platform on which the runtime executes applications.
type Cluster interface {
	// NodeSpecs describes the nodes.
	NodeSpecs() []machine.NodeSpec
	// Origin is the node applications start on (serial phases run
	// there; the master thread is pinned there, reproducing the
	// Popcorn Linux constraint).
	Origin() int
	// Alloc creates a shared region homed at the given node.
	Alloc(name string, size int64, home int) *Region
	// NewCell creates a shared word homed at the given node.
	NewCell(name string, home int) Cell
	// NewBarrier creates a rendezvous for the given number of threads.
	NewBarrier(parties int) Barrier
	// NewChain creates a chain over barriers this cluster created.
	NewChain(links ...Link) Chain
	// Run executes master as the application's initial thread on the
	// origin node and blocks until every spawned thread finishes.
	Run(master func(Env)) error
	// Elapsed returns the application makespan after Run returns.
	Elapsed() time.Duration
	// DSMFaults returns total remote page faults so far (0 for
	// backends without DSM).
	DSMFaults() int64
}
