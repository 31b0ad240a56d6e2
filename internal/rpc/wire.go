// Package rpc distributes work-sharing loops across real machines over
// TCP — the substitution path for running the hetmp scheduler on real
// hardware ("mimic the scheduler over RPC"). Workers register task
// functions by name; a client pool probes each worker with a fixed
// chunk of iterations (HetProbe's measurement idea), derives per-worker
// speed ratios, and distributes the remaining iterations
// proportionally, as the paper's static-CSR fallback does after
// probing. Like HetProbe it keeps what it measured (a probe cache of
// per-worker rates), so only a task's first run pays the probe.
//
// Unlike the simulated backend there is no transparent DSM here: tasks
// must be pure functions of their iteration range (plus a scalar
// argument), mirroring how offload-style systems ship closed work
// descriptions. Partial results are combined with the task's associative
// combiner.
//
// # Fault tolerance
//
// The pool treats worker failure as a scheduler event, not a fatal
// error. Every chunk RPC carries a deadline; a call that times out,
// hits a transport error, or returns a corrupt frame is retried a
// bounded number of times with exponential backoff (each retry
// re-dials, because a broken gob stream cannot be resynchronized).
// When retries are exhausted the worker is dropped from the pool and
// its unfinished spans are re-apportioned across the survivors —
// legal because tasks are pure, so re-executing a range yields the
// same partial. Chunks are therefore executed at least once but
// *accounted* exactly once: only decoded, ID-matched responses are
// combined, so a lost response that was actually computed never
// double-counts. A run fails only when every worker is gone.
package rpc

import (
	"fmt"
	"sync"
)

// Task computes a partial result over iterations [lo, hi). arg is an
// opaque scalar parameter (e.g. a sweep setting). Tasks must be pure:
// the pool may re-execute ranges on failure.
type Task func(lo, hi int, arg float64) float64

// registry holds the tasks a worker can execute. Both workers and any
// in-process fallbacks share it.
type registry struct {
	mu    sync.RWMutex
	tasks map[string]Task
}

var defaultRegistry = &registry{tasks: make(map[string]Task)}

// Register makes a task available to workers under the given name.
// Registering the same name twice panics (it indicates an init-order
// bug).
func Register(name string, t Task) {
	defaultRegistry.mu.Lock()
	defer defaultRegistry.mu.Unlock()
	if _, dup := defaultRegistry.tasks[name]; dup {
		panic(fmt.Sprintf("rpc: task %q registered twice", name))
	}
	defaultRegistry.tasks[name] = t
}

func lookup(name string) (Task, bool) {
	defaultRegistry.mu.RLock()
	defer defaultRegistry.mu.RUnlock()
	t, ok := defaultRegistry.tasks[name]
	return t, ok
}

// request is one chunk execution order.
type request struct {
	ID   uint64
	Task string
	Lo   int
	Hi   int
	Arg  float64
	// Meta carries opaque per-request key/value pairs for handlers
	// registered with HandleMeta (job submissions riding the task
	// transport). Nil for plain task execution; gob omits it then, so
	// the wire format of the pure-task protocol is unchanged.
	Meta map[string]string
	// Close tells the worker to hang up after replying.
	Close bool
}

// response is a chunk result.
type response struct {
	ID        uint64
	Partial   float64
	ElapsedNs int64
	// Meta carries handler-supplied key/value results back to the
	// caller (see MetaTask). Nil for plain task execution.
	Meta map[string]string
	Err  string
}

// hello is the worker's greeting.
type hello struct {
	Name    string
	Cores   int
	Version int
}

const protocolVersion = 1
