// Package simtime implements a deterministic virtual-time execution
// engine used by the simulated cluster backend.
//
// The engine runs a set of cooperating actors ("procs"). Exactly one proc
// executes at any real-time instant; the engine always resumes the
// runnable proc with the smallest virtual clock (ties broken by spawn
// order), so a simulation run is fully deterministic regardless of the
// host's goroutine scheduling. Procs advance their own clocks explicitly
// (Advance), block on synchronization objects (Barrier, Gate) and consume
// shared FIFO resources (Resource) such as interconnect links and memory
// channels.
//
// Because execution is serialized, proc bodies may freely access shared
// Go data structures without locks, provided they do not touch them from
// goroutines outside the engine.
//
// # Switch protocol
//
// Each proc body runs as a runtime coroutine (iter.Pull), so a context
// switch is a direct coroutine switch rather than a trip through the Go
// scheduler. Run is the only resumer: it pops the earliest runnable proc
// and resumes it. A proc that parks yields back to Run, which resumes
// the next one. The engine caches the earliest runnable clock
// (nextClock), so the check in an Advance chain is two loads and a
// compare, and a proc that is still earliest keeps running without
// touching the heap. Advance and AdvanceTo park only when another proc
// is strictly earlier, and a blocking proc is not runnable, so neither
// can find itself earliest in park. Only Yield can: park then pops the
// proc itself and it keeps executing with no switch. No code outside
// the tests calls Yield, so in a simulation every park is a switch.
//
// A proc waiting on a Chain parks once for the whole walk. Run pops it
// exactly when it would have resumed a proc calling Barrier.Wait on
// each link in turn, and performs the next arrival itself, with the
// same blocking, release and AdvanceTo rule that Wait applies. So the
// arrivals, releases, heap operations and MaxNow updates are those of
// the sequential waits, and the coroutine is resumed only when the walk
// ends. A team worker's end-of-region plus next-start rendezvous is one
// such walk: one resume per region instead of one per barrier.
//
// Proc.Walk does the same for a short list of time steps, each an
// Advance or a Resource.Use: the steps run on the proc's coroutine
// until one must yield, the engine holds the rest, and Run takes each
// one when it pops the proc, where the sequential call would have been
// resumed. A step raises the clock past every parked proc, so Run
// records it in MaxNow whenever it requeues the walker, as park would.
// A DSM fault's inline, owner-service and wire steps are one walk.
//
// The runnable heap holds (clock, id) slots with no pointers, so a sift
// compares keys without touching the procs.
//
// When Run ends with live procs blocked it stops every live coroutine:
// the blocked proc's park unwinds its body without finishing it, so no
// goroutine outlives the run. A chained proc blocked mid-walk is parked
// in the same place and unwinds the same way. A step walk never blocks.
package simtime

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"time"
)

// procState describes where a proc is in its lifecycle.
type procState uint8

const (
	stateRunnable procState = iota + 1
	stateRunning
	stateBlocked
	stateDone
)

// noProcClock is the cached nextClock value when the runnable heap is
// empty: no proc clock can reach it, so the yield check never fires.
const noProcClock = time.Duration(math.MaxInt64)

// errStopped is the panic value park raises when Run has stopped the
// proc's coroutine; the proc's own recover swallows it without
// finishing the proc.
var errStopped = errors.New("simtime: proc stopped")

// Proc is a simulated thread of execution. All methods must be called
// from within the proc's own body function while it is running.
type Proc struct {
	eng *Engine
	id  int32 // spawn index: e.procs[id] == p
	// at is the next link of chain to arrive at while a chain walk is in
	// progress, and the walk's result once it has ended. While a step
	// walk is parked it is the walk's slot in the engine's held table.
	at       int32
	state    procState
	stepping bool // a step walk is parked: Run takes its held steps
	name     string
	clock    time.Duration
	chain    *Chain // the chain being walked, nil when none

	// The proc's coroutine: Run calls next to resume the body, the body
	// calls yield (via park) to hand control back, and stop unwinds a
	// body that will never be resumed.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	waiters []*Proc // procs blocked in Join on this proc
}

// ID returns the proc's unique spawn-ordered identifier.
func (p *Proc) ID() int { return int(p.id) }

// Name returns the proc's debug name.
func (p *Proc) Name() string { return p.name }

// Now returns the proc's current virtual time.
func (p *Proc) Now() time.Duration { return p.clock }

// Advance moves the proc's virtual clock forward by d. Negative d is
// ignored. If another runnable proc is strictly earlier, control yields
// to it.
func (p *Proc) Advance(d time.Duration) {
	if d > 0 {
		p.clock += d
	}
	if p.eng.nextClock < p.clock {
		p.yieldNow()
	}
}

// AdvanceTo moves the proc's virtual clock to at least t.
func (p *Proc) AdvanceTo(t time.Duration) {
	if t > p.clock {
		p.clock = t
	}
	if p.eng.nextClock < p.clock {
		p.yieldNow()
	}
}

// Yield gives other runnable procs with clocks at or before this proc's
// clock a chance to run. It is rarely needed directly: Advance and the
// synchronization objects yield on their own.
func (p *Proc) Yield() {
	p.yieldNow()
}

// yieldNow requeues p and parks. If p is still the earliest runnable
// proc it keeps executing without a switch.
func (p *Proc) yieldNow() {
	p.eng.requeue(p)
	p.park()
}

// block parks the proc until another proc wakes it via unblock.
func (p *Proc) block() {
	p.state = stateBlocked
	p.park()
}

// park cedes control. When p is still the earliest runnable proc it
// pops itself and returns immediately; otherwise it yields to Run,
// which resumes the earliest proc, and returns when Run resumes p.
func (p *Proc) park() {
	e := p.eng
	if p.clock > e.maxNow {
		e.maxNow = p.clock
	}
	if len(e.runnable) > 0 && e.runnable[0].id == p.id {
		e.pop()
		p.state = stateRunning
		return
	}
	if !p.yield(struct{}{}) {
		panic(errStopped)
	}
}

// unblock makes a blocked proc runnable, advancing its clock to at least
// at. It must be called from a running proc or from the engine.
func (p *Proc) unblock(at time.Duration) {
	if p.state != stateBlocked {
		panic(fmt.Sprintf("simtime: unblock of proc %q in state %d", p.name, p.state))
	}
	if at > p.clock {
		p.clock = at
	}
	p.eng.requeue(p)
}

// Engine owns the procs and drives them in deterministic order.
type Engine struct {
	procs     []*Proc       // indexed by proc id
	runnable  []slot        // binary min-heap of runnable procs
	nextClock time.Duration // runnable[0].clock, or noProcClock when empty
	live      int           // procs not yet done
	held      *heldTable    // parked step walks' steps; nil outside a run's walks
	seed      int64
	rng       *rand.Rand // built from seed by the first Rand call
	maxNow    time.Duration
	running   bool
	firstErr  error // first proc panic, in completion order
	deadlock  error // non-nil when the run ended with live procs blocked
}

// NewEngine returns an engine whose jitter source is seeded with seed,
// so runs are reproducible.
func NewEngine(seed int64) *Engine {
	return &Engine{nextClock: noProcClock, seed: seed}
}

// Rand exposes the engine's deterministic random source (used for
// optional interconnect jitter). The source is built on the first
// call, so an engine that never asks for it never pays for it.
func (e *Engine) Rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.seed))
	}
	return e.rng
}

// MaxNow returns the largest virtual clock observed across all procs,
// i.e. the makespan of the simulation so far.
func (e *Engine) MaxNow() time.Duration { return e.maxNow }

// Go spawns a new proc whose clock starts at start. It may be called
// before Run, or from within a running proc (in which case start is
// typically the spawner's current time).
func (e *Engine) Go(name string, start time.Duration, fn func(*Proc)) *Proc {
	p := &Proc{
		eng:   e,
		id:    int32(len(e.procs)),
		name:  name,
		clock: start,
	}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			var err error
			if r := recover(); r != nil {
				if r == errStopped {
					return
				}
				err = fmt.Errorf("simtime: proc %q panicked: %v", p.name, r)
			}
			p.finish(err)
		}()
		fn(p)
	})
	e.live++
	e.procs = append(e.procs, p)
	e.requeue(p)
	return p
}

// finish marks the proc done, wakes joiners and records err (the
// body's panic, if any) when it is the first in completion order. The
// body then returns, ending its coroutine, and Run resumes the next
// runnable proc.
func (p *Proc) finish(err error) {
	e := p.eng
	p.state = stateDone
	e.live--
	if p.clock > e.maxNow {
		e.maxNow = p.clock
	}
	if err != nil && e.firstErr == nil {
		e.firstErr = err
	}
	for _, w := range p.waiters {
		w.unblock(p.clock)
	}
	p.waiters = nil
}

// Join blocks the calling proc until target finishes, then advances the
// caller's clock to at least the target's finish time.
func (p *Proc) Join(target *Proc) {
	if target.state == stateDone {
		p.AdvanceTo(target.clock)
		return
	}
	target.waiters = append(target.waiters, p)
	p.block()
}

// ErrDeadlock is returned by Run when live procs remain but none are
// runnable.
var ErrDeadlock = errors.New("simtime: deadlock: live procs remain but none are runnable")

// Run drives the simulation until every proc has finished. It returns
// the first proc panic converted to an error, or ErrDeadlock (wrapped
// with a proc dump) if all remaining procs are blocked. A panic that
// leaves other procs blocked returns both, the panic first.
func (e *Engine) Run() error {
	if e.running {
		return errors.New("simtime: engine already running")
	}
	e.running = true
	defer func() { e.running = false }()

	e.firstErr = nil
	for len(e.runnable) > 0 {
		q := e.pop()
		q.state = stateRunning
		if q.clock > e.maxNow {
			e.maxNow = q.clock
		}
		if q.chain != nil && !q.walkChain() || q.stepping && !q.walkHeld() {
			continue // the walk blocked or requeued q
		}
		q.next()
	}
	if e.held != nil {
		// Every walk has ended: a step walker never blocks.
		heldTables.Put(e.held)
		e.held = nil
	}
	if e.live > 0 {
		err := fmt.Errorf("%w\n%s", ErrDeadlock, e.dump())
		for _, p := range e.procs {
			if p.state != stateDone {
				p.chain = nil
				p.stop()
			}
		}
		return errors.Join(e.firstErr, err)
	}
	return e.firstErr
}

// dump renders the blocked-proc table for deadlock diagnostics.
func (e *Engine) dump() string {
	s := ""
	for _, p := range e.procs { // in id order
		if p.state == stateDone {
			continue
		}
		s += fmt.Sprintf("  proc %d %q state=%d clock=%s\n", p.id, p.name, p.state, p.clock)
	}
	return s
}

// requeue inserts p into the runnable heap.
func (e *Engine) requeue(p *Proc) {
	p.state = stateRunnable
	e.push(p)
}

// slot is one runnable proc in the heap, keyed inline by (clock, id) so
// that sifting never dereferences a proc. A runnable proc's clock does
// not change until it is popped, so the key stays valid.
type slot struct {
	clock time.Duration
	id    int32
}

func (a slot) less(b slot) bool {
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	return a.id < b.id
}

func (e *Engine) push(p *Proc) {
	if p.clock < e.nextClock {
		e.nextClock = p.clock
	}
	s := slot{p.clock, p.id}
	h := append(e.runnable, s)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = s
	e.runnable = h
}

func (e *Engine) pop() *Proc {
	h := e.runnable
	top := h[0]
	last := len(h) - 1
	s := h[last]
	h = h[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(s) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if last > 0 {
		h[i] = s
		e.nextClock = h[0].clock
	} else {
		e.nextClock = noProcClock
	}
	e.runnable = h
	return e.procs[top.id]
}
