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
// When Run ends on a deadlock it stops every live coroutine: the
// blocked proc's park unwinds its body without finishing it, so no
// goroutine outlives the run.
package simtime

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"sort"
	"time"
)

// procState describes where a proc is in its lifecycle.
type procState int

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
	eng   *Engine
	id    int
	name  string
	clock time.Duration
	state procState

	// The proc's coroutine: Run calls next to resume the body, the body
	// calls yield (via park) to hand control back, and stop unwinds a
	// body that will never be resumed.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	waiters []*Proc // procs blocked in Join on this proc

	err error // panic captured from the body, if any
}

// ID returns the proc's unique spawn-ordered identifier.
func (p *Proc) ID() int { return p.id }

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
	if len(e.runnable) > 0 && e.runnable[0] == p {
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
	procs     []*Proc
	runnable  procHeap
	nextClock time.Duration // runnable[0].clock, or noProcClock when empty
	nextID    int
	live      int // procs not yet done
	rng       *rand.Rand
	maxNow    time.Duration
	running   bool
	firstErr  error // first proc panic, in completion order
	deadlock  error // non-nil when the run ended with live procs blocked
}

// NewEngine returns an engine whose jitter source is seeded with seed,
// so runs are reproducible.
func NewEngine(seed int64) *Engine {
	return &Engine{
		nextClock: noProcClock,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Rand exposes the engine's deterministic random source (used for
// optional interconnect jitter).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// MaxNow returns the largest virtual clock observed across all procs,
// i.e. the makespan of the simulation so far.
func (e *Engine) MaxNow() time.Duration { return e.maxNow }

// Go spawns a new proc whose clock starts at start. It may be called
// before Run, or from within a running proc (in which case start is
// typically the spawner's current time).
func (e *Engine) Go(name string, start time.Duration, fn func(*Proc)) *Proc {
	p := &Proc{
		eng:   e,
		id:    e.nextID,
		name:  name,
		clock: start,
	}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if r == errStopped {
					return
				}
				p.err = fmt.Errorf("simtime: proc %q panicked: %v", p.name, r)
			}
			p.finish()
		}()
		fn(p)
	})
	e.nextID++
	e.live++
	e.procs = append(e.procs, p)
	e.requeue(p)
	return p
}

// finish marks the proc done, wakes joiners and records the first error
// in completion order. The body then returns, ending its coroutine, and
// Run resumes the next runnable proc.
func (p *Proc) finish() {
	e := p.eng
	p.state = stateDone
	e.live--
	if p.clock > e.maxNow {
		e.maxNow = p.clock
	}
	if p.err != nil && e.firstErr == nil {
		e.firstErr = p.err
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
// ErrDeadlock (wrapped with a proc dump) if all remaining procs are
// blocked, or the first proc panic converted to an error.
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
		q.next()
	}
	if e.live > 0 {
		err := fmt.Errorf("%w\n%s", ErrDeadlock, e.dump())
		for _, p := range e.procs {
			if p.state != stateDone {
				p.stop()
			}
		}
		return err
	}
	return e.firstErr
}

// dump renders the blocked-proc table for deadlock diagnostics.
func (e *Engine) dump() string {
	procs := append([]*Proc(nil), e.procs...)
	sort.Slice(procs, func(i, j int) bool { return procs[i].id < procs[j].id })
	s := ""
	for _, p := range procs {
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

// procHeap is a binary min-heap ordered by (clock, id).
type procHeap []*Proc

func (e *Engine) push(p *Proc) {
	if p.clock < e.nextClock {
		e.nextClock = p.clock
	}
	h := append(e.runnable, p)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.runnable = h
}

func (e *Engine) pop() *Proc {
	h := e.runnable
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil // release the reference for the GC
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(h) && less(h[l], h[smallest]) {
			smallest = l
		}
		if r < len(h) && less(h[r], h[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	e.runnable = h
	if len(h) > 0 {
		e.nextClock = h[0].clock
	} else {
		e.nextClock = noProcClock
	}
	return top
}

func less(a, b *Proc) bool {
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	return a.id < b.id
}
