package simtime

import (
	"fmt"
	"sync"
	"time"
)

// Barrier is a reusable rendezvous for a fixed number of procs. All
// participants leave the barrier with their clocks advanced to the
// latest arrival time, mirroring a hardware barrier in virtual time.
type Barrier struct {
	parties int
	arrived []*Proc
	maxT    time.Duration
}

// NewBarrier returns a barrier for parties procs. parties must be >= 1.
func NewBarrier(parties int) *Barrier {
	if parties < 1 {
		panic(fmt.Sprintf("simtime: barrier parties must be >= 1, got %d", parties))
	}
	// Room for every waiter up front: the last arrival never queues.
	return &Barrier{parties: parties, arrived: make([]*Proc, 0, parties-1)}
}

// Wait blocks p until all parties have arrived, then releases everyone
// at the maximum arrival time. It reports whether p was the last
// arrival (the "winner", used for leader election at barriers).
func (b *Barrier) Wait(p *Proc) bool {
	release, last := b.arrive(p)
	if !last {
		p.block()
		return false
	}
	p.AdvanceTo(release)
	return true
}

// arrive records p's arrival. A non-last arrival is queued for release
// and must block; the last one releases every queued waiter and
// returns the release time, which it still has to advance to.
func (b *Barrier) arrive(p *Proc) (release time.Duration, last bool) {
	if p.clock > b.maxT {
		b.maxT = p.clock
	}
	if len(b.arrived)+1 < b.parties {
		b.arrived = append(b.arrived, p)
		return 0, false
	}
	release = b.maxT
	waiters := b.arrived
	// Keep the backing array for the next round: every waiter is
	// unblocked below, before any of them can re-enter Wait and append.
	b.arrived = b.arrived[:0]
	b.maxT = 0
	for _, w := range waiters {
		w.unblock(release)
	}
	return release, true
}

// Link is one barrier of a Chain. Stop ends the walk at this barrier
// when the walking proc is its last arrival. A nil Barrier stands for a
// barrier whose only party is the walker: the walker is always its
// last arrival, and arriving costs no time.
type Link struct {
	Barrier *Barrier
	Stop    bool
}

// Chain is a fixed sequence of barriers a proc waits on in order
// without running code in between. Walking it is exactly a loop of
// Barrier.Wait calls, one per link, that returns at the first stop
// link where the proc was the last arrival — but the proc's coroutine
// is resumed once, when the walk ends, instead of once per barrier.
type Chain struct {
	links []Link
}

// NewChain returns a chain over links, waited in order.
func NewChain(links ...Link) *Chain {
	return &Chain{links: links}
}

// Wait walks p through the links from index from on, as Barrier.Wait
// on each in turn. It returns the index of the stop link at which p
// was the last arrival, or the number of links if the walk passed
// every one.
func (c *Chain) Wait(p *Proc, from int) int {
	p.chain, p.at = c, int32(from)
	if !p.walkChain() {
		// Blocked or requeued: Run finishes the walk before resuming p.
		p.park()
	}
	return int(p.at)
}

// requeueBehind requeues p where Advance's rule would yield during a
// walk, which must not park itself: another runnable proc is strictly
// earlier. It records p's clock in MaxNow first, as park would. For a
// chain that is a no-op (a link raises the clock at most to a release
// time, the clock of an arrival that has already parked); a time step
// raises it past every parked proc.
func (p *Proc) requeueBehind() {
	e := p.eng
	if p.clock > e.maxNow {
		e.maxNow = p.clock
	}
	e.requeue(p)
}

// walkChain performs p's arrivals from link p.at on. It reports true
// when the walk has ended with p free to run: p.chain is then nil and
// p.at holds the result. Otherwise p is blocked on a link, or requeued
// behind a strictly earlier proc exactly where Barrier.Wait's AdvanceTo
// would yield, and Run continues the walk when it pops p. walkChain
// runs on p's coroutine for the first arrival and on Run's for the
// rest, so it never parks itself.
func (p *Proc) walkChain() bool {
	links := p.chain.links
	for int(p.at) < len(links) {
		l := links[p.at]
		release, last := p.clock, true
		if l.Barrier != nil {
			release, last = l.Barrier.arrive(p)
		}
		if !last {
			p.at++
			p.state = stateBlocked
			return false
		}
		if release > p.clock {
			p.clock = release
		}
		if l.Stop {
			p.chain = nil
		} else {
			p.at++
		}
		if p.eng.nextClock < p.clock {
			p.requeueBehind()
			return false
		}
		if l.Stop {
			return true
		}
	}
	p.chain = nil
	return true
}

// Step is one time step of a Walk: Delay(d) stands for p.Advance(d)
// and r.Step(d) for r.Use(p, d).
type Step struct {
	res *Resource // nil for a delay
	d   time.Duration
}

// Delay returns the step that advances the walker's clock by d.
func Delay(d time.Duration) Step { return Step{d: d} }

// Step returns the step that occupies r for service, as Use does.
func (r *Resource) Step(service time.Duration) Step { return Step{res: r, d: service} }

// take applies s to p's clock and resource, as Advance or Use does
// before its yield check.
func (s Step) take(p *Proc) {
	if s.res != nil {
		_, p.clock = s.res.occupy(p.clock, s.d)
	} else if s.d > 0 {
		p.clock += s.d
	}
}

// maxHeld is how many steps a parked walk can leave to Run.
const maxHeld = 2

// heldSteps is a parked step walk's remaining steps, steps[next:n].
type heldSteps struct {
	steps   [maxHeld]Step
	next, n uint8
}

// heldTable holds the steps of an engine's parked walks, one slot per
// walk, reused through the free list. A run hands its table on through
// heldTables when it ends, so a server that builds one engine per job
// does not grow a table per job.
type heldTable struct {
	slots []heldSteps
	free  []int32
}

var heldTables = sync.Pool{New: func() any { return new(heldTable) }}

// Walk performs steps in order, exactly as the sequential calls
// (Advance for a Delay, Use for a Resource.Step) would, but resumes
// p's coroutine once, when the last step is done, instead of once per
// step that yields. The steps run on p's coroutine until one must
// yield under Advance's strictly-earlier rule. p then parks with the
// rest held by the engine, and Run pops it exactly when it would have
// resumed a proc making the sequential calls and takes the next step
// itself, with the same rule. So the clocks, resource states, heap
// operations and MaxNow values are those of the sequential calls. A
// walk that yields with more than two steps left takes the next one on
// its coroutine.
func (p *Proc) Walk(steps ...Step) {
	for i, s := range steps {
		s.take(p)
		if p.eng.nextClock < p.clock {
			rest := steps[i+1:]
			if len(rest) > maxHeld {
				p.yieldNow()
				continue
			}
			p.hold(rest)
			p.yieldNow()
			return
		}
	}
}

// hold parks rest, if any, in a free slot of the engine's held table
// for Run to take.
func (p *Proc) hold(rest []Step) {
	if len(rest) == 0 {
		return
	}
	e := p.eng
	if e.held == nil {
		e.held = heldTables.Get().(*heldTable)
	}
	t := e.held
	if n := len(t.free); n > 0 {
		p.at = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		p.at = int32(len(t.slots))
		t.slots = append(t.slots, heldSteps{})
	}
	h := &t.slots[p.at]
	for i, s := range rest {
		h.steps[i] = s // not copy: a typed slice copy is a runtime call
	}
	h.next, h.n = 0, uint8(len(rest))
	p.stepping = true
}

// walkHeld takes p's held steps on Run's coroutine. The slot is freed
// with the last step, so a walk that requeues there resumes p when it
// is next popped.
func (p *Proc) walkHeld() bool {
	t := p.eng.held
	h := &t.slots[p.at]
	for h.next < h.n {
		h.steps[h.next].take(p)
		h.next++
		if h.next == h.n {
			p.stepping = false
			t.free = append(t.free, p.at)
		}
		if p.eng.nextClock < p.clock {
			p.requeueBehind()
			return false
		}
	}
	return true
}

// Gate is a one-shot latch: procs waiting on a closed gate block until
// Open is called, at which point they resume no earlier than the opening
// time. Waiting on an open gate only applies the time floor.
type Gate struct {
	open    bool
	at      time.Duration
	waiters []*Proc
}

// NewGate returns a closed gate.
func NewGate() *Gate { return &Gate{} }

// Wait blocks p until the gate opens.
func (g *Gate) Wait(p *Proc) {
	if g.open {
		p.AdvanceTo(g.at)
		return
	}
	g.waiters = append(g.waiters, p)
	p.block()
}

// Open releases all waiters at the opener's current time.
func (g *Gate) Open(p *Proc) {
	if g.open {
		return
	}
	g.open = true
	g.at = p.Now()
	for _, w := range g.waiters {
		w.unblock(g.at)
	}
	g.waiters = nil
}

// Resource models a shared FIFO server (an interconnect link, a DSM
// message handler, a memory channel). Each use occupies the server for a
// service duration; overlapping demands queue in virtual time. Because
// the engine always runs the earliest proc first, the resulting schedule
// is deterministic and respects arrival order.
type Resource struct {
	name string
	next time.Duration // time at which the server becomes free
	busy time.Duration // total occupied time, for utilization stats
	uses int64
}

// NewResource returns an idle resource with a debug name.
func NewResource(name string) *Resource { return &Resource{name: name} }

// Use occupies the resource for service starting no earlier than p's
// current time, advances p past the completion and returns the queueing
// delay p experienced.
func (r *Resource) Use(p *Proc, service time.Duration) time.Duration {
	start, end := r.occupy(p.clock, service)
	wait := start - p.clock
	p.AdvanceTo(end)
	return wait
}

// occupy queues a use of service arriving at now and returns when it
// starts and ends. A negative service counts as zero.
func (r *Resource) occupy(now, service time.Duration) (start, end time.Duration) {
	if service < 0 {
		service = 0
	}
	start = max(now, r.next)
	r.next = start + service
	r.busy += service
	r.uses++
	return start, r.next
}

// BusyTime returns the total time the resource has been occupied.
func (r *Resource) BusyTime() time.Duration { return r.busy }

// Uses returns the number of times the resource was used.
func (r *Resource) Uses() int64 { return r.uses }
