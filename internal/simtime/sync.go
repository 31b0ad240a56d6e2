package simtime

import (
	"fmt"
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
	if !p.walk() {
		// Blocked or requeued: Run finishes the walk before resuming p.
		p.park()
	}
	return int(p.at)
}

// walk performs p's arrivals from link p.at on. It reports true when
// the walk has ended with p free to run: p.chain is then nil and p.at
// holds the result. Otherwise p is blocked on a link, or requeued
// behind a strictly earlier proc exactly where Barrier.Wait's AdvanceTo
// would yield, and Run continues the walk when it pops p. walk runs on
// p's coroutine for the first arrival and on Run's for the rest, so it
// never parks itself.
func (p *Proc) walk() bool {
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
			p.eng.requeue(p)
			return false
		}
		if l.Stop {
			return true
		}
	}
	p.chain = nil
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
	if service < 0 {
		service = 0
	}
	start := p.Now()
	if r.next > start {
		start = r.next
	}
	wait := start - p.Now()
	r.next = start + service
	r.busy += service
	r.uses++
	p.AdvanceTo(start + service)
	return wait
}

// BusyTime returns the total time the resource has been occupied.
func (r *Resource) BusyTime() time.Duration { return r.busy }

// Uses returns the number of times the resource was used.
func (r *Resource) Uses() int64 { return r.uses }
