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
	return &Barrier{parties: parties}
}

// Wait blocks p until all parties have arrived, then releases everyone
// at the maximum arrival time. It reports whether p was the last
// arrival (the "winner", used for leader election at barriers).
func (b *Barrier) Wait(p *Proc) bool {
	if p.Now() > b.maxT {
		b.maxT = p.Now()
	}
	if len(b.arrived)+1 < b.parties {
		b.arrived = append(b.arrived, p)
		p.block()
		return false
	}
	release := b.maxT
	waiters := b.arrived
	// Keep the backing array for the next round: every waiter is
	// unblocked below, before any of them can re-enter Wait and append.
	b.arrived = b.arrived[:0]
	b.maxT = 0
	for _, w := range waiters {
		w.unblock(release)
	}
	p.AdvanceTo(release)
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
