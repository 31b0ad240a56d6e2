// Package b exercises lockorder's blocking rule: blocking operations
// under a held sync.Mutex/RWMutex are flagged, including under a lock a
// helper returned still held and under a local mutex; the sanctioned
// wait shapes are not.
package b

import (
	"math/rand"
	"sync"

	"hetmp/internal/interconnect"
	"hetmp/internal/machine"
	"hetmp/internal/simtime"
)

type state struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	cond *sync.Cond
	wg   sync.WaitGroup
	ch   chan int
}

func sendUnderLock(s *state) {
	s.mu.Lock()
	s.ch <- 1 // want `channel send while "b\.state\.mu" is held`
	s.mu.Unlock()
	s.ch <- 2 // released: fine
}

func receiveUnderDeferredUnlock(s *state) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := <-s.ch // want `channel receive while "b\.state\.mu" is held`
	return v
}

func selectUnderRLock(s *state) {
	s.rw.RLock()
	select { // want `select while "b\.state\.rw" is held`
	case v := <-s.ch:
		_ = v
	default:
	}
	s.rw.RUnlock()
}

func waitGroupUnderLock(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wg.Wait() // want `sync.WaitGroup.Wait while "b\.state\.mu" is held`
}

func simtimeYieldUnderLock(s *state, p *simtime.Proc) {
	s.mu.Lock()
	p.Advance(10) // want `simtime yield Advance while "b\.state\.mu" is held`
	s.mu.Unlock()
	p.Yield() // released: fine
}

func simtimeWaitsUnderLock(s *state, p *simtime.Proc, bar *simtime.Barrier, gate *simtime.Gate,
	res *simtime.Resource, chain *simtime.Chain) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bar.Wait(p)                             // want `simtime yield Wait while "b\.state\.mu" is held`
	gate.Wait(p)                            // want `simtime yield Wait while "b\.state\.mu" is held`
	res.Use(p, 10)                          // want `simtime yield Use while "b\.state\.mu" is held`
	chain.Wait(p, 0)                        // want `simtime yield Wait while "b\.state\.mu" is held`
	p.Walk(simtime.Delay(10), res.Step(10)) // want `simtime yield Walk while "b\.state\.mu" is held`
}

func roundTripUnderLock(s *state, spec interconnect.Spec, n machine.NodeSpec, rng *rand.Rand) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = spec.PageFault(n, n, 4096, rng)    // want `interconnect round-trip PageFault while "b\.state\.mu" is held`
	_ = spec.ControlMessageBetween(&n, &n) // want `interconnect round-trip ControlMessageBetween while "b\.state\.mu" is held`
}

// lockIt returns with s.mu held; the caller's send is under it.
func (s *state) lockIt() { s.mu.Lock() }

func sendAfterAcquireHelper(s *state) {
	s.lockIt()
	s.ch <- 1 // want `channel send while "b\.state\.mu" is held`
	s.mu.Unlock()
}

// A local mutex has no program-wide identity, but it is held.
func sendUnderLocalLock(s *state) {
	var mu sync.Mutex
	mu.Lock()
	s.ch <- 1 // want `channel send while "mu" is held`
	mu.Unlock()
}

// A func literal is walked with the held set where it is written.
func literalUnderLock(s *state) {
	s.mu.Lock()
	f := func() {
		<-s.ch // want `channel receive while "b\.state\.mu" is held`
	}
	f()
	s.mu.Unlock()
}

// --- allowed ---

func condWaitUnderLock(s *state) {
	// sync.Cond.Wait atomically releases the mutex while parked: the
	// one sanctioned way to wait under a lock.
	s.mu.Lock()
	s.cond.Wait()
	s.mu.Unlock()
}

func goroutineDoesNotInheritLock(s *state) {
	s.mu.Lock()
	go func() {
		s.ch <- 1 // runs without the caller's lock
	}()
	s.mu.Unlock()
}

func branchScopedLock(s *state, take bool) {
	if take {
		s.mu.Lock()
		s.mu.Unlock()
	}
	s.ch <- 1 // lock provably released on the taken path
}

func lockedSectionThenBlock(s *state, p *simtime.Proc) {
	s.mu.Lock()
	s.mu.Unlock()
	p.Advance(5)
	<-s.ch
}

// Local mutexes are never nodes of the lock graph: localThenField takes
// a local mu before s.mu, fieldThenLocal takes one after it through a
// call, and no cycle is reported.

func localThenField(s *state) {
	var mu sync.Mutex
	mu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	mu.Unlock()
}

func fieldThenLocal(s *state) {
	s.mu.Lock()
	lockLocal()
	s.mu.Unlock()
}

func lockLocal() {
	var mu sync.Mutex
	mu.Lock()
	mu.Unlock()
}

// --- suppressed ---

func suppressed(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//hetmp:allow lockorder -- fixture: buffered signal channel, capacity guarantees no block
	s.ch <- 1
}
