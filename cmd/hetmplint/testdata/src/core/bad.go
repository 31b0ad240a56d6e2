// Package core is the deliberately bad fixture behind hetmplint's
// no-op regression test: it violates every analyzer in the suite (the
// directory is named "core" so the wallclock virtual-time scoping
// applies). If hetmplint ever stops reporting any of these, the test in
// cmd/hetmplint fails rather than letting the linter silently rot.
package core

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hetmp/internal/telemetry"
)

type noisy struct {
	mu sync.Mutex
	ch chan int
}

func violations(m map[string]int, reg *telemetry.Registry, n *noisy) time.Time {
	for k, v := range m { // maporder: output write in map order
		fmt.Println(k, v)
	}
	for range m {
		reg.Counter("lookups").Inc() // telemetryhandle: lookup per iteration
	}
	_ = rand.Intn(6) // randsource: global generator

	n.mu.Lock()
	n.ch <- 1 // lockorder: send under n.mu
	n.mu.Unlock()

	return time.Now() // wallclock: wall read in a "core" package
}

// unsortedKeys is the PR 4 teardown with its sort deleted: maporder
// must report the collect, because nothing in this function orders
// what it gathered.
func unsortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m { // maporder: key-collect never sorted
		keys = append(keys, k)
	}
	return keys
}

// lockorder: two functions acquire the same two locks in opposite
// orders; each edge looks fine locally.
type left struct{ mu sync.Mutex }
type right struct{ mu sync.Mutex }

func lockLR(l *left, r *right) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r.mu.Lock() // lockorder: left→right edge
	r.mu.Unlock()
}

func lockRL(l *left, r *right) {
	r.mu.Lock()
	defer r.mu.Unlock()
	l.mu.Lock() // lockorder: right→left edge closes the cycle
	l.mu.Unlock()
}

// staleSuppression: nothing fires on this line, so the allow itself
// must be reported as staleallow.
func staleSuppression() int {
	return 4 //hetmp:allow wallclock -- left behind after the wall read was removed
}
