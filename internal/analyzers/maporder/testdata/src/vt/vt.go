// Package vt exercises maporder's virtual-time sinks against the real
// simtime and cluster packages — the exact PR 4 bug shape: map
// iteration whose body consumes virtual time.
package vt

import (
	"sort"

	"hetmp/internal/cluster"
	"hetmp/internal/simtime"
)

func directAdvance(m map[string]int, p *simtime.Proc) {
	for range m { // want "virtual-time call simtime.Advance"
		p.Advance(1)
	}
}

type worker struct{}

func (w *worker) shutdown(p *simtime.Proc) { p.Advance(1) }

// The PR 4 shape: the body calls a helper that takes the virtual-time
// context, so the helper's time consumption happens in map order.
func indirectViaProc(teams map[string]*worker, p *simtime.Proc) {
	for _, w := range teams { // want "virtual-time value simtime.Proc passed into call"
		w.shutdown(p)
	}
}

type team struct{}

func (t *team) stop(e cluster.Env) { _ = e.Now() }

func indirectViaEnv(teams map[string]*team, env cluster.Env) {
	for _, t := range teams { // want "virtual-time context cluster.Env passed into call"
		t.stop(env)
	}
}

func methodOnProc(m map[string]int, p *simtime.Proc) {
	for range m { // want "virtual-time call simtime.Yield"
		p.Yield()
	}
}

// --- allowed ---

// The PR 4 fix, whole: collect, sort, then consume virtual time.
func sortedFix(teams map[string]*team, env cluster.Env) {
	keys := make([]string, 0, len(teams))
	for k := range teams {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		teams[k].stop(env)
	}
}

func pureReads(m map[string]*team, p *simtime.Proc) int {
	n := 0
	for range m {
		n++
	}
	_ = p.Now() // outside the range: fine
	return n
}
