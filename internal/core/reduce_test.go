package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"hetmp/internal/cluster"
)

// Integer sums for the reduction tests.
func zeroInt(acc *int)               { *acc = 0 }
func addInt(dst, src *int)           { *dst += *src }
func zeroInt64(acc *int64)           { *acc = 0 }
func addInt64(dst, src *int64)       { *dst += *src }
func zeroFloat64(acc *float64)       { *acc = 0 }
func addFloat64(dst, src *float64)   { *dst += *src }
func sameFloat64(a, b *float64) bool { return math.Float64bits(*a) == math.Float64bits(*b) }

// kmAcc is a kmeans-shaped accumulator: per-cluster coordinate sums
// (kmClusters × kmDims floats), per-cluster counts and a cost.
type kmAcc struct {
	sums   []float64
	counts []int64
	cost   float64
}

const kmClusters, kmDims = 16, 8

func resetKm(acc *kmAcc) {
	if acc.sums == nil {
		acc.sums = make([]float64, kmClusters*kmDims)
		acc.counts = make([]int64, kmClusters)
	}
	clear(acc.sums)
	clear(acc.counts)
	acc.cost = 0
}

func combineKm(dst, src *kmAcc) {
	for i, v := range src.sums {
		dst.sums[i] += v
	}
	for i, c := range src.counts {
		dst.counts[i] += c
	}
	dst.cost += src.cost
}

func sameKm(a, b *kmAcc) bool {
	for i := range a.sums {
		if math.Float64bits(a.sums[i]) != math.Float64bits(b.sums[i]) {
			return false
		}
	}
	return slices.Equal(a.counts, b.counts) && math.Float64bits(a.cost) == math.Float64bits(b.cost)
}

// foldModel is one accumulator type of TestReductionReuseMatchesFresh:
// its reset and combine, and the host part of its body.
type foldModel[T any] struct {
	reset   func(*T)
	fold    func(lo, hi int, acc *T)
	combine func(dst, src *T)
}

// spanRec is one body call: the accumulator it folded into and its
// span; slot is the accumulator's worker slot, resolved after the
// region.
type spanRec[T any] struct {
	acc    *T
	slot   int
	lo, hi int
}

// reduceAndModel runs one reduction of m over n iterations and returns
// its result and the result of the sequential fold the runtime
// documents, computed from the spans each worker slot received: each
// worker folds its spans in call order from reset, each node leader
// folds its workers in flat order, the master folds the nodes in team
// order (every worker in flat order under FlatHierarchy), and a
// probing invocation's result is combine(probe, remainder), the
// remainder a left fold of its windows. It runs on the master proc, so
// it reports a failure with Errorf and ok false.
func reduceAndModel[T any](t *testing.T, a *App, id string, n int, sched Schedule, m foldModel[T]) (got, want T, ok bool) {
	t.Helper()
	rt := a.rt
	var mu sync.Mutex
	var log []spanRec[T]
	probes := rt.Probes()
	got = *ParallelReduce(a, id, n, sched, m.reset,
		func(e cluster.Env, lo, hi int, acc *T) {
			m.fold(lo, hi, acc)
			e.Compute(float64(hi-lo)*50_000, 0)
			mu.Lock()
			log = append(log, spanRec[T]{acc: acc, lo: lo, hi: hi})
			mu.Unlock()
		}, m.combine)

	tm := rt.teams[rt.allSet]
	if len(rt.teams) != 1 || tm == nil {
		t.Errorf("%s ran on %d teams, want the full team alone", id, len(rt.teams))
		return got, want, false
	}
	slots := tm.accs.(*accSlots[T]).workers
	for i := range log {
		log[i].slot = -1
		for j := range slots {
			if &slots[j] == log[i].acc {
				log[i].slot = j
			}
		}
		if log[i].slot < 0 {
			t.Errorf("%s: span [%d, %d) folded outside the team's worker slots", id, log[i].lo, log[i].hi)
			return got, want, false
		}
	}

	bounds := []int{0, n}
	if rt.Probes() > probes {
		chunk := n * probePercent / tm.total / 100
		p := chunk * tm.total
		windows := 1
		if rt.opts.ReDecide && n-p >= 2*monitorWindows {
			windows = monitorWindows
		}
		bounds = []int{0}
		for w := range windows + 1 {
			bounds = append(bounds, p+(n-p)*w/windows)
		}
	}
	dispatch := func(lo, hi int) T {
		ws := make([]T, tm.total)
		for i := range ws {
			m.reset(&ws[i])
		}
		for _, s := range log {
			if s.lo >= lo && s.lo < hi {
				m.fold(s.lo, s.hi, &ws[s.slot])
			}
		}
		var d T
		m.reset(&d)
		if rt.opts.FlatHierarchy {
			for i := range ws {
				m.combine(&d, &ws[i])
			}
			return d
		}
		first := 0
		for _, node := range tm.nodes {
			var acc T
			m.reset(&acc)
			for f := first; f < first+tm.perNode[node]; f++ {
				m.combine(&acc, &ws[f])
			}
			m.combine(&d, &acc)
			first += tm.perNode[node]
		}
		return d
	}
	want = dispatch(bounds[0], bounds[1])
	if len(bounds) > 2 {
		rem := dispatch(bounds[1], bounds[2])
		for k := 2; k+1 < len(bounds); k++ {
			win := dispatch(bounds[k], bounds[k+1])
			m.combine(&rem, &win)
		}
		m.combine(&want, &rem)
	}
	return got, want, true
}

// A reused accumulator slot folds exactly as a fresh one: one runtime
// alternates a CG-like float64 reduction, a kmeans-like one and the
// float64 one again, for two rounds, so slots are reused by the same
// type (round to round) and left behind by another type (within a
// round). Every result must be bit for bit the documented sequential
// fold of the spans its workers received. The float64 terms are
// random, so a different grouping rounds differently.
func TestReductionReuseMatchesFresh(t *testing.T) {
	const n = 3200
	rng := rand.New(rand.NewPCG(1, 2))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()
	}
	dot := foldModel[float64]{
		reset: zeroFloat64,
		fold: func(lo, hi int, acc *float64) {
			for i := lo; i < hi; i++ {
				*acc += x[i] * x[(i*7)%n]
			}
		},
		combine: addFloat64,
	}
	km := foldModel[kmAcc]{
		reset: resetKm,
		fold: func(lo, hi int, acc *kmAcc) {
			for i := lo; i < hi; i++ {
				c := i % kmClusters
				acc.sums[c*kmDims+i%kmDims] += x[i]
				acc.counts[c]++
				acc.cost += x[i] * x[i]
			}
		},
		combine: combineKm,
	}
	cases := []struct {
		name  string
		opts  Options
		sched Schedule
	}{
		{"static", Options{}, StaticSchedule()},
		{"dynamic", Options{}, DynamicSchedule(8)},
		// Two probing invocations per region, then mature ones; the
		// monitor runs each probing remainder in windows.
		{"hetprobe", Options{ProbeMaxInvocations: 2, ReDecide: true}, HetProbeSchedule()},
		{"flat-static", Options{FlatHierarchy: true}, StaticSchedule()},
		{"flat-dynamic", Options{FlatHierarchy: true}, DynamicSchedule(8)},
		{"flat-hetprobe", Options{FlatHierarchy: true, ProbeMaxInvocations: 2, ReDecide: true}, HetProbeSchedule()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rt := newSimRuntime(t, c.opts)
			err := rt.Run(func(a *App) {
				for round := range 2 {
					for i, id := range []string{"dot", "km", "dot"} {
						if id == "km" {
							got, want, ok := reduceAndModel(t, a, id, n, c.sched, km)
							if ok && !sameKm(&got, &want) {
								t.Errorf("round %d step %d (%s): %v, want %v", round, i, id, got, want)
							}
							continue
						}
						got, want, ok := reduceAndModel(t, a, id, n, c.sched, dot)
						if ok && !sameFloat64(&got, &want) {
							t.Errorf("round %d step %d (%s): %v, want %v", round, i, id, got, want)
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, isHP := c.sched.(HetProbeSpec); isHP {
				if rt.Probes() != 4 {
					t.Errorf("%d probing invocations, want 2 per region", rt.Probes())
				}
				if d, _ := rt.Decision("dot"); !d.CrossNode {
					t.Errorf("dot decided %v, want cross-node", d)
				}
			}
		})
	}
}
