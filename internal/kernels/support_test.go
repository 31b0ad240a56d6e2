package kernels

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hetmp/internal/core"
)

// shapeOf is the reference key k's Verify uses.
func shapeOf(k Kernel) any {
	switch k := k.(type) {
	case *ep:
		return epShape{k.blocks, k.perBlk}
	case *adi:
		return adiShape{k.n, k.steps, k.alpha, k.initMin, k.initMax}
	}
	return nil
}

// A second kernel of an already verified shape is compared against the
// cached reference: a perturbed result fails Verify. BT-C's perturbation
// is one ulp of the checksum, which the reference check must catch on
// its own (the maximum principle and the mean cannot).
func TestCachedReferenceRejectsPerturbedResult(t *testing.T) {
	perturb := map[string]func(Kernel) Kernel{
		"EP-C": func(k Kernel) Kernel {
			bad := *k.(*ep)
			bad.counts[2]++
			return &bad
		},
		"BT-C": func(k Kernel) Kernel {
			bad := *k.(*adi)
			bad.checksumAfter = math.Nextafter(bad.checksumAfter, math.Inf(1))
			return &bad
		},
	}
	for _, name := range []string{"EP-C", "BT-C"} {
		t.Run(name, func(t *testing.T) {
			k := runKernel(t, name, 0.1, core.StaticSchedule())
			if err := k.Verify(); err != nil {
				t.Fatal(err)
			}
			if _, ok := references.Load(shapeOf(k)); !ok {
				t.Fatalf("no cached reference for %+v after Verify", shapeOf(k))
			}
			err := perturb[name](k).Verify()
			if err == nil || !strings.Contains(err.Error(), "sequential") {
				t.Fatalf("perturbed %s: Verify = %v, want a mismatch against the sequential reference", name, err)
			}
			if err := k.Verify(); err != nil {
				t.Fatalf("unperturbed %s after a failed Verify: %v", name, err)
			}
		})
	}
}

// Two scales of one kernel are two shapes: each verifies against its
// own reference, and both stay cached.
func TestReferenceKeyedByShape(t *testing.T) {
	for _, name := range []string{"EP-C", "BT-C"} {
		t.Run(name, func(t *testing.T) {
			var shapes []any
			for _, scale := range []float64{0.05, 0.1} {
				k := runKernel(t, name, scale, core.StaticSchedule())
				if err := k.Verify(); err != nil {
					t.Fatalf("scale %g: %v", scale, err)
				}
				shapes = append(shapes, shapeOf(k))
			}
			if shapes[0] == shapes[1] {
				t.Fatalf("scales 0.05 and 0.1 share the shape %+v", shapes[0])
			}
			for _, s := range shapes {
				if _, ok := references.Load(s); !ok {
					t.Errorf("no cached reference for %+v", s)
				}
			}
		})
	}
}

// Concurrent first callers of one key wait for a single computation and
// all get its value.
func TestReferenceComputesOnce(t *testing.T) {
	type key struct{ run *testing.T } // fresh for every -count repetition
	var calls atomic.Int32
	compute := func() *int {
		calls.Add(1)
		for i := 0; i < 100; i++ {
			runtime.Gosched() // let the other callers arrive
		}
		v := 42
		return &v
	}
	const callers = 16
	got := make([]*int, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = reference(key{t}, compute)
		}()
	}
	close(start)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, p := range got {
		if p != got[0] || *p != 42 {
			t.Fatalf("caller %d got %p (%v), caller 0 got %p", i, p, *p, got[0])
		}
	}
}
