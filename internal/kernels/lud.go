package kernels

import (
	"fmt"

	"hetmp/internal/cluster"
	"hetmp/internal/core"
)

func init() { register("lud", newLUD) }

// lud is Rodinia's in-place LU decomposition. The outer elimination
// step is serial; each step runs a work-sharing region over the
// trailing rows. Rows are far smaller than a page, so threads on
// different nodes writing adjacent rows falsely share pages — the
// paper's example of false sharing — and the hundreds of short regions
// make synchronization overhead dominate. Arithmetic intensity is low
// but the trailing matrix fits the ThunderX's LLC, keeping misses/kinst
// under the threshold (lud lands on the ThunderX in Figure 8).
type lud struct {
	n int
	m *F64
	// ref is the shape's input matrix, shared by every run of it: a
	// run factors its own copy, m.
	ref []float64
	ran bool
}

const ludVec = 0.6

func newLUD(scale float64) Kernel {
	// n² footprint ⇒ scale per-dimension by √scale.
	return &lud{n: scaled(320, sqrtScale(scale), 32)}
}

func (k *lud) Name() string { return "lud" }

// ProbeRegion implements Kernel.
func (k *lud) ProbeRegion() string { return "lud:update" }

func (k *lud) Run(a *core.App, sched SchedFactory) {
	n := k.n
	a.Serial(float64(n*n)*20, 0)
	k.m = allocF64(a, "lud:m", n*n)
	in := ludInput{n}
	k.ref = reference(in, in.matrix)
	copy(k.m.Data, k.ref)

	// Doolittle elimination: for each pivot k, update trailing rows in
	// parallel (one iteration = one row).
	for piv := 0; piv < n-1; piv++ {
		pivRow := piv
		region := "lud:update"
		a.ParallelFor(region, n-piv-1, sched(region), func(e cluster.Env, lo, hi int) {
			// All threads read the pivot row ...
			e.Load(k.m.Reg, int64(pivRow*n+pivRow)*8, int64(n-pivRow)*8)
			for r := lo; r < hi; r++ {
				row := pivRow + 1 + r
				// ... and update their own trailing row (sub-page
				// writes ⇒ false sharing between adjacent rows).
				e.Load(k.m.Reg, int64(row*n+pivRow)*8, int64(n-pivRow)*8)
				e.Store(k.m.Reg, int64(row*n+pivRow)*8, int64(n-pivRow)*8)
				f := k.m.Data[row*n+pivRow] / k.m.Data[pivRow*n+pivRow]
				k.m.Data[row*n+pivRow] = f
				for c := pivRow + 1; c < n; c++ {
					k.m.Data[row*n+c] -= f * k.m.Data[pivRow*n+c]
				}
			}
			// ≈5 instructions per trailing element: multiply, subtract,
			// two loads and index arithmetic.
			e.Compute(float64(hi-lo)*float64(n-pivRow)*5, ludVec)
		})
	}
	k.ran = true
}

// ludInput is every input of lud's matrix.
type ludInput struct{ n int }

// matrix builds a well-conditioned n×n matrix: diagonally dominant
// random.
func (in ludInput) matrix() []float64 {
	n := in.n
	rg := rng(21)
	m := make([]float64, n*n)
	for i := 0; i < n; i++ {
		var row float64
		for j := 0; j < n; j++ {
			v := rg.Float64() - 0.5
			m[i*n+j] = v
			row += absf(v)
		}
		m[i*n+i] = row + 1
	}
	return m
}

func (k *lud) Verify() error {
	if !k.ran {
		return fmt.Errorf("lud: not run")
	}
	// Check L·U ≈ A on a sample of entries (full check is O(n³)).
	n := k.n
	step := n/16 + 1
	for i := 0; i < n; i += step {
		for j := 0; j < n; j += step {
			var sum float64
			for t := 0; t <= min(i, j); t++ {
				var l, u float64
				if t == i {
					l = 1
				} else {
					l = k.m.Data[i*n+t]
				}
				u = k.m.Data[t*n+j]
				if t > j {
					u = 0
				}
				if t <= j && t <= i {
					sum += l * u
				}
			}
			want := k.ref[i*n+j]
			if absf(sum-want) > 1e-6*(1+absf(want)) {
				return fmt.Errorf("lud: (LU)[%d,%d] = %.9f, want %.9f", i, j, sum, want)
			}
		}
	}
	return nil
}
