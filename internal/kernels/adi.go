package kernels

import (
	"fmt"
	"math"
	"sync"

	"hetmp/internal/cluster"
	"hetmp/internal/core"
)

// adi is the shared machinery of the BT and SP reproductions: an
// alternating-direction-implicit sweep over a 3D grid. Each timestep
// solves a tridiagonal system along x, then y, then z. Consecutive
// work-sharing regions therefore access the array along different
// dimensions — exactly the pattern the paper blames for BT's and SP's
// DSM churn ("access multi-dimensional arrays along different
// dimensions in consecutive work sharing regions, causing the DSM to
// shuffle large amounts of data between nodes").
//
// The paper's BT solves 5×5 block-tridiagonal systems (≈150 flops per
// element) while SP solves scalar pentadiagonal systems (≈40 flops per
// element); we keep the scalar Thomas solver for both and model the
// flop densities, preserving the axis-alternating access pattern and
// the compute-per-byte ratio that drives Figure 8's split (BT below
// the cache-miss threshold, SP above).
type adi struct {
	name          string
	n, steps      int
	flopsPerElem  float64
	vec           float64
	alpha         float64
	u             *F64
	thomas        thomas
	initMin       float64
	initMax       float64
	serialOps     float64
	checksumAfter float64
	ran           bool
}

func (k *adi) Name() string { return k.name }

// ProbeRegion implements Kernel: the x-sweep is representative (all
// three sweeps behave alike).
func (k *adi) ProbeRegion() string { return k.name + ":xsolve" }

// axisStrides lays out the lines along axis in the n³ grid, indexed
// (i, j, kk) with kk innermost: line (p, q) starts at p·ps + q·qs and
// steps by stride.
func axisStrides(axis string, n int) (ps, qs, stride int) {
	switch axis {
	case "x":
		return n, 1, n * n
	case "y":
		return n * n, 1, n
	default:
		return n * n, n, 1
	}
}

func (k *adi) Run(a *core.App, sched SchedFactory) {
	n := k.n
	a.Serial(k.serialOps*float64(n*n*n), 0)
	k.u = allocF64(a, k.name+":u", n*n*n)
	k.thomas = newThomas(n, k.alpha)
	r := rng(99)
	k.initMin, k.initMax = 1.0, 2.0
	for i := range k.u.Data {
		k.u.Data[i] = k.initMin + (k.initMax-k.initMin)*r.Float64()
	}

	for step := 0; step < k.steps; step++ {
		k.sweep(a, sched, "x")
		k.sweep(a, sched, "y")
		k.sweep(a, sched, "z")
	}
	k.checksumAfter = k.checksum()
	k.ran = true
}

// sweep runs one work-sharing region: n² independent line solves along
// the given axis. Lines along z are contiguous in memory; lines along x
// and y are strided, touching one cache line (and frequently one page)
// per element.
func (k *adi) sweep(a *core.App, sched SchedFactory, axis string) {
	n := k.n
	region := k.name + ":" + axis + "solve"
	ps, qs, stride := axisStrides(axis, n)
	a.ParallelFor(region, n*n, sched(region), func(e cluster.Env, lo, hi int) {
		// The body yields inside Load and LoadAt, and another proc's
		// body runs meanwhile, so each call takes its own scratch.
		sc := getLineScratch(n)
		defer lineScratchPool.Put(sc)
		u := k.u.Data
		// Four lines at a time: gather them interleaved, solve them
		// together, then declare each line's accesses in line order and
		// scatter. Reading the lines before the declarations is safe:
		// a sweep's lines are disjoint and no other body touches them.
		l := lo
		for ; l+4 <= hi; l += 4 {
			buf := sc.buf[:4*n]
			var bases [4]int
			for j := range bases {
				bases[j] = (l+j)/n*ps + (l+j)%n*qs
				offs := sc.offs[j][:n]
				for t, ix := 0, bases[j]; t < n; t, ix = t+1, ix+stride {
					offs[t] = int64(ix) * 8
					buf[4*t+j] = u[ix]
				}
			}
			k.thomas.solve4(buf)
			for j, base := range bases {
				k.declare(e, axis, base, sc.offs[j][:n])
			}
			for j, base := range bases {
				for t, ix := 0, base; t < n; t, ix = t+1, ix+stride {
					u[ix] = buf[4*t+j]
				}
			}
		}
		for ; l < hi; l++ {
			base := l/n*ps + l%n*qs
			line, offs := sc.buf[:n], sc.offs[0][:n]
			for t, ix := 0, base; t < n; t, ix = t+1, ix+stride {
				offs[t] = int64(ix) * 8
				line[t] = u[ix]
			}
			k.thomas.solve(line)
			k.declare(e, axis, base, offs)
			for t, ix := 0, base; t < n; t, ix = t+1, ix+stride {
				u[ix] = line[t]
			}
		}
		e.Compute(float64(hi-lo)*float64(n)*k.flopsPerElem, k.vec)
	})
}

// declare charges one line solve's read and write of the line starting
// at base, whose element byte offsets are offs.
func (k *adi) declare(e cluster.Env, axis string, base int, offs []int64) {
	if axis == "z" {
		// Contiguous line: declare as a range.
		e.Load(k.u.Reg, int64(base)*8, int64(len(offs))*8)
		e.Store(k.u.Reg, int64(base)*8, int64(len(offs))*8)
		return
	}
	e.LoadAt(k.u.Reg, offs, 8)
	e.StoreAt(k.u.Reg, offs, 8)
}

// lineScratch is one sweep body's scratch: four lines interleaved
// (element t of line j at buf[4t+j]) and each line's byte offsets.
type lineScratch struct {
	buf  []float64
	offs [4][]int64
}

// lineScratchPool recycles sweep scratch across bodies, kernels and
// concurrent simulations.
var lineScratchPool sync.Pool

// getLineScratch returns scratch for lines of n elements.
func getLineScratch(n int) *lineScratch {
	if sc, _ := lineScratchPool.Get().(*lineScratch); sc != nil && len(sc.offs[0]) >= n {
		return sc
	}
	sc := &lineScratch{buf: make([]float64, 4*n)}
	offs := make([]int64, 4*n)
	for j := range sc.offs {
		sc.offs[j] = offs[j*n : (j+1)*n : (j+1)*n]
	}
	return sc
}

// thomas solves (I + αA) x = d in place, where A is the 1D Laplacian
// with Dirichlet boundaries — one implicit diffusion sub-step. The
// elimination's coefficients depend only on the line length and α, so
// they are computed once for every line of that length.
type thomas struct {
	a, b float64
	c    []float64 // the eliminated super-diagonal
	m    []float64 // 1/pivot for rows 1..n-1
}

func newThomas(n int, alpha float64) thomas {
	t := thomas{a: -alpha, b: 1 + 2*alpha, c: make([]float64, n), m: make([]float64, n)}
	t.c[0] = t.a / t.b
	for i := 1; i < n; i++ {
		t.m[i] = 1 / (t.b - t.a*t.c[i-1])
		t.c[i] = t.a * t.m[i]
	}
	return t
}

// solve overwrites d, whose length is the solver's, with the solution.
func (t thomas) solve(d []float64) {
	c, m := t.c[:len(d)], t.m[:len(d)]
	d[0] = d[0] / t.b
	for i := 1; i < len(d); i++ {
		d[i] = (d[i] - t.a*d[i-1]) * m[i]
	}
	for i := len(d) - 2; i >= 0; i-- {
		d[i] -= c[i] * d[i+1]
	}
}

// solve4 solves four lines of the solver's length, interleaved in d
// (element t of line j at d[4t+j]), with exactly solve's operations on
// each, so every line's bits are solve's.
func (t thomas) solve4(d []float64) {
	n := len(d) / 4
	c, m := t.c[:n], t.m[:n]
	a, b := t.a, t.b
	x0, x1, x2, x3 := d[0]/b, d[1]/b, d[2]/b, d[3]/b
	d[0], d[1], d[2], d[3] = x0, x1, x2, x3
	for i := 1; i < n; i++ {
		q := d[4*i : 4*i+4 : 4*i+4]
		mi := m[i]
		x0 = (q[0] - a*x0) * mi
		x1 = (q[1] - a*x1) * mi
		x2 = (q[2] - a*x2) * mi
		x3 = (q[3] - a*x3) * mi
		q[0], q[1], q[2], q[3] = x0, x1, x2, x3
	}
	for i := n - 2; i >= 0; i-- {
		q := d[4*i : 4*i+4 : 4*i+4]
		ci := c[i]
		x0 = q[0] - ci*x0
		x1 = q[1] - ci*x1
		x2 = q[2] - ci*x2
		x3 = q[3] - ci*x3
		q[0], q[1], q[2], q[3] = x0, x1, x2, x3
	}
}

func (k *adi) checksum() float64 {
	var s float64
	for _, v := range k.u.Data {
		s += v
	}
	return s
}

func (k *adi) Verify() error {
	if !k.ran {
		return fmt.Errorf("%s: not run", k.name)
	}
	// Implicit diffusion with Dirichlet boundaries is a contraction:
	// values stay within the initial bounds (discrete maximum
	// principle) and must have smoothed (variance shrinks toward the
	// boundary sink).
	for i, v := range k.u.Data {
		if v < 0 || v > k.initMax+1e-9 {
			return fmt.Errorf("%s: u[%d] = %v violates the maximum principle [0, %v]", k.name, i, v, k.initMax)
		}
	}
	mean := k.checksumAfter / float64(len(k.u.Data))
	if mean <= 0 || mean >= k.initMax {
		return fmt.Errorf("%s: mean %v outside (0, %v)", k.name, mean, k.initMax)
	}
	// Replay the same steps sequentially on the same initial data and
	// compare checksums: the parallel line solves are independent, so
	// the result must be bit-identical.
	shape := adiShape{k.n, k.steps, k.alpha, k.initMin, k.initMax}
	if ref := reference(shape, shape.reference); ref != k.checksumAfter {
		return fmt.Errorf("%s: checksum %v != sequential %v", k.name, k.checksumAfter, ref)
	}
	return nil
}

// adiShape is every input of the sequential reference (the seed is
// fixed).
type adiShape struct {
	n, steps         int
	alpha            float64
	initMin, initMax float64
}

// reference recomputes the whole solve single-threaded from the
// original seed.
func (s adiShape) reference() float64 {
	n := s.n
	u := make([]float64, n*n*n)
	r := rng(99)
	for i := range u {
		u[i] = s.initMin + (s.initMax-s.initMin)*r.Float64()
	}
	solver := newThomas(n, s.alpha)
	line := make([]float64, n)
	for step := 0; step < s.steps; step++ {
		for _, axis := range []string{"x", "y", "z"} {
			ps, qs, stride := axisStrides(axis, n)
			for l := 0; l < n*n; l++ {
				base := l/n*ps + l%n*qs
				for t := 0; t < n; t++ {
					line[t] = u[base+t*stride]
				}
				solver.solve(line)
				for t := 0; t < n; t++ {
					u[base+t*stride] = line[t]
				}
			}
		}
	}
	var sum float64
	for _, v := range u {
		sum += v
	}
	return sum
}

func init() {
	register("BT-C", func(scale float64) Kernel {
		return &adi{
			name:         "BT-C",
			n:            scaled(56, cbrtScale(scale), 12),
			steps:        24,
			flopsPerElem: 150, // 5×5 block solves
			vec:          0.5,
			alpha:        0.5,
			serialOps:    5, // per element: NPB init is cheap
		}
	})
	register("SP-C", func(scale float64) Kernel {
		return &adi{
			name:         "SP-C",
			n:            scaled(100, cbrtScale(scale), 12),
			steps:        10,
			flopsPerElem: 26, // scalar pentadiagonal solves
			vec:          0.5,
			alpha:        0.5,
			serialOps:    5, // per element
		}
	})
}

// cbrtScale converts a volume scale into a per-dimension scale.
func cbrtScale(scale float64) float64 { return math.Cbrt(scale) }

// sqrtScale converts an area scale into a per-dimension scale.
func sqrtScale(scale float64) float64 { return math.Sqrt(scale) }
