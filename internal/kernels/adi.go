package kernels

import (
	"fmt"
	"math"

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

// idx maps (i, j, kk) to the linear index (kk innermost).
func (k *adi) idx(i, j, kk int) int { return (i*k.n+j)*k.n + kk }

func (k *adi) Run(a *core.App, sched SchedFactory) {
	n := k.n
	a.Serial(k.serialOps*float64(n*n*n), 0)
	k.u = allocF64(a, k.name+":u", n*n*n)
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
	a.ParallelFor(region, n*n, sched(region), func(e cluster.Env, lo, hi int) {
		scratch := make([]float64, n)
		offs := make([]int64, n)
		line := make([]float64, n)
		for l := lo; l < hi; l++ {
			p, q := l/n, l%n
			// Gather the line's offsets for this axis.
			for t := 0; t < n; t++ {
				var ix int
				switch axis {
				case "x":
					ix = k.idx(t, p, q)
				case "y":
					ix = k.idx(p, t, q)
				default:
					ix = k.idx(p, q, t)
				}
				offs[t] = int64(ix) * 8
				line[t] = k.u.Data[ix]
			}
			if axis == "z" {
				// Contiguous line: declare as a range.
				base := int64(k.idx(p, q, 0)) * 8
				e.Load(k.u.Reg, base, int64(n)*8)
				k.thomas(line, scratch)
				e.Store(k.u.Reg, base, int64(n)*8)
			} else {
				e.LoadAt(k.u.Reg, offs, 8)
				k.thomas(line, scratch)
				e.StoreAt(k.u.Reg, offs, 8)
			}
			for t := 0; t < n; t++ {
				var ix int
				switch axis {
				case "x":
					ix = k.idx(t, p, q)
				case "y":
					ix = k.idx(p, t, q)
				default:
					ix = k.idx(p, q, t)
				}
				k.u.Data[ix] = line[t]
			}
		}
		e.Compute(float64(hi-lo)*float64(n)*k.flopsPerElem, k.vec)
	})
}

// thomas solves (I + αA) x = d in place, where A is the 1D Laplacian
// with Dirichlet boundaries — one implicit diffusion sub-step.
func (k *adi) thomas(d, c []float64) {
	n := len(d)
	a, b := -k.alpha, 1+2*k.alpha
	c[0] = a / b
	d[0] = d[0] / b
	for i := 1; i < n; i++ {
		m := 1 / (b - a*c[i-1])
		c[i] = a * m
		d[i] = (d[i] - a*d[i-1]) * m
	}
	for i := n - 2; i >= 0; i-- {
		d[i] -= c[i] * d[i+1]
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
	k := &adi{n: n, alpha: s.alpha} // what idx and thomas read
	u := make([]float64, n*n*n)
	r := rng(99)
	for i := range u {
		u[i] = s.initMin + (s.initMax-s.initMin)*r.Float64()
	}
	scratch := make([]float64, n)
	line := make([]float64, n)
	for step := 0; step < s.steps; step++ {
		for _, axis := range []string{"x", "y", "z"} {
			for l := 0; l < n*n; l++ {
				p, q := l/n, l%n
				for t := 0; t < n; t++ {
					switch axis {
					case "x":
						line[t] = u[k.idx(t, p, q)]
					case "y":
						line[t] = u[k.idx(p, t, q)]
					default:
						line[t] = u[k.idx(p, q, t)]
					}
				}
				k.thomas(line, scratch)
				for t := 0; t < n; t++ {
					switch axis {
					case "x":
						u[k.idx(t, p, q)] = line[t]
					case "y":
						u[k.idx(p, t, q)] = line[t]
					default:
						u[k.idx(p, q, t)] = line[t]
					}
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
