package kernels

import (
	"fmt"
	"math"

	"hetmp/internal/cluster"
	"hetmp/internal/core"
)

func init() { register("lavaMD", newLavaMD) }

// lavaMD is Rodinia's molecular-dynamics kernel: particles live in a 3D
// grid of boxes; each box computes pairwise potentials against its ≤27
// neighbor boxes. Compute per byte is enormous and neighbor data
// brought across the interconnect is reused by adjacent boxes, so it is
// the paper's strongest cross-node case (CSR 3.666:1 — FMA-dense,
// highly vectorizable inner loops).
type lavaMD struct {
	lavaGrid
	boxes int
	pos   *F64 // 4 doubles per particle: x, y, z, charge
	fv    *F64 // 4 doubles per particle: potential + force vector
	ran   bool
}

// lavaGrid is the box grid, dim boxes a side with perBox particles
// each: every value the particle generator reads.
type lavaGrid struct{ dim, perBox int }

const (
	lavaFlopsPerPair = 45 // distance + exp() + 4 FMAs per pair
	lavaVec          = 0.95
	lavaCutoff       = 1.5 // in box units
)

func newLavaMD(scale float64) Kernel {
	dim := scaled(16, math.Cbrt(scale), 4)
	return &lavaMD{lavaGrid: lavaGrid{dim: dim, perBox: 12}, boxes: dim * dim * dim}
}

func (k *lavaMD) Name() string { return "lavaMD" }

// ProbeRegion implements Kernel.
func (k *lavaMD) ProbeRegion() string { return "lavamd:boxes" }

func (k *lavaMD) boxFloats() int { return k.perBox * 4 }

func (k *lavaMD) Run(a *core.App, sched SchedFactory) {
	a.Serial(float64(k.boxes*k.perBox)*50, 0)
	k.pos = sharedF64(a, "lava:pos", reference(k.lavaGrid, k.lavaGrid.positions))
	k.fv = allocF64(a, "lava:fv", k.boxes*k.boxFloats())

	pairsPerBox := float64(27 * k.perBox * k.perBox)
	a.ParallelFor("lavamd:boxes", k.boxes, sched("lavamd:boxes"),
		func(e cluster.Env, lo, hi int) {
			for b := lo; b < hi; b++ {
				// Own box particles (read) and outputs (write).
				k.pos.R(e, b*k.boxFloats(), (b+1)*k.boxFloats())
				out := k.fv.W(e, b*k.boxFloats(), (b+1)*k.boxFloats())
				for _, nb := range k.neighbors(b) {
					if nb != b {
						k.pos.R(e, nb*k.boxFloats(), (nb+1)*k.boxFloats())
					}
					k.interact(b, nb, out)
				}
			}
			e.Compute(float64(hi-lo)*pairsPerBox*lavaFlopsPerPair, lavaVec)
		})
	k.ran = true
}

// interact accumulates the potential of box b's particles against box
// nb's particles into out (b's force/potential vectors).
func (k *lavaMD) interact(b, nb int, out []float64) {
	for i := 0; i < k.perBox; i++ {
		pi := k.pos.Data[(b*k.perBox+i)*4 : (b*k.perBox+i)*4+4]
		for j := 0; j < k.perBox; j++ {
			if b == nb && i == j {
				continue
			}
			pj := k.pos.Data[(nb*k.perBox+j)*4 : (nb*k.perBox+j)*4+4]
			dx, dy, dz := pi[0]-pj[0], pi[1]-pj[1], pi[2]-pj[2]
			r2 := dx*dx + dy*dy + dz*dz
			if r2 > lavaCutoff*lavaCutoff {
				continue
			}
			w := pj[3] * math.Exp(-r2)
			out[i*4+0] += w
			out[i*4+1] += w * dx
			out[i*4+2] += w * dy
			out[i*4+3] += w * dz
		}
	}
}

// positions places perBox particles at random in each box, with random
// charges.
func (g lavaGrid) positions() []float64 {
	boxes := g.dim * g.dim * g.dim
	pos := make([]float64, boxes*g.perBox*4)
	r := rng(13)
	for b := 0; b < boxes; b++ {
		bx, by, bz := g.coords(b)
		for p := 0; p < g.perBox; p++ {
			base := (b*g.perBox + p) * 4
			pos[base+0] = float64(bx) + r.Float64()
			pos[base+1] = float64(by) + r.Float64()
			pos[base+2] = float64(bz) + r.Float64()
			pos[base+3] = 0.5 + r.Float64() // charge
		}
	}
	return pos
}

func (g lavaGrid) coords(b int) (x, y, z int) {
	return b % g.dim, (b / g.dim) % g.dim, b / (g.dim * g.dim)
}

// neighbors returns box b and its ≤26 grid neighbors (ascending, so
// access declarations are near-sorted).
func (k *lavaMD) neighbors(b int) []int {
	bx, by, bz := k.coords(b)
	var out []int
	for dz := -1; dz <= 1; dz++ {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				x, y, z := bx+dx, by+dy, bz+dz
				if x < 0 || y < 0 || z < 0 || x >= k.dim || y >= k.dim || z >= k.dim {
					continue
				}
				out = append(out, (z*k.dim+y)*k.dim+x)
			}
		}
	}
	return out
}

func (k *lavaMD) Verify() error {
	if !k.ran {
		return fmt.Errorf("lavaMD: not run")
	}
	// Recompute a sample of boxes sequentially and compare.
	for _, b := range []int{0, k.boxes / 2, k.boxes - 1} {
		ref := make([]float64, k.boxFloats())
		for _, nb := range k.neighbors(b) {
			k.interact(b, nb, ref)
		}
		got := k.fv.Data[b*k.boxFloats() : (b+1)*k.boxFloats()]
		for i := range ref {
			if absf(ref[i]-got[i]) > 1e-9*(1+absf(ref[i])) {
				return fmt.Errorf("lavaMD: box %d fv[%d] = %.12f, want %.12f", b, i, got[i], ref[i])
			}
		}
	}
	// Potentials must be positive (sum of positive weights).
	for i := 0; i < k.boxes*k.perBox; i++ {
		if k.fv.Data[i*4] <= 0 {
			return fmt.Errorf("lavaMD: particle %d has non-positive potential %.9f", i, k.fv.Data[i*4])
		}
	}
	return nil
}
