package kernels

import (
	"fmt"

	"hetmp/internal/cluster"
	"hetmp/internal/core"
)

func init() { register("cfd", newCFD) }

// cfd reproduces Rodinia's euler3d solver: flux computation over an
// unstructured mesh with per-element neighbor gathers, followed by a
// time-step update, repeated for many short timesteps. Per the paper,
// the parallel regions favor the ThunderX slightly (low cache misses,
// lots of parallelism) but the benchmark has a long serial file I/O
// phase that runs far faster on the Xeon, and its many short regions
// make the master-stays-on-origin constraint expensive — HetProbe picks
// the ThunderX for the parallel work even though total time would have
// been lower on the Xeon (Section 5's cfd discussion).
type cfd struct {
	elems, steps int
	vars         int
	density      *F64
	momentum     *F64
	energy       *F64
	fluxD        *F64
	fluxE        *F64
	neighbors    []int32
	checksum     float64
	ran          bool
}

const (
	cfdVec          = 0.6
	cfdFlopsPerElem = 120
	// cfdIOOpsPerElem models euler3d's mesh file parse, which runs at
	// single-thread speed (1.83 s on the Xeon vs 13.72 s on the
	// ThunderX in the paper) and makes the benchmark's *total* time
	// lower on the Xeon even though its parallel regions favor the
	// ThunderX.
	cfdIOOpsPerElem = 90
)

func newCFD(scale float64) Kernel {
	return &cfd{elems: scaled(16000, scale, 512), steps: 120, vars: 4}
}

func (k *cfd) Name() string { return "cfd" }

// ProbeRegion implements Kernel: flux computation dominates.
func (k *cfd) ProbeRegion() string { return "cfd:flux" }

func (k *cfd) Run(a *core.App, sched SchedFactory) {
	n := k.elems
	// The long serial I/O phase.
	a.Serial(float64(n)*cfdIOOpsPerElem, 0)

	k.density = allocF64(a, "cfd:density", n)
	k.momentum = allocF64(a, "cfd:momentum", n)
	k.energy = allocF64(a, "cfd:energy", n)
	k.fluxD = allocF64(a, "cfd:fluxD", n)
	k.fluxE = allocF64(a, "cfd:fluxE", n)

	rg := rng(17)
	for i := 0; i < n; i++ {
		k.density.Data[i] = 1 + 0.1*rg.Float64()
		k.momentum.Data[i] = 0.1 * (rg.Float64() - 0.5)
		k.energy.Data[i] = 2 + 0.1*rg.Float64()
	}
	// Unstructured-but-local connectivity: each element's 4 neighbors
	// are nearby with a random perturbation (mesh numbering locality).
	k.neighbors = make([]int32, n*4)
	for i := 0; i < n; i++ {
		for d := 0; d < 4; d++ {
			nb := i + []int{-1, 1, -17, 17}[d] + rg.Intn(7) - 3
			if nb < 0 {
				nb = 0
			}
			if nb >= n {
				nb = n - 1
			}
			k.neighbors[i*4+d] = int32(nb)
		}
	}

	const dt = 0.01
	for step := 0; step < k.steps; step++ {
		// Region 1: flux computation with neighbor gathers.
		a.ParallelFor("cfd:flux", n, sched("cfd:flux"), func(e cluster.Env, lo, hi int) {
			dens := k.density.R(e, lo, hi)
			mom := k.momentum.R(e, lo, hi)
			ener := k.energy.R(e, lo, hi)
			fd := k.fluxD.W(e, lo, hi)
			fe := k.fluxE.W(e, lo, hi)
			offs := make([]int64, 0, 4)
			for i := 0; i < hi-lo; i++ {
				el := lo + i
				offs = offs[:0]
				var dFlux, eFlux float64
				for d := 0; d < 4; d++ {
					nb := int(k.neighbors[el*4+d])
					offs = append(offs, int64(nb)*8)
					dFlux += k.density.Data[nb] - dens[i]
					eFlux += k.energy.Data[nb] - ener[i]
				}
				e.LoadAt(k.density.Reg, offs, 8)
				e.LoadAt(k.energy.Reg, offs, 8)
				fd[i] = dFlux + 0.1*mom[i]
				fe[i] = eFlux - 0.05*mom[i]
			}
			e.Compute(float64(hi-lo)*cfdFlopsPerElem, cfdVec)
		})
		// Region 2: time-step update.
		a.ParallelFor("cfd:update", n, sched("cfd:update"), func(e cluster.Env, lo, hi int) {
			dens := k.density.RW(e, lo, hi)
			ener := k.energy.RW(e, lo, hi)
			fd := k.fluxD.R(e, lo, hi)
			fe := k.fluxE.R(e, lo, hi)
			for i := range dens {
				dens[i] += dt * fd[i]
				ener[i] += dt * fe[i]
			}
			e.Compute(float64(hi-lo)*8, 0.9)
		})
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += k.density.Data[i]
	}
	k.checksum = sum
	k.ran = true
}

func (k *cfd) Verify() error {
	if !k.ran {
		return fmt.Errorf("cfd: not run")
	}
	// Diffusive flux keeps densities positive and bounded.
	for i, v := range k.density.Data {
		if v <= 0 || v > 10 {
			return fmt.Errorf("cfd: density[%d] = %v out of physical range", i, v)
		}
	}
	// Replay sequentially and compare checksums: element updates are
	// independent within a step, so the result must be bit-identical.
	ref := k.sequentialReference()
	if ref != k.checksum {
		return fmt.Errorf("cfd: checksum %v != sequential %v", k.checksum, ref)
	}
	return nil
}

func (k *cfd) sequentialReference() float64 {
	n := k.elems
	rg := rng(17)
	dens := make([]float64, n)
	mom := make([]float64, n)
	ener := make([]float64, n)
	for i := 0; i < n; i++ {
		dens[i] = 1 + 0.1*rg.Float64()
		mom[i] = 0.1 * (rg.Float64() - 0.5)
		ener[i] = 2 + 0.1*rg.Float64()
	}
	fd := make([]float64, n)
	fe := make([]float64, n)
	const dt = 0.01
	for step := 0; step < k.steps; step++ {
		for i := 0; i < n; i++ {
			var dFlux, eFlux float64
			for d := 0; d < 4; d++ {
				nb := int(k.neighbors[i*4+d])
				dFlux += dens[nb] - dens[i]
				eFlux += ener[nb] - ener[i]
			}
			fd[i] = dFlux + 0.1*mom[i]
			fe[i] = eFlux - 0.05*mom[i]
		}
		for i := 0; i < n; i++ {
			dens[i] += dt * fd[i]
			ener[i] += dt * fe[i]
		}
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += dens[i]
	}
	return sum
}
