package kernels

import (
	"fmt"
	"math"
	"sort"

	"hetmp/internal/cluster"
	"hetmp/internal/core"
)

func init() { register("CG-C", newCG) }

// cg is the NPB conjugate-gradient kernel: repeated sparse
// matrix-vector products with a random sparse SPD matrix, plus dot
// products. The column indirection produces the irregular access
// pattern the paper highlights ("calculate a set of results and then
// access them in irregular patterns using an indirection array"),
// which both thrashes caches (high misses/kinst ⇒ Xeon for single-node
// execution) and churns the DSM (every iteration rewrites the vector
// every node gathers from).
type cg struct {
	n, nnzRow, iters int
	vals             *F64
	cols             *I32
	x, p, q, r       *F64
	residual         float64
	ran              bool
}

const (
	cgVec = 0.3 // gather-dominated, poorly vectorizable
)

func newCG(scale float64) Kernel {
	return &cg{n: scaled(36864, scale, 512), nnzRow: 12, iters: 40}
}

func (k *cg) Name() string { return "CG-C" }

// ProbeRegion implements Kernel: the sparse matrix-vector product
// dominates CG's runtime.
func (k *cg) ProbeRegion() string { return "cg:spmv" }

func (k *cg) Run(a *core.App, sched SchedFactory) {
	n, nnz := k.n, k.nnzRow
	a.Serial(float64(n*nnz)*20, 0)
	in := cgInput{n, nnz}
	m := reference(in, in.matrix)
	k.vals = sharedF64(a, "cg:vals", m.vals)
	k.cols = sharedI32(a, "cg:cols", m.cols)
	k.x = allocF64(a, "cg:x", n)
	k.p = allocF64(a, "cg:p", n)
	k.q = allocF64(a, "cg:q", n)
	k.r = allocF64(a, "cg:r", n)

	// Solve A x = b with b = 1.
	for i := 0; i < n; i++ {
		k.r.Data[i] = 1
		k.p.Data[i] = 1
		k.x.Data[i] = 0
	}

	rho := k.dot(a, sched, "cg:rho", k.r, k.r)
	for it := 0; it < k.iters; it++ {
		k.spmv(a, sched)
		pq := k.dot(a, sched, "cg:pq", k.p, k.q)
		alpha := rho / pq
		k.axpy(a, sched, "cg:xupd", k.x, k.p, alpha)
		k.axpy(a, sched, "cg:rupd", k.r, k.q, -alpha)
		rhoNew := k.dot(a, sched, "cg:rho2", k.r, k.r)
		beta := rhoNew / rho
		rho = rhoNew
		// p = r + beta p (serial-ish region kept parallel).
		k.xpby(a, sched, "cg:pupd", k.p, k.r, beta)
	}
	k.residual = math.Sqrt(rho)
	k.ran = true
}

// cgInput is every value the matrix generator reads.
type cgInput struct{ n, nnzRow int }

// cgMatrix is the sparse matrix in row-major CSR form with a fixed
// nnzRow entries a row.
type cgMatrix struct {
	vals []float64
	cols []int32
}

// matrix draws a random symmetric-pattern, diagonally dominant matrix:
// row i gets nnz-1 random off-diagonal entries plus a dominant
// diagonal.
func (s cgInput) matrix() cgMatrix {
	n, nnz := s.n, s.nnzRow
	m := cgMatrix{
		vals: make([]float64, n*nnz),
		cols: make([]int32, n*nnz),
	}
	rg := rng(5)
	for i := 0; i < n; i++ {
		cols := make([]int, 0, nnz)
		cols = append(cols, i)
		for len(cols) < nnz {
			c := rg.Intn(n)
			cols = append(cols, c)
		}
		sort.Ints(cols)
		var off float64
		for j, c := range cols {
			v := 0.0
			if c != i {
				v = -rg.Float64()
				off += -v
			}
			m.vals[i*nnz+j] = v
			m.cols[i*nnz+j] = int32(c)
		}
		// Dominant diagonal ⇒ positive definite enough for CG.
		for j, c := range cols {
			if c == i {
				m.vals[i*nnz+j] += off + 1
			}
		}
	}
	return m
}

// spmv computes q = A p, gathering p through the column indices.
func (k *cg) spmv(a *core.App, sched SchedFactory) {
	n, nnz := k.n, k.nnzRow
	a.ParallelFor("cg:spmv", n, sched("cg:spmv"), func(e cluster.Env, lo, hi int) {
		vals := k.vals.R(e, lo*nnz, hi*nnz)
		cols := k.cols.R(e, lo*nnz, hi*nnz)
		q := k.q.W(e, lo, hi)
		offs := make([]int64, 0, nnz)
		for i := 0; i < hi-lo; i++ {
			row := 0.0
			offs = offs[:0]
			for j := 0; j < nnz; j++ {
				c := cols[i*nnz+j]
				row += vals[i*nnz+j] * k.p.Data[c]
				offs = append(offs, int64(c)*8)
			}
			e.LoadAt(k.p.Reg, offs, 8)
			q[i] = row
		}
		// ≈8 instructions per nonzero: value and column loads, the
		// gathered multiply-add, and loop overhead.
		e.Compute(float64(hi-lo)*float64(nnz)*8, cgVec)
	})
}

// dot computes Σ u[i]·v[i] with a hierarchical reduction.
func (k *cg) dot(a *core.App, sched SchedFactory, region string, u, v *F64) float64 {
	out := a.ParallelReduce(region, k.n, sched(region),
		func() any { return 0.0 },
		func(e cluster.Env, lo, hi int, acc any) any {
			s := acc.(float64)
			us := u.R(e, lo, hi)
			vs := v.R(e, lo, hi)
			for i := range us {
				s += us[i] * vs[i]
			}
			e.Compute(float64(hi-lo)*2, 0.9)
			return s
		},
		func(x, y any) any { return x.(float64) + y.(float64) },
	)
	return out.(float64)
}

// axpy computes u += α v.
func (k *cg) axpy(a *core.App, sched SchedFactory, region string, u, v *F64, alpha float64) {
	a.ParallelFor(region, k.n, sched(region), func(e cluster.Env, lo, hi int) {
		us := u.RW(e, lo, hi)
		vs := v.R(e, lo, hi)
		for i := range us {
			us[i] += alpha * vs[i]
		}
		e.Compute(float64(hi-lo)*2, 0.9)
	})
}

// xpby computes u = v + β u.
func (k *cg) xpby(a *core.App, sched SchedFactory, region string, u, v *F64, beta float64) {
	a.ParallelFor(region, k.n, sched(region), func(e cluster.Env, lo, hi int) {
		us := u.RW(e, lo, hi)
		vs := v.R(e, lo, hi)
		for i := range us {
			us[i] = vs[i] + beta*us[i]
		}
		e.Compute(float64(hi-lo)*2, 0.9)
	})
}

func (k *cg) Verify() error {
	if !k.ran {
		return fmt.Errorf("CG: not run")
	}
	// CG on a diagonally dominant SPD system must reduce the residual
	// substantially from its initial value √n.
	initial := math.Sqrt(float64(k.n))
	if bound := initial / 100; k.residual >= bound {
		return fmt.Errorf("CG: residual %.4g after %d iterations, want < %.4g", k.residual, k.iters, bound)
	}
	// Independently recompute ‖b − A x‖ from the final x.
	nnz := k.nnzRow
	var norm float64
	for i := 0; i < k.n; i++ {
		row := 0.0
		for j := 0; j < nnz; j++ {
			row += k.vals.Data[i*nnz+j] * k.x.Data[k.cols.Data[i*nnz+j]]
		}
		d := 1 - row
		norm += d * d
	}
	norm = math.Sqrt(norm)
	if absf(norm-k.residual) > 1e-6*(1+norm) {
		return fmt.Errorf("CG: tracked residual %.9g != recomputed %.9g", k.residual, norm)
	}
	return nil
}
