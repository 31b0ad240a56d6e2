package kernels

import (
	"fmt"

	"hetmp/internal/cluster"
	"hetmp/internal/core"
)

func init() { register("streamcluster", newStreamcluster) }

// streamcluster is PARSEC's online clustering kernel. Its hot loop
// evaluates the gain of opening a candidate center: every point
// computes its distance to the candidate and compares with its current
// assignment cost. The full point set is streamed on every evaluation
// with data-dependent writes — little locality, a big footprint, and
// constant cross-node churn (the paper's classic single-node-on-Xeon
// case: high misses/kinst, fault period far below threshold).
type streamcluster struct {
	n, dims, cands int
	points         *F64
	assignCost     *F64
	assignTo       *I32
	perm           []int32 // stream arrival order: the indirection array
	centers        []int
	totalCost      float64
	ran            bool
}

const scVec = 0.7

func newStreamcluster(scale float64) Kernel {
	return &streamcluster{n: scaled(49152, scale, 512), dims: 16, cands: 60}
}

func (k *streamcluster) Name() string { return "streamcluster" }

// ProbeRegion implements Kernel.
func (k *streamcluster) ProbeRegion() string { return "sc:gain" }

func (k *streamcluster) dist2(a, b []float64) float64 {
	var d float64
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return d
}

func (k *streamcluster) Run(a *core.App, sched SchedFactory) {
	n, dims := k.n, k.dims
	a.Serial(float64(n*dims)*30, 0)
	in := scInput{n, dims}
	st := reference(in, in.stream)
	k.points = sharedF64(a, "sc:points", st.points)
	k.assignCost = allocF64(a, "sc:cost", n)
	k.assignTo = allocI32(a, "sc:assign", n)
	k.perm = st.perm
	// Open the first point as the initial center. Costs and assignments
	// are indexed by point id and accessed through the stream order —
	// the paper's "calculate a set of results and then access them in
	// irregular patterns using an indirection array".
	k.centers = []int{0}
	first := k.points.Data[0:dims]
	for p := 0; p < n; p++ {
		k.assignCost.Data[p] = k.dist2(k.points.Data[p*dims:(p+1)*dims], first)
		k.assignTo.Data[p] = 0
	}

	// Candidate rounds: evaluate the gain of opening point c as a new
	// center; if positive, reassign the winning points.
	flopsPerPoint := float64(3*dims + 8)
	for round := 0; round < k.cands; round++ {
		cand := (round*7919 + 13) % n
		candPt := k.points.Data[cand*dims : (cand+1)*dims]
		out := a.ParallelReduce("sc:gain", n, sched("sc:gain"),
			func() any { return 0.0 },
			func(e cluster.Env, lo, hi int, acc any) any {
				gain := acc.(float64)
				e.Load(k.points.Reg, int64(cand*dims)*8, int64(dims)*8)
				ptOffs := make([]int64, 0, hi-lo)
				costOffs := make([]int64, 0, hi-lo)
				for i := lo; i < hi; i++ {
					p := int(k.perm[i])
					ptOffs = append(ptOffs, int64(p*dims)*8)
					costOffs = append(costOffs, int64(p)*8)
					d := k.dist2(k.points.Data[p*dims:(p+1)*dims], candPt)
					if d < k.assignCost.Data[p] {
						gain += k.assignCost.Data[p] - d
						k.assignCost.Data[p] = d
						k.assignTo.Data[p] = int32(len(k.centers))
					}
				}
				e.LoadAt(k.points.Reg, ptOffs, dims*8)
				e.LoadAt(k.assignCost.Reg, costOffs, 8)
				e.StoreAt(k.assignCost.Reg, costOffs, 8)
				e.Compute(float64(hi-lo)*flopsPerPoint, scVec)
				return gain
			},
			func(x, y any) any { return x.(float64) + y.(float64) },
		)
		if out.(float64) > 0 {
			k.centers = append(k.centers, cand)
		}
	}
	var total float64
	for i := 0; i < n; i++ {
		total += k.assignCost.Data[i]
	}
	k.totalCost = total
	k.ran = true
}

// scInput is every value the stream generator reads.
type scInput struct{ n, dims int }

// scStream is the point stream: the points by id and their arrival
// order.
type scStream struct {
	points []float64
	perm   []int32
}

// stream draws n uniform points and a random arrival order.
func (s scInput) stream() scStream {
	st := scStream{points: make([]float64, s.n*s.dims), perm: make([]int32, s.n)}
	rg := rng(31)
	for i := range st.points {
		st.points[i] = rg.Float64() * 100
	}
	// Points are processed in stream-arrival order through an
	// indirection array — the paper's "access them in irregular
	// patterns using an indirection array".
	for i := range st.perm {
		st.perm[i] = int32(i)
	}
	rg.Shuffle(s.n, func(i, j int) { st.perm[i], st.perm[j] = st.perm[j], st.perm[i] })
	return st
}

func (k *streamcluster) Verify() error {
	if !k.ran {
		return fmt.Errorf("streamcluster: not run")
	}
	if len(k.centers) < 2 {
		return fmt.Errorf("streamcluster: opened %d centers, expected several", len(k.centers))
	}
	// Every point's recorded cost must equal the distance to the best
	// center seen when it was (re)assigned — and no worse than the
	// distance to every opened center that existed at the end.
	dims := k.dims
	for i := 0; i < k.n; i++ {
		p := k.points.Data[i*dims : (i+1)*dims]
		best := k.assignCost.Data[i]
		for _, c := range k.centers {
			d := k.dist2(p, k.points.Data[c*dims:(c+1)*dims])
			if d < best-1e-9 {
				return fmt.Errorf("streamcluster: point %d cost %.6f but center %d is at %.6f", i, best, c, d)
			}
		}
	}
	if k.totalCost <= 0 {
		return fmt.Errorf("streamcluster: non-positive total cost %.6f", k.totalCost)
	}
	return nil
}
