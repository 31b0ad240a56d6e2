package kernels

import (
	"fmt"
	"math"

	"hetmp/internal/cluster"
	"hetmp/internal/core"
)

func init() { register("kmeans", newKmeans) }

// kmeansK is Rodinia's k-means clustering: every algorithm iteration
// scans all points against the current centers (a work-sharing region
// with massive inter-thread data reuse — all threads stream the same
// arrays), then recomputes centers from the hierarchically reduced
// per-cluster sums. The point array is sized between the two nodes' LLC
// capacities: it fits the ThunderX's big shared L2 but thrashes the
// Xeon's smaller L3, which is why the paper measures a 1:1 core speed
// ratio despite the Xeon's faster cores.
type kmeansK struct {
	n, dims, k, iters int
	points            *F64
	centers           *F64
	membership        *I32
	inertia           float64
	ran               bool
}

const (
	kmVec = 0.5 // float32 scalar-ish Rodinia code
)

func newKmeans(scale float64) Kernel {
	return &kmeansK{
		// 98304 × 16 × 8 B = 12 MB of points, re-scanned every
		// algorithm iteration by the same threads with heavy
		// inter-thread reuse of the centers page.
		n:     scaled(98304, scale, 256),
		dims:  16,
		k:     8,
		iters: 10,
	}
}

func (k *kmeansK) Name() string { return "kmeans" }

// ProbeRegion implements Kernel.
func (k *kmeansK) ProbeRegion() string { return "kmeans:assign" }

// kmAssign is the per-point partial result: cluster sums, sizes and the
// total within-cluster cost.
type kmAssign struct {
	sums  []float64
	sizes []int64
	cost  float64
}

func (k *kmeansK) Run(a *core.App, sched SchedFactory) {
	// Serial phase: read the input points.
	a.Serial(float64(k.n*k.dims)*40, 0)
	in := kmeansInput{k.n, k.dims, k.k}
	k.points = sharedF64(a, "km:points", reference(in, in.points))
	k.centers = allocF64(a, "km:centers", k.k*k.dims)
	k.membership = allocI32(a, "km:membership", k.n)

	// Initialize centers from the first point of each true cluster.
	for c := 0; c < k.k; c++ {
		copy(k.centers.Data[c*k.dims:(c+1)*k.dims], k.points.Data[c*k.dims:(c+1)*k.dims])
	}

	// ≈5 instructions per (dimension × cluster) pair — subtract,
	// multiply, accumulate, compare and loop overhead — plus per-point
	// bookkeeping.
	flopsPerPoint := float64(5*k.k*k.dims + 16)
	// The accumulators are the runtime's, reused from region to region
	// (and by a later kmeans on the same runtime): reset clears them, and
	// allocates only when one is new or of another shape.
	reset := func(acc *kmAssign) {
		if len(acc.sums) != k.k*k.dims {
			acc.sums = make([]float64, k.k*k.dims)
			acc.sizes = make([]int64, k.k)
		}
		clear(acc.sums)
		clear(acc.sizes)
		acc.cost = 0
	}
	// settled reports that the last center update left the centers
	// bit-identical to those the last assignment read: every point's
	// nearest center is then still the member that assignment gave it.
	settled := false
	assign := func(e cluster.Env, lo, hi int, res *kmAssign) {
		dims := k.dims
		pts := k.points.R(e, lo*dims, hi*dims)
		centers := k.centers.R(e, 0, k.k*dims)
		member := k.membership.Data[lo:hi]
		changed := 0
		for i := range member {
			p := pts[i*dims : (i+1)*dims]
			m := int(member[i])
			best, bestD, ok := m, 0.0, false
			if settled {
				// The full scan's own distance to it (nearestCenter
				// measures its first center in full).
				bestD, ok = dist2Within(p, centers[m*dims:], math.MaxFloat64, false)
			}
			if !ok {
				best, bestD = nearestCenter(p, centers, k.k, m)
			}
			if member[i] != int32(best) {
				member[i] = int32(best)
				changed++
			}
			res.sizes[best]++
			res.cost += bestD
			sums := res.sums[best*dims:][:len(p)]
			for j, x := range p {
				sums[j] += x
			}
		}
		if changed > 0 {
			// Membership writes only happen for reassigned points; once
			// clustering converges the page stops being dirtied (and
			// stops churning across nodes).
			e.Store(k.membership.Reg, int64(lo)*4, int64(hi-lo)*4)
		}
		e.Compute(float64(hi-lo)*flopsPerPoint, kmVec)
	}
	combine := func(dst, src *kmAssign) {
		for i := range dst.sums {
			dst.sums[i] += src.sums[i]
		}
		for i := range dst.sizes {
			dst.sizes[i] += src.sizes[i]
		}
		dst.cost += src.cost
	}
	for it := 0; it < k.iters; it++ {
		res := core.ParallelReduce(a, "kmeans:assign", k.n, sched("kmeans:assign"), reset, assign, combine)
		k.inertia = res.cost
		// Serial center update on the master (writes invalidate the
		// replicated centers page — the per-iteration DSM cost the
		// paper describes).
		settled = updateCenters(k.centers.W(a.Env(), 0, k.k*k.dims), res, k.dims)
		a.Env().Compute(float64(k.k*k.dims)*4, 0)
	}
	k.ran = true
}

// updateCenters moves each non-empty cluster's center to the mean of
// its points and reports whether every center kept its bits.
func updateCenters(centers []float64, res *kmAssign, dims int) (same bool) {
	same = true
	for c, size := range res.sizes {
		if size == 0 {
			continue
		}
		for d := c * dims; d < (c+1)*dims; d++ {
			x := res.sums[d] / float64(size)
			if math.Float64bits(x) != math.Float64bits(centers[d]) {
				same = false
			}
			centers[d] = x
		}
	}
	return same
}

// kmeansInput is every value the point generator reads.
type kmeansInput struct{ n, dims, k int }

// points draws synthetic well-separated clusters, so convergence is
// checkable: point i belongs to cluster i mod k.
func (s kmeansInput) points() []float64 {
	pts := make([]float64, s.n*s.dims)
	r := rng(7)
	for i := 0; i < s.n; i++ {
		c := i % s.k
		for d := 0; d < s.dims; d++ {
			pts[i*s.dims+d] = float64(c*10) + r.NormFloat64()
		}
	}
	return pts
}

// nearestCenter returns the lowest index among the centers nearest to p
// and its squared distance, or 0 and math.MaxFloat64 when no distance
// is below math.MaxFloat64: exactly what a full scan of every center in
// index order returns. centers holds k rows of len(p) coordinates.
//
// It is a partial-distance search (Bei & Gray, 1985). It measures
// center first (the point's current center, usually still the nearest)
// in full, then the others in index order, and drops a center as soon
// as its running sum can no longer win. Every term is a square, so a
// rounded partial sum never decreases: a dropped center could not have
// won, and a measured one sums the full scan's terms in its order.
func nearestCenter(p, centers []float64, k, first int) (best int, bestD float64) {
	dims := len(p)
	best, bestD = 0, math.MaxFloat64
	if d, ok := dist2Within(p, centers[first*dims:], bestD, false); ok {
		best, bestD = first, d
	}
	for c := 0; c < k; c++ {
		if c == first {
			continue
		}
		// A tie goes to the lower index, as in the full scan.
		if d, ok := dist2Within(p, centers[c*dims:], bestD, c < best); ok {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// dist2Within returns p's squared distance to the center at the head of
// ctr and whether it beats bestD: is below it, or equal to it when
// tieWins. It stops summing once the distance cannot beat bestD.
func dist2Within(p, ctr []float64, bestD float64, tieWins bool) (float64, bool) {
	ctr = ctr[:len(p)]
	d := 0.0
	for j, x := range p {
		diff := x - ctr[j]
		d += diff * diff
		if !(d < bestD || tieWins && d == bestD) {
			return d, false
		}
	}
	return d, d < bestD || tieWins && d == bestD
}

func (k *kmeansK) Verify() error {
	if !k.ran {
		return fmt.Errorf("kmeans: not run")
	}
	// With well-separated synthetic clusters, k-means must recover the
	// generating partition: every point's member equals its generator
	// cluster up to a relabeling.
	relabel := make(map[int32]int32)
	for i := 0; i < k.n; i++ {
		truth := int32(i % k.k)
		got := k.membership.Data[i]
		if want, ok := relabel[truth]; ok {
			if got != want {
				return fmt.Errorf("kmeans: point %d assigned %d, cluster %d maps to %d", i, got, truth, want)
			}
		} else {
			relabel[truth] = got
		}
	}
	if len(relabel) != k.k {
		return fmt.Errorf("kmeans: recovered %d clusters, want %d", len(relabel), k.k)
	}
	// Inertia per point must be ≈ dims (unit-variance noise).
	perPoint := k.inertia / float64(k.n)
	if perPoint <= 0 || perPoint > float64(k.dims)*2 {
		return fmt.Errorf("kmeans: inertia per point %.2f implausible (want ≈%d)", perPoint, k.dims)
	}
	return nil
}
