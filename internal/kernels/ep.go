package kernels

import (
	"fmt"
	"math"

	"hetmp/internal/cluster"
	"hetmp/internal/core"
)

func init() { register("EP-C", newEP) }

// ep is the NPB "embarrassingly parallel" kernel: generate pairs of
// uniform deviates with a linear congruential generator, transform them
// into Gaussian deviates by acceptance-rejection (Marsaglia polar
// method), and tally the deviates into ten concentric annuli. All
// computation is thread-local (heavy use of thread-local storage, per
// the paper) with one final reduction, so it is the cleanest cross-node
// winner (CSR ≈ 2.5:1 — scalar-dominated integer and branch work).
type ep struct {
	blocks int
	perBlk int
	sx, sy float64
	counts [10]int64
	ran    bool
}

// epResult is the reduced quantity.
type epResult struct {
	sx, sy float64
	q      [10]int64
}

// Per-pair cost: LCG advance + polar transform with branches; mostly
// scalar.
const (
	epFlopsPerPair = 40
	epVec          = 0.05
)

func newEP(scale float64) Kernel {
	return &ep{blocks: scaled(32768, scale, 128), perBlk: 128}
}

func (k *ep) Name() string { return "EP-C" }

// ProbeRegion implements Kernel.
func (k *ep) ProbeRegion() string { return "ep:pairs" }

// epBlock generates one block of pairs and returns its partial tallies.
// The generator is seeded per block, so the result is independent of
// how blocks are scheduled across threads.
func epBlock(block, pairs int) epResult {
	var res epResult
	seed := uint64(block)*2654435761 + 12345
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / float64(1<<53)
	}
	for p := 0; p < pairs; p++ {
		x := 2*next() - 1
		y := 2*next() - 1
		t := x*x + y*y
		if t > 1 || t == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(t) / t)
		gx, gy := x*f, y*f
		res.sx += gx
		res.sy += gy
		m := math.Max(math.Abs(gx), math.Abs(gy))
		l := int(m)
		if l > 9 {
			l = 9
		}
		res.q[l]++
	}
	return res
}

func (k *ep) Run(a *core.App, sched SchedFactory) {
	// Tiny serial setup (no input file for EP).
	a.Serial(1e6, 0)
	shape := epShape{k.blocks, k.perBlk}
	tallies := reference(shape, shape.tallies)
	res := *core.ParallelReduce(a, "ep:pairs", k.blocks, sched("ep:pairs"),
		func(acc *epResult) { *acc = epResult{} },
		func(e cluster.Env, lo, hi int, res *epResult) {
			for b := lo; b < hi; b++ {
				res.add(&tallies[b])
			}
			e.Compute(float64(hi-lo)*float64(k.perBlk)*epFlopsPerPair, epVec)
		},
		(*epResult).add,
	)
	k.sx, k.sy = res.sx, res.sy
	k.counts = res.q
	k.ran = true
}

// add folds p into r.
func (r *epResult) add(p *epResult) {
	r.sx += p.sx
	r.sy += p.sy
	for i := range r.q {
		r.q[i] += p.q[i]
	}
}

func (k *ep) Verify() error {
	if !k.ran {
		return fmt.Errorf("EP: not run")
	}
	seq := epSequential{epShape{k.blocks, k.perBlk}}
	ref := reference(seq, seq.fold)
	if absf(ref.sx-k.sx) > 1e-9 || absf(ref.sy-k.sy) > 1e-9 {
		return fmt.Errorf("EP: sums (%.9f, %.9f) != sequential (%.9f, %.9f)", k.sx, k.sy, ref.sx, ref.sy)
	}
	if ref.q != k.counts {
		return fmt.Errorf("EP: annulus counts %v != sequential %v", k.counts, ref.q)
	}
	// Sanity: most Gaussian deviates land in the first annulus.
	if k.counts[0] == 0 || k.counts[0] < k.counts[1] {
		return fmt.Errorf("EP: implausible Gaussian tallies %v", k.counts)
	}
	return nil
}

// epShape is every input of EP's per-block tallies.
type epShape struct{ blocks, perBlk int }

// tallies generates every block's partial tallies, in block order. No
// schedule can change them (block seeding), so every run of a shape
// folds the same table.
func (s epShape) tallies() []epResult {
	t := make([]epResult, s.blocks)
	for b := range t {
		t[b] = epBlock(b, s.perBlk)
	}
	return t
}

// epSequential keys EP's sequential reference.
type epSequential struct{ epShape }

// fold sums the shape's tallies in block order: the sequential run,
// bit for bit, without generating the blocks again.
func (s epSequential) fold() epResult {
	var ref epResult
	for _, part := range reference(s.epShape, s.tallies) {
		ref.add(&part)
	}
	return ref
}
