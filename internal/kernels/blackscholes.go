package kernels

import (
	"fmt"
	"math"

	"hetmp/internal/cluster"
	"hetmp/internal/core"
)

func init() { register("blackscholes", newBlackscholes) }

// blackscholes is PARSEC's option-pricing kernel: embarrassingly
// parallel Black–Scholes evaluation over a portfolio, repeated several
// times over the same data (the paper notes its pages settle after the
// first pass, making it the showcase for deterministic scheduling and
// the Ideal CSR configuration). It also has a lengthy serial file I/O
// phase that benefits from the Xeon's single-thread performance.
type blackscholes struct {
	n, runs int
	spot    *F64
	strike  *F64
	rate    *F64
	vol     *F64
	otime   *F64
	otype   *I32
	prices  *F64
}

// Per-option cost model: CNDF evaluation ≈ 200 flops, about half
// vectorizable (PARSEC's SIMD version).
const (
	bsFlopsPerOption = 200
	bsVec            = 0.5
	bsRuns           = 5
	// bsIOBytesPerOption models the per-option text parsing cost of the
	// input file (serial, scalar).
	bsIOOpsPerOption = 600
)

func newBlackscholes(scale float64) Kernel {
	return &blackscholes{n: scaled(524288, scale, 1024), runs: bsRuns}
}

// NewBlackscholesRounds builds blackscholes with an explicit number of
// pricing rounds — the knob of the paper's TCP/IP case study (Figure
// 9): more rounds mean more compute per transferred byte once the data
// has settled.
func NewBlackscholesRounds(scale float64, rounds int) Kernel {
	if rounds < 1 {
		rounds = 1
	}
	return &blackscholes{n: scaled(524288, scale, 1024), runs: rounds}
}

func (k *blackscholes) Name() string { return "blackscholes" }

// ProbeRegion implements Kernel.
func (k *blackscholes) ProbeRegion() string { return "blackscholes:calc" }

func (k *blackscholes) Run(a *core.App, sched SchedFactory) {
	// Serial phase: parse the portfolio file.
	a.Serial(float64(k.n)*bsIOOpsPerOption, 0)
	in := bsInput{k.n}
	pf := reference(in, in.portfolio)
	k.spot = sharedF64(a, "bs:spot", pf.spot)
	k.strike = sharedF64(a, "bs:strike", pf.strike)
	k.rate = sharedF64(a, "bs:rate", pf.rate)
	k.vol = sharedF64(a, "bs:vol", pf.vol)
	k.otime = sharedF64(a, "bs:otime", pf.otime)
	k.otype = sharedI32(a, "bs:otype", pf.otype)
	k.prices = allocF64(a, "bs:prices", k.n)

	for run := 0; run < k.runs; run++ {
		a.ParallelFor("blackscholes:calc", k.n, sched("blackscholes:calc"),
			func(e cluster.Env, lo, hi int) {
				spot := k.spot.R(e, lo, hi)
				strike := k.strike.R(e, lo, hi)
				rate := k.rate.R(e, lo, hi)
				vol := k.vol.R(e, lo, hi)
				otime := k.otime.R(e, lo, hi)
				otype := k.otype.R(e, lo, hi)
				prices := k.prices.W(e, lo, hi)
				for i := range spot {
					prices[i] = bsPrice(otype[i] == 1, spot[i], strike[i], rate[i], vol[i], otime[i])
				}
				e.Compute(float64(hi-lo)*bsFlopsPerOption, bsVec)
			})
	}
}

// bsInput is every value the portfolio generator reads.
type bsInput struct{ n int }

// bsPortfolio is the parsed portfolio file, one entry per option.
type bsPortfolio struct {
	spot, strike, rate, vol, otime []float64
	otype                          []int32
}

// portfolio draws n random options, alternating calls and puts.
func (s bsInput) portfolio() bsPortfolio {
	pf := bsPortfolio{
		spot: make([]float64, s.n), strike: make([]float64, s.n),
		rate: make([]float64, s.n), vol: make([]float64, s.n),
		otime: make([]float64, s.n), otype: make([]int32, s.n),
	}
	r := rng(42)
	for i := 0; i < s.n; i++ {
		pf.spot[i] = 50 + 100*r.Float64()
		pf.strike[i] = 50 + 100*r.Float64()
		pf.rate[i] = 0.01 + 0.05*r.Float64()
		pf.vol[i] = 0.05 + 0.5*r.Float64()
		pf.otime[i] = 0.25 + 2*r.Float64()
		pf.otype[i] = int32(i % 2) // alternate calls and puts
	}
	// Index 0 carries a textbook reference case checked by Verify.
	pf.spot[0], pf.strike[0], pf.rate[0] = 100, 100, 0.02
	pf.vol[0], pf.otime[0], pf.otype[0] = 0.2, 1, 0
	return pf
}

// bsPrice evaluates the Black–Scholes formula for a call (put=false) or
// put (put=true).
func bsPrice(put bool, s, k, r, v, t float64) float64 {
	sqrtT := math.Sqrt(t)
	d1 := (math.Log(s/k) + (r+v*v/2)*t) / (v * sqrtT)
	d2 := d1 - v*sqrtT
	if put {
		return k*math.Exp(-r*t)*cndf(-d2) - s*cndf(-d1)
	}
	return s*cndf(d1) - k*math.Exp(-r*t)*cndf(d2)
}

// cndf is the cumulative normal distribution function.
func cndf(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

func (k *blackscholes) Verify() error {
	if k.prices == nil {
		return fmt.Errorf("blackscholes: not run")
	}
	// Reference case: S=K=100, r=2%, σ=20%, T=1y call ≈ 8.916.
	if got := k.prices.Data[0]; absf(got-8.916) > 0.01 {
		return fmt.Errorf("blackscholes: reference call priced %.4f, want ≈8.916", got)
	}
	for i := 0; i < k.n; i++ {
		s, strike, r, t := k.spot.Data[i], k.strike.Data[i], k.rate.Data[i], k.otime.Data[i]
		p := k.prices.Data[i]
		disc := strike * math.Exp(-r*t)
		if k.otype.Data[i] == 0 {
			// Call bounds: max(0, S - K e^{-rT}) ≤ C ≤ S.
			if p < math.Max(0, s-disc)-1e-9 || p > s+1e-9 {
				return fmt.Errorf("blackscholes: call %d price %.4f outside [%.4f, %.4f]",
					i, p, math.Max(0, s-disc), s)
			}
		} else {
			// Put bounds: max(0, K e^{-rT} - S) ≤ P ≤ K e^{-rT}.
			if p < math.Max(0, disc-s)-1e-9 || p > disc+1e-9 {
				return fmt.Errorf("blackscholes: put %d price %.4f outside [%.4f, %.4f]",
					i, p, math.Max(0, disc-s), disc)
			}
		}
	}
	return nil
}
