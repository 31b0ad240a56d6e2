package hetmp_test

import (
	"math"
	"os"
	"sort"
	"testing"
	"time"
)

// skipUnlessWallGuard skips a wall-clock test unless HETMP_WALL_GUARD
// is set: wall time on a loaded host says nothing, so these tests run
// alone, in `make wall-guard`, a CI step of its own after the tests.
func skipUnlessWallGuard(t *testing.T) {
	t.Helper()
	if os.Getenv("HETMP_WALL_GUARD") == "" {
		t.Skip("wall-clock comparison; run it alone with make wall-guard")
	}
	if raceEnabled {
		t.Skip("wall-clock comparison; meaningless under the race detector")
	}
}

// checkWallBudget is the one wall-clock check: it times pairs of runs
// of base and treated, interleaved (base first and treated first in
// turn), and applies a one-sided sign test to the pairs whose treated
// run exceeds the 5 % budget. It fails when that count is improbable
// (p < 0.05) for an overhead of exactly 5 %.
func checkWallBudget(t *testing.T, what string, base, treated func() time.Duration) {
	t.Helper()
	skipUnlessWallGuard(t)
	const (
		pairs  = 200
		budget = 1.05
		alpha  = 0.05
	)
	base() // one untimed run of each: inputs, pools
	treated()
	over := 0
	ratios := make([]float64, pairs)
	for i := range ratios {
		var off, on time.Duration
		if i%2 == 0 {
			off, on = base(), treated()
		} else {
			on, off = treated(), base()
		}
		ratios[i] = float64(on) / float64(off)
		if ratios[i] > budget {
			over++
		}
	}
	p := signTestP(over, pairs)
	sort.Float64s(ratios)
	t.Logf("%d pairs: with %s / without, median %.3f (quartiles %.3f, %.3f); %d over %.2f, sign test p = %.4f",
		pairs, what, ratios[pairs/2], ratios[pairs/4], ratios[3*pairs/4], over, budget, p)
	if p < alpha {
		t.Errorf("%s exceeds the 5 %% wall budget: %d of %d pairs over it (p = %.4f), median ratio %.3f",
			what, over, pairs, p, ratios[pairs/2])
	}
}

// signTestP is the one-sided sign test's p-value: the probability of k
// or more successes in n fair coin flips.
func signTestP(k, n int) float64 {
	p, c := 0.0, 1.0 // c = C(n, i)
	for i := 0; i <= n; i++ {
		if i >= k {
			p += c
		}
		c = c * float64(n-i) / float64(i+1)
	}
	return p / math.Pow(2, float64(n))
}
