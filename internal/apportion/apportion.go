// Package apportion divides integer quantities proportionally to
// real-valued weights using largest-remainder apportionment (Hamilton's
// method). It is the one place the repo computes "split n iterations
// across k workers by speed": the cross-node static scheduler
// (internal/core) and the RPC work distributor (internal/rpc) both use
// it, so a rounding fix lands everywhere at once.
package apportion

// Split divides n into len(weights) non-negative integer counts that
// sum to exactly n, proportional to the weights. Properties:
//
//   - Exact: the counts always sum to n (no iteration lost to rounding,
//     no "last worker absorbs the leftover" skew).
//   - Deterministic: remainders go to the largest fractional parts,
//     ties broken by lowest index.
//   - Weights <= 0 are treated as zero (that slot receives work only
//     through remainder distribution, which proportional slots always
//     win first). If no weight is positive, the split degrades to equal
//     weights so the quantity is still fully assigned.
//
// n <= 0 or an empty weight slice yields all-zero counts. The counts
// are the caller's: Split is a zero Splitter's call.
func Split(n int, weights []float64) []int {
	var s Splitter
	return s.Split(n, weights)
}

// Splitter is Split with buffers that survive across calls, for a
// caller that splits once per region and must not allocate: after the
// first call of a size, a call allocates nothing. The zero value is
// ready to use. A Splitter is not safe for concurrent use.
type Splitter struct {
	counts []int
	rems   []rem
}

// rem is one slot's fractional part; frac < 0 marks a slot that has
// taken its remainder unit.
type rem struct {
	frac float64
	idx  int
}

// Split returns Split(n, weights). The counts are the splitter's own
// buffer: they are valid until its next call.
func (s *Splitter) Split(n int, weights []float64) []int {
	k := len(weights)
	if s.counts == nil || cap(s.counts) < k {
		s.counts = make([]int, k)
		s.rems = make([]rem, k)
	}
	counts := s.counts[:k]
	clear(counts)
	if n <= 0 || k == 0 {
		return counts
	}
	var totalW float64
	for _, w := range weights {
		if w > 0 {
			totalW += w
		}
	}
	weight := func(i int) float64 {
		if totalW == 0 {
			return 1 // degrade to an equal split
		}
		if weights[i] <= 0 {
			return 0
		}
		return weights[i]
	}
	tw := totalW
	if tw == 0 {
		tw = float64(k)
	}
	rems := s.rems[:k]
	assigned := 0
	for i := range weights {
		exact := float64(n) * weight(i) / tw
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = rem{frac: exact - float64(counts[i]), idx: i}
	}
	// Hand the remainder to the largest fractional parts (ties by
	// index for determinism).
	for assigned < n {
		best := -1
		for j := range rems {
			if rems[j].frac < 0 {
				continue
			}
			if best == -1 || rems[j].frac > rems[best].frac {
				best = j
			}
		}
		if best == -1 {
			// All fractional slots consumed (floating-point drift);
			// dump the rest on the first slot to preserve exactness.
			counts[0] += n - assigned
			break
		}
		counts[rems[best].idx]++
		rems[best].frac = -1
		assigned++
	}
	return counts
}
