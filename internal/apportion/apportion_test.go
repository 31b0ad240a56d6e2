package apportion

import "testing"

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

func TestSplitExact(t *testing.T) {
	cases := []struct {
		n       int
		weights []float64
	}{
		{100, []float64{1, 1, 1}},
		{7, []float64{1, 1}},
		{54321, []float64{1, 2, 3, 4, 5}},
		{1, []float64{0.1, 0.1, 0.1}},
		{10, []float64{1e9, 1}},
		{3, []float64{0, 1}},
		{1000000, []float64{3.7, 2.2, 9.9, 0.0001}},
	}
	for _, c := range cases {
		got := Split(c.n, c.weights)
		if sum(got) != c.n {
			t.Errorf("Split(%d, %v) = %v, sums to %d", c.n, c.weights, got, sum(got))
		}
		for i, g := range got {
			if g < 0 {
				t.Errorf("Split(%d, %v)[%d] = %d, negative", c.n, c.weights, i, g)
			}
		}
	}
}

func TestSplitProportional(t *testing.T) {
	got := Split(100, []float64{3, 1})
	if got[0] != 75 || got[1] != 25 {
		t.Errorf("Split(100, [3 1]) = %v, want [75 25]", got)
	}
}

func TestSplitDeterministicTies(t *testing.T) {
	a := Split(5, []float64{1, 1, 1})
	b := Split(5, []float64{1, 1, 1})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
	// 5/3: each gets 1, remainder 2 goes to the two lowest indices.
	if a[0] != 2 || a[1] != 2 || a[2] != 1 {
		t.Errorf("Split(5, [1 1 1]) = %v, want [2 2 1]", a)
	}
}

func TestSplitDegenerate(t *testing.T) {
	if got := Split(0, []float64{1, 2}); sum(got) != 0 {
		t.Errorf("Split(0, ...) = %v", got)
	}
	if got := Split(-3, []float64{1}); sum(got) != 0 {
		t.Errorf("Split(-3, ...) = %v", got)
	}
	if got := Split(5, nil); len(got) != 0 {
		t.Errorf("Split(5, nil) = %v", got)
	}
	// No positive weight: equal split, nothing lost.
	got := Split(10, []float64{0, 0, 0})
	if sum(got) != 10 {
		t.Errorf("Split(10, zeros) = %v, sums to %d, want 10", got, sum(got))
	}
}

// splitGrid is the small weight grid of the reuse tests: a non-positive
// weight, a fraction, the unit and a paper-like core speed ratio.
var splitGrid = []float64{-1, 0, 0.25, 1, 3.7}

// checkReuse compares one reused splitter's call with a fresh Split.
func checkReuse(t *testing.T, s *Splitter, n int, weights []float64) {
	t.Helper()
	want := Split(n, weights)
	got := s.Split(n, weights)
	if len(got) != len(want) {
		t.Fatalf("reused Split(%d, %v) has %d counts, fresh %d", n, weights, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reused Split(%d, %v) = %v, fresh %v", n, weights, got, want)
		}
	}
}

// One splitter fed every n ≤ 64 over every two-node team of up to 8
// slots and every pair of grid weights, team sizes and n shrinking, so
// each call finds the tail of a larger earlier call in its buffers,
// answers exactly what a fresh Split answers.
func TestSplitterReuseExhaustive(t *testing.T) {
	var s Splitter
	weights := make([]float64, 0, 8)
	for size := 8; size >= 1; size-- {
		for first := size; first >= 0; first-- {
			for _, wa := range splitGrid {
				for _, wb := range splitGrid {
					weights = weights[:0]
					for i := 0; i < size; i++ {
						w := wb
						if i < first {
							w = wa
						}
						weights = append(weights, w)
					}
					for n := 64; n >= 0; n-- {
						checkReuse(t, &s, n, weights)
					}
				}
			}
		}
	}
}

// FuzzSplitterReuse feeds one splitter a sequence of splits decoded
// from the input, each of which must equal a fresh Split.
func FuzzSplitterReuse(f *testing.F) {
	f.Add([]byte{64, 8, 0x43, 0x21, 0, 3, 0x10, 200, 5, 0x44})
	f.Add([]byte{7, 2, 0x11, 0, 1, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Splitter
		// Each split is n, a slot count and one byte per slot pair,
		// whose nibbles index splitGrid and a large weight.
		grid := []float64{-1, 0, 0.25, 1, 3.7, 1e9}
		for len(data) >= 2 {
			n, size := int(data[0])*int(data[0])-64, int(data[1]%9)
			data = data[2:]
			weights := make([]float64, size)
			for i := range weights {
				var b byte
				if len(data) > i/2 {
					b = data[i/2]
				}
				weights[i] = grid[int(b>>(4*(i%2))&0xf)%len(grid)]
			}
			data = data[min(len(data), (size+1)/2):]
			checkReuse(t, &s, n, weights)
		}
	})
}
