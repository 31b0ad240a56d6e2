package kernels

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// fullScanNearest is the assign loop's former search: every center in
// index order, the first strictly nearer one replacing the best.
func fullScanNearest(p, centers []float64, k int) (int, float64) {
	best, bestD := 0, math.MaxFloat64
	for c := 0; c < k; c++ {
		ctr := centers[c*len(p) : (c+1)*len(p)]
		d := 0.0
		for j := range p {
			diff := p[j] - ctr[j]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// fuzzCoords decodes one coordinate per byte so that ties, duplicate
// centers and special values are common: the low bytes name ±0, NaN,
// ±Inf, ±MaxFloat64, the smallest subnormal and 1e154 (whose square
// sums overflow), 0xff takes the next 8 bytes as raw bits, and every
// other byte is a small multiple of ½.
func fuzzCoords(b []byte) []float64 {
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e154}
	var out []float64
	for i := 0; i < len(b); i++ {
		switch {
		case int(b[i]) < len(special):
			out = append(out, special[b[i]])
		case b[i] == 0xff && i+8 < len(b):
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b[i+1:])))
			i += 8
		default:
			out = append(out, float64(int8(b[i]))/2)
		}
	}
	return out
}

// FuzzNearestCenter: the partial-distance search returns the full
// scan's index and the bits of its distance for any point and centers,
// for every center it may measure first. The seed corpus in
// testdata/fuzz/FuzzNearestCenter covers k = 1, zero dimensions,
// duplicate centers, all-NaN distances, infinite coordinates and
// overflowing sums.
func FuzzNearestCenter(f *testing.F) {
	f.Fuzz(func(t *testing.T, kb, dimsb uint8, coords []byte) {
		k, dims := 1+int(kb)%12, int(dimsb)%20
		vals := fuzzCoords(coords)
		xs := make([]float64, (k+1)*dims)
		for i := range xs {
			if len(vals) > 0 {
				xs[i] = vals[i%len(vals)]
			}
		}
		p, centers := xs[:dims], xs[dims:]
		wantC, wantD := fullScanNearest(p, centers, k)
		// A settled assignment measures only the point's member, the
		// full scan's answer: its distance must carry the same bits
		// whenever it is below math.MaxFloat64, the shortcut's test.
		if d, ok := dist2Within(p, centers[wantC*dims:], math.MaxFloat64, false); ok && math.Float64bits(d) != math.Float64bits(wantD) {
			t.Fatalf("k=%d p=%v centers=%v: member %d measured alone is %v, full scan %v", k, p, centers, wantC, d, wantD)
		}
		for first := 0; first < k; first++ {
			c, d := nearestCenter(p, centers, k, first)
			if c != wantC || math.Float64bits(d) != math.Float64bits(wantD) {
				t.Fatalf("k=%d first=%d p=%v centers=%v: got (%d, %v), full scan (%d, %v)",
					k, first, p, centers, c, d, wantC, wantD)
			}
		}
	})
}

// updateCenters reports a settled update only when no center moved by
// a bit, and leaves an empty cluster's center where it was.
func TestUpdateCentersReportsMoves(t *testing.T) {
	const dims = 2
	res := &kmAssign{sums: []float64{2, 4, 0, 0, 9, 3}, sizes: []int64{2, 0, 3}}
	centers := []float64{0, 0, 7, 7, 0, 0}
	if updateCenters(centers, res, dims) {
		t.Fatal("an update that moved two centers reported them settled")
	}
	if want := []float64{1, 2, 7, 7, 3, 1}; !slices.Equal(centers, want) {
		t.Fatalf("centers = %v, want %v", centers, want)
	}
	if !updateCenters(centers, res, dims) {
		t.Fatal("an update that moved nothing reported a move")
	}
	res.sums[4] = 12
	if updateCenters(centers, res, dims) {
		t.Fatal("an update that moved one coordinate of a settled center reported it settled")
	}
	centers[0] = math.Copysign(0, -1)
	res.sums[0], res.sums[1], res.sizes = 0, 2, []int64{1, 0, 3}
	if updateCenters(centers, res, dims) {
		t.Fatal("-0 → +0 is a move: the next assignment would read other bits")
	}
}
