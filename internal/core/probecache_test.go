package core

import (
	"testing"
	"testing/quick"
	"time"
)

// Property: EWMA of finite durations stays within [min, max] of its
// inputs.
func TestEWMABoundedProperty(t *testing.T) {
	prop := func(a, b uint32, alphaRaw uint8) bool {
		alpha := 0.05 + 0.9*float64(alphaRaw)/255
		x, y := time.Duration(a), time.Duration(b)
		got := ewmaDur(x, y, alpha)
		lo, hi := x, y
		if lo > hi {
			lo, hi = hi, lo
		}
		return got >= lo && got <= hi
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCSRFromDecisionNormalizes(t *testing.T) {
	d := Decision{PerIterTime: map[int]time.Duration{
		0: 100 * time.Nanosecond,
		1: 300 * time.Nanosecond,
	}}
	csr := CSRFromDecision(d)
	if csr[1] != 1 {
		t.Fatalf("slowest node weight = %v, want 1", csr[1])
	}
	if csr[0] < 2.99 || csr[0] > 3.01 {
		t.Fatalf("fast node weight = %v, want 3", csr[0])
	}
	if got := CSRFromDecision(Decision{}); len(got) != 0 {
		t.Fatalf("empty decision produced CSR %v", got)
	}
}
