package main

import (
	"strings"
	"testing"

	"hetmp/internal/benchfmt"
)

func snap(nsPerOp float64, metrics map[string]float64) *benchfmt.File {
	return &benchfmt.File{Benchmarks: map[string]benchfmt.Bench{
		"Figure6": {NsPerOp: nsPerOp, Metrics: metrics},
	}}
}

// TestExactMetricStillGuarded: a virtual-time metric that moves in
// either direction fails; an identical snapshot passes.
func TestExactMetricStillGuarded(t *testing.T) {
	base := snap(1000, map[string]float64{"hetprobe-geomean-x": 0.78})
	for _, cur := range []float64{0.77, 0.79} {
		failures := compare(base, snap(1000, map[string]float64{"hetprobe-geomean-x": cur}), 0)
		if len(failures) != 1 || !strings.Contains(failures[0], "drifted") {
			t.Errorf("current %g vs baseline 0.78: want one drift failure, got %v", cur, failures)
		}
	}
	if failures := compare(base, base, 0); len(failures) != 0 {
		t.Errorf("identical snapshot should pass, got %v", failures)
	}
}

// TestMissingStillFails: a benchmark or a metric the baseline has and
// the current snapshot lacks is a failure, not a skip.
func TestMissingStillFails(t *testing.T) {
	base := snap(1000, map[string]float64{"hetprobe-geomean-x": 0.78})
	failures := compare(base, snap(1000, nil), 0)
	if len(failures) != 1 || !strings.Contains(failures[0], `metric "hetprobe-geomean-x" missing`) {
		t.Errorf("missing metric: got %v", failures)
	}
	failures = compare(base, &benchfmt.File{}, 0)
	if len(failures) != 1 || !strings.Contains(failures[0], "Figure6: missing") {
		t.Errorf("missing benchmark: got %v", failures)
	}
}

// TestWallClockNotCompared: ns/op and "-wall" metrics are single
// samples of a drifting host and never fail the guard.
func TestWallClockNotCompared(t *testing.T) {
	base := snap(1000, map[string]float64{"jobs/s-wall": 230, "cache-hits": 114})
	cur := snap(9000, map[string]float64{"jobs/s-wall": 23, "cache-hits": 114})
	if failures := compare(base, cur, 0); len(failures) != 0 {
		t.Errorf("wall-clock drift should not fail, got %v", failures)
	}
}
