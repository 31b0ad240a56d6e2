// Command benchguard compares a fresh benchmark snapshot against the
// committed baseline (BENCH_hetmp.json) and fails when the modelled
// system moved. Custom metrics are virtual-time results, deterministic
// across machines: any drift beyond -metric-tolerance (default 0,
// exact) is a behavioral change, not noise, and fails in both
// directions, as does a benchmark or metric missing from the snapshot.
// Wall-clock values — ns/op and metrics whose name ends in "-wall"
// (e.g. jobs/s-wall) — are single -benchtime 1x samples on a host that
// drifts more than any budget worth setting, so they are recorded but
// not compared; benchmark/ is the yardstick for wall time.
//
// Usage:
//
//	benchguard -baseline BENCH_hetmp.json -current /tmp/BENCH_current.json
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"hetmp/internal/benchfmt"
)

func main() {
	var (
		basePath  = flag.String("baseline", "BENCH_hetmp.json", "committed baseline file")
		curPath   = flag.String("current", "", "freshly measured snapshot (benchjson output)")
		metricTol = flag.Float64("metric-tolerance", 0, "allowed relative drift for custom (virtual-time) metrics")
	)
	flag.Parse()
	if *curPath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -current is required")
		os.Exit(2)
	}
	base, err := benchfmt.Load(*basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	cur, err := benchfmt.Load(*curPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	failures := compare(base, cur, *metricTol)
	for _, f := range failures {
		fmt.Println("FAIL:", f)
	}
	if len(failures) > 0 {
		fmt.Printf("benchguard: %d regression(s) vs %s\n", len(failures), *basePath)
		os.Exit(1)
	}
	fmt.Printf("benchguard: %d benchmarks within budget (metric tolerance %g%%)\n",
		len(base.Benchmarks), *metricTol*100)
}

func compare(base, cur *benchfmt.File, metricTol float64) []string {
	var failures []string
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base.Benchmarks[name]
		c, ok := cur.Benchmarks[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from current snapshot", name))
			continue
		}
		metrics := make([]string, 0, len(b.Metrics))
		for m := range b.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			bv := b.Metrics[m]
			cv, ok := c.Metrics[m]
			if !ok {
				failures = append(failures, fmt.Sprintf("%s: metric %q missing from current snapshot", name, m))
				continue
			}
			if strings.HasSuffix(m, "-wall") {
				continue
			}
			if !within(bv, cv, metricTol) {
				failures = append(failures, fmt.Sprintf("%s: metric %q = %g, baseline %g (deterministic virtual-time value drifted)",
					name, m, cv, bv))
			}
		}
	}
	return failures
}

// within reports whether cur is within rel relative drift of base
// (exact match required when rel is 0 or base is 0).
func within(base, cur, rel float64) bool {
	if base == cur {
		return true
	}
	if base == 0 || rel == 0 {
		return false
	}
	return math.Abs(cur-base)/math.Abs(base) <= rel
}
