package main

import (
	"os/exec"
	"strings"
	"testing"
)

// suite is the documented analyzer set, in -list order. CI greps for
// the same names; drift between this list, analyzers.All(), and the
// README table fails either the test or the workflow.
var suite = []string{
	"blockinglock",
	"dsmstate",
	"lockorder",
	"maporder",
	"randsource",
	"telemetryhandle",
	"wallclock",
}

// runLint executes the linter via `go run .` against fixture packages
// and returns its exit code and combined output. Using the real binary
// (not run() in-process) pins the full path: flag parsing, go list
// loading, type checking, suppression filtering, stale-suppression
// reporting, and the exit status CI depends on.
func runLint(t *testing.T, patterns ...string) (int, string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "."}, patterns...)...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("go run failed to execute: %v\n%s", err, out)
	}
	return ee.ExitCode(), string(out)
}

// TestBadFixtureFailsEveryAnalyzer pins that hetmplint exits non-zero
// on fixtures violating all seven invariants plus the stale-suppression
// rule, and that every analyzer contributes at least one finding — so
// a future refactor cannot silently turn the linter into a no-op.
func TestBadFixtureFailsEveryAnalyzer(t *testing.T) {
	code, out := runLint(t, "./testdata/src/core", "./testdata/src/dsm")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\noutput:\n%s", code, out)
	}
	for _, name := range append(append([]string{}, suite...), "staleallow") {
		if !strings.Contains(out, "["+name+"]") {
			t.Errorf("no %s finding on the bad fixtures\noutput:\n%s", name, out)
		}
	}
	// maporder's key-collect branch: keys gathered and never sorted.
	if !strings.Contains(out, "append to slice declared outside the loop") {
		t.Errorf("no finding on the unsorted key-collect\noutput:\n%s", out)
	}
}

// TestCleanFixtureExitsZero also covers the live-suppression path: the
// clean fixture carries one //hetmp:allow whose check fires, which
// must neither surface as a finding nor as a stale suppression.
func TestCleanFixtureExitsZero(t *testing.T) {
	code, out := runLint(t, "./testdata/src/clean")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\noutput:\n%s", code, out)
	}
}

func TestListFlag(t *testing.T) {
	cmd := exec.Command("go", "run", ".", "-list")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("hetmplint -list: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if len(lines) != len(suite) {
		t.Errorf("-list printed %d analyzers, want %d:\n%s", len(lines), len(suite), out)
	}
	for i, name := range suite {
		if i < len(lines) && !strings.HasPrefix(lines[i], name) {
			t.Errorf("-list line %d = %q, want prefix %q", i, lines[i], name)
		}
	}
}
