package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// The golden report: every number hetbench -quick prints, to the
// nanosecond. There is no -update flag, the command is the updater. A
// diff in the file is legitimate when it is intended, explained, and
// committed with the change that caused it (DESIGN.md §12).
const (
	goldenPath = "testdata/quick_report.json"
	regenerate = "go run ./cmd/hetbench -quick -json internal/experiments/" + goldenPath
)

// quickSuite computes the whole quick report once per test binary. The
// golden compare and the expectation tests share the report and the
// suite, whose caches then hold every threshold and HetProbe decision.
var (
	quickSuite = Quick()
	quickOnce  = sync.OnceValues(func() (*Report, error) {
		quickSuite.Parallel = runtime.GOMAXPROCS(0)
		return quickSuite.Report("", io.Discard)
	})
)

func quickReport(t *testing.T) (*Suite, *Report) {
	t.Helper()
	rep, err := quickOnce()
	if err != nil {
		t.Fatal(err)
	}
	return quickSuite, rep
}

// goldenDiff returns "" when got is the golden byte for byte, else
// every differing line as "golden → got" and the command that
// regenerates the file.
func goldenDiff(golden, got []byte) string {
	if bytes.Equal(golden, got) {
		return ""
	}
	w, g := strings.Split(string(golden), "\n"), strings.Split(string(got), "\n")
	n := max(len(w), len(g))
	w, g = append(w, make([]string, n-len(w))...), append(g, make([]string, n-len(g))...)
	var sb strings.Builder
	for i := range n {
		if wl, gl := strings.TrimSpace(w[i]), strings.TrimSpace(g[i]); wl != gl {
			fmt.Fprintf(&sb, "line %d: %s → %s\n", i+1, wl, gl)
		}
	}
	return sb.String() + "report differs from " + goldenPath + "; if every line above is intended, regenerate it with\n\t" + regenerate
}

// TestQuickReportMatchesGolden is the exact-number gate. The report is
// computed on every GOARCH (the expectation tests read it), but Go may
// fuse x*y+z on arm64, ppc64le, s390x and riscv64, so nanoseconds
// derived from float arithmetic are compared only where the golden was
// written: amd64.
func TestQuickReportMatchesGolden(t *testing.T) {
	_, rep := quickReport(t)
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden report is exact on amd64; not byte-comparing on GOARCH=%s", runtime.GOARCH)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if diff := goldenDiff(golden, append(got, '\n')); diff != "" {
		t.Error(diff)
	}
}

// TestGoldenDiffNamesLineValuesAndCommand edits one number in a copy of
// the golden and checks the mismatch report is enough to act on.
func TestGoldenDiffNamesLineValuesAndCommand(t *testing.T) {
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	const n = 7 // fig1[0].HetMP
	lines := strings.Split(string(golden), "\n")
	was := strings.TrimSpace(lines[n-1])
	lines[n-1] += "0"
	diff := goldenDiff(golden, []byte(strings.Join(lines, "\n")))
	want := fmt.Sprintf("line %d: %s → %s0\n", n, was, was)
	if !strings.HasPrefix(diff, want) || strings.Count(diff, "→") != 1 || !strings.HasSuffix(diff, regenerate) {
		t.Errorf("goldenDiff on one edited number printed\n%s\nwant exactly one line %q and the command %q", diff, want, regenerate)
	}
	if same := goldenDiff(golden, golden); same != "" {
		t.Errorf("goldenDiff of the golden with itself = %q", same)
	}
}
