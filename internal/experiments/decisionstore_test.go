package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hetmp/internal/interconnect"
	"hetmp/internal/kernels"
)

// readStoreFiles returns the contents of every file in a decision
// store directory, keyed by file name.
func readStoreFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// sameDecisions fails the test unless both runs of bench made the same
// decision for the same regions.
func sameDecisions(t *testing.T, bench, gotName string, got Result, wantName string, want Result) {
	t.Helper()
	if len(got.Decisions) != len(want.Decisions) {
		t.Errorf("%s: %d decisions %s, %d %s", bench, len(got.Decisions), gotName, len(want.Decisions), wantName)
	}
	for id, d := range want.Decisions {
		if g := got.Decisions[id].String(); g != d.String() {
			t.Errorf("%s %s: decision %s %s, %s %s", bench, id, g, gotName, d, wantName)
		}
	}
}

// TestDecisionStoreReuse pins what a decision store is allowed to do
// to a run, over all ten benchmarks under HetProbe/RDMA: nothing while
// it has nothing to offer, and only remove the probing period once it
// does — a stored decision is executed as stored, never re-decided,
// and a run that measured nothing writes nothing back.
func TestDecisionStoreReuse(t *testing.T) {
	proto := interconnect.RDMA56()
	dir := t.TempDir()
	runAll := func(storeDir string) map[string]Result {
		t.Helper()
		// A fresh Suite per pass, so the warm pass reopens the store
		// from the file the cold pass saved.
		s := Quick()
		s.DecisionStore = storeDir
		out := make(map[string]Result, len(kernels.PaperOrder))
		for _, bench := range kernels.PaperOrder {
			res, err := s.Run(bench, CfgHetProbe, proto)
			if err != nil {
				t.Fatal(err)
			}
			out[bench] = res
		}
		return out
	}
	storeless := runAll("")
	cold := runAll(dir)
	saved := readStoreFiles(t, dir)
	warm := runAll(dir)

	t.Run("cold run equals storeless run", func(t *testing.T) {
		for _, bench := range kernels.PaperOrder {
			c, p := cold[bench], storeless[bench]
			if c.Time != p.Time || c.Faults != p.Faults {
				t.Errorf("%s: cold run with a store took %v / %d faults, without one %v / %d",
					bench, c.Time, c.Faults, p.Time, p.Faults)
			}
			sameDecisions(t, bench, "with a store", c, "without", p)
		}
	})
	t.Run("warm run is no slower and never re-decides", func(t *testing.T) {
		for _, bench := range kernels.PaperOrder {
			w, c := warm[bench], cold[bench]
			if w.Time > c.Time {
				t.Errorf("%s: warm run %v slower than cold %v", bench, w.Time, c.Time)
			}
			if w.ReDecisions != 0 {
				t.Errorf("%s: warm run adopted %d re-decisions, want 0", bench, w.ReDecisions)
			}
			// Every benchmark, EP-C and lavaMD (probed once a run)
			// included: the same region at the same iteration count
			// is adopted however often it was probed.
			if w.Predictions == 0 || w.Probes != 0 {
				t.Errorf("%s: warm run adopted %d regions and probed %d times, want an adoption and no probe",
					bench, w.Predictions, w.Probes)
			}
			sameDecisions(t, bench, "warm", w, "cold", c)
		}
		// The probe-free fast path to the nanosecond, on blackscholes:
		// what the probing period costs is what the warm run saves.
		c, w := cold["blackscholes"], warm["blackscholes"]
		if c.Probes != 5 || w.Predictions != 1 || c.Time-w.Time != 354889 {
			t.Errorf("blackscholes: %d cold probes, %d warm predictions, %dns saved, want 5, 1, 354889ns",
				c.Probes, w.Predictions, int64(c.Time-w.Time))
		}
	})
	t.Run("warm run leaves the store file untouched", func(t *testing.T) {
		after := readStoreFiles(t, dir)
		if len(after) != len(saved) {
			t.Fatalf("%d store files after the warm pass, %d before", len(after), len(saved))
		}
		for name, want := range saved {
			if !bytes.Equal(after[name], want) {
				t.Errorf("%s changed during the warm pass:\n got %s\nwant %s", name, after[name], want)
			}
		}
	})
}

// TestRejectedStoreSaysWhy: a store file the run cannot use (here one
// a schema-1 binary saved) still only costs the probing it would have
// saved, but the suite says so, once per file, instead of leaving "0
// predictions" unexplained.
func TestRejectedStoreSaysWhy(t *testing.T) {
	proto := interconnect.RDMA56()
	dir := t.TempDir()
	s := Quick()
	s.DecisionStore = dir
	if _, err := s.Run("EP-C", CfgHetProbe, proto); err != nil {
		t.Fatal(err)
	}
	for name, data := range readStoreFiles(t, dir) {
		old := bytes.Replace(data, []byte(`"schema_version": 3`), []byte(`"schema_version": 1`), 1)
		if bytes.Equal(old, data) {
			t.Fatalf("%s carries no schema_version 3 to rewrite:\n%s", name, data)
		}
		if err := os.WriteFile(filepath.Join(dir, name), old, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var warned bytes.Buffer
	s = Quick()
	s.DecisionStore = dir
	s.warn = &warned
	for i := 0; i < 2; i++ {
		res, err := s.Run("EP-C", CfgHetProbe, proto)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && (res.Predictions != 0 || res.Probes == 0) {
			t.Errorf("run over a schema-1 file: %d predictions, %d probes, want it to probe", res.Predictions, res.Probes)
		}
	}
	if got := warned.String(); strings.Count(got, "\n") != 1 || !strings.Contains(got, "schema version 1, want 2 or 3") {
		t.Errorf("two runs over one schema-1 file warned %q, want one line naming the two versions", got)
	}
}

// TestRunSimulatesEveryCall: Suite.Run is not memoized — hetmprun and
// the benchmark harness time one simulation per call — so a second Run
// of the same cell on a suite with a store adopts what the first one
// saved instead of repeating its result.
func TestRunSimulatesEveryCall(t *testing.T) {
	proto := interconnect.RDMA56()
	s := Quick()
	s.DecisionStore = t.TempDir()
	first, err := s.Run("EP-C", CfgHetProbe, proto)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Run("EP-C", CfgHetProbe, proto)
	if err != nil {
		t.Fatal(err)
	}
	if first.Probes == 0 || second.Predictions == 0 || second.Probes != 0 {
		t.Errorf("two Runs of EP-C: first probed %d times, second adopted %d regions and probed %d times; want the second to adopt what the first probed",
			first.Probes, second.Predictions, second.Probes)
	}
}

// TestEmptyStoreFigure6EqualsGolden: a report over an empty store is
// the storeless report, at any Parallel. Every report cell is one run,
// so no HetProbe run adopts what another run of its own cell saved.
func TestEmptyStoreFigure6EqualsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden report is exact on amd64; not byte-comparing on GOARCH=%s", runtime.GOARCH)
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden Report
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(golden.Fig6, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		s := Quick()
		s.Parallel = par
		s.DecisionStore = t.TempDir()
		rep, err := s.Report("fig6", io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(rep.Fig6, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, want) {
			continue
		}
		for i, row := range rep.Fig6.Rows {
			for _, cfg := range Configs {
				if g, w := row.Times[cfg], golden.Fig6.Rows[i].Times[cfg]; g != w {
					t.Errorf("Parallel %d: %s under %s took %v over an empty store, %v in %s", par, row.Benchmark, cfg, g, w, goldenPath)
				}
			}
		}
		t.Errorf("Parallel %d: fig6 over an empty store differs from the storeless fig6 in %s", par, goldenPath)
	}
}
