package server

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// The serving golden: LoadReport.Exact of every run below, to the
// nanosecond. It is the serving path's exact record, as
// internal/experiments/testdata/quick_report.json is the simulator's: a
// diff in it is legitimate when it is intended, explained, and committed
// with the change that caused it. `make golden` deletes the file and
// runs this test, which writes it afresh when it is missing.
const loadGoldenPath = "testdata/load_report.json"

type goldenLoad struct {
	Name   string      `json:"name"`
	Report ExactReport `json:"report"`
}

// goldenLoadConfigs are the pinned runs: load-smoke, then the churn
// sweep at seed 1 under each chaos profile. Its "mixed" row is
// churn-smoke without that schedule's last event (a gracehopper node
// joining at dispatch 90). Latency SLOs stay off, so nothing here is
// wall-bound.
func goldenLoadConfigs(t *testing.T) ([]string, []LoadConfig) {
	members, err := ParseMembers("n0:xeon:1,n1:thunderx:1,n2:thunderx:1")
	if err != nil {
		t.Fatal(err)
	}
	churn, err := ParseChurn("remove:n1@30,add:n1:thunderx:1@70")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"load-smoke"}
	cfgs := []LoadConfig{{SimServerConfig: SimServerConfig{Config: Config{MaxInFlight: 8}, Seed: 1},
		Jobs: 200, Tenants: 4, Signatures: 6, SLO: SLO{MinCrossTenantWarm: 10}}}
	for _, p := range []string{"dsm-loss", "link-degrade", "link-flap", "mixed", "node-freeze", "node-straggle"} {
		names = append(names, "churn "+p)
		cfgs = append(cfgs, LoadConfig{Jobs: 120, Tenants: 4, Signatures: 4,
			SimServerConfig: SimServerConfig{Config: Config{Members: members, Churn: churn}, Seed: 1, ChaosProfile: p}})
	}
	return names, cfgs
}

// TestLoadReportMatchesGolden runs every pinned config (concurrently:
// each run owns its server) and compares the projections byte for byte.
// Like the quick golden it is exact on amd64 only, where it was written.
// The race detector moves no number and makes the runs ten times slower,
// so the raced gates leave the numbers to the plain run.
func TestLoadReportMatchesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("serving golden is exact on amd64; not comparing on GOARCH=%s", runtime.GOARCH)
	}
	if raceEnabled {
		t.Skip("the serving golden runs without -race")
	}
	names, cfgs := goldenLoadConfigs(t)
	got := make([]goldenLoad, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r LoadReport
			r, errs[i] = RunLoad(cfg)
			if errs[i] == nil && len(r.SLOFailures) > 0 {
				t.Errorf("%s: SLO failures %v", names[i], r.SLOFailures)
			}
			got[i] = goldenLoad{Name: names[i], Report: r.Exact()}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	golden, err := os.ReadFile(loadGoldenPath)
	if os.IsNotExist(err) {
		if err := os.WriteFile(loadGoldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skipf("no %s to compare against: wrote it; review and commit it", loadGoldenPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if string(golden) == string(data) {
		return
	}
	var want []goldenLoad
	if err := json.Unmarshal(golden, &want); err != nil {
		t.Fatalf("%s: %v", loadGoldenPath, err)
	}
	for i, g := range got {
		if i >= len(want) || !reflect.DeepEqual(want[i], g) {
			w := goldenLoad{}
			if i < len(want) {
				w = want[i]
			}
			wj, _ := json.Marshal(w.Report)
			gj, _ := json.Marshal(g.Report)
			t.Errorf("%s:\n golden %s\n    got %s", g.Name, wj, gj)
		}
	}
	t.Errorf("report differs from %s; if every row above is intended, regenerate it with `make golden`", loadGoldenPath)
}
