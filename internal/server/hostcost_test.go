package server

import (
	"runtime"
	"testing"

	"hetmp/internal/decstore"
)

// A warm job's host cost is the model, not the scaffolding around it.
// The executor builds a fresh simulated cluster per job; its LLC tag
// and link arrays alone are 2.0 MB, so they must come from the previous job's
// cluster rather than the heap. Measured as TotalAlloc over a run of
// warm jobs.
func TestWarmExecuteAllocations(t *testing.T) {
	const jobs = 50
	const maxPerJob = 256 << 10
	sp := Spec{Tenant: "t0", Region: "w0", Iterations: 2048, Pages: 24, OpsPerByte: 32}
	xcfg := SimExecutorConfig{Seed: 1}
	xcfg.Store = decstore.NewMem(NewSimExecutor(xcfg).Fingerprint())
	x := NewSimExecutor(xcfg)
	for i := 0; i < 2; i++ { // the cold probe, then one warm job to fill the pools
		if _, err := x.Execute(sp); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		res, err := x.Execute(sp)
		if err != nil {
			t.Fatal(err)
		}
		if res.Probes != 0 {
			t.Fatalf("job %d paid %d probes, want a warm run", i, res.Probes)
		}
	}
	runtime.ReadMemStats(&after)
	perJob := (after.TotalAlloc - before.TotalAlloc) / jobs
	t.Logf("warm Execute allocates %d KiB per job", perJob>>10)
	if perJob > maxPerJob {
		t.Errorf("warm Execute allocates %d KiB per job, want ≤ %d KiB", perJob>>10, maxPerJob>>10)
	}
}
