package server

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"hetmp/internal/decstore"
)

func simServer(t *testing.T, cfg SimServerConfig) (*RegionServer, *SimExecutor) {
	t.Helper()
	s, x, err := NewSimServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, x
}

// The tentpole invariant: tenant B's first submission of a region
// tenant A already probed takes the probe-free fast path — across the
// whole run, lane-warm jobs pay zero probing periods.
func TestCrossTenantWarmSharing(t *testing.T) {
	s, _ := simServer(t, SimServerConfig{Config: Config{StartPaused: true, MaxInFlight: 4, QueueDepth: 64}})
	defer s.Close()

	// Three tenants, two jobs each, all the same region signature,
	// dispatched concurrently: exactly one cold probe run, five warm.
	var specs []Spec
	for _, tenant := range []string{"alice", "bob", "carol"} {
		for j := 0; j < 2; j++ {
			specs = append(specs, Spec{Tenant: tenant, Region: "shared", Iterations: 2048, Pages: 24})
		}
	}
	chans := preload(t, s, specs)
	s.Resume()
	results := collect(chans)

	cold, warm := 0, 0
	var coldTenant string
	var warmVirtual int64
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if r.Probes > 0 {
			cold++
			coldTenant = r.Tenant
		} else {
			warm++
			if r.Predictions == 0 {
				t.Fatalf("job %d (tenant %s): zero probes but zero predictions — ran on a stale path", i, r.Tenant)
			}
			if warmVirtual == 0 {
				warmVirtual = r.VirtualNs
			} else if r.VirtualNs != warmVirtual {
				t.Fatalf("warm runs differ in virtual time: %d vs %d", r.VirtualNs, warmVirtual)
			}
		}
	}
	if cold != 1 || warm != 5 {
		t.Fatalf("cold=%d warm=%d, want 1 cold probe and 5 warm runs", cold, warm)
	}
	st := s.Stats()
	if st.WarmProbes != 0 {
		t.Fatalf("warm cross-tenant probes = %d, want 0", st.WarmProbes)
	}
	if st.CacheHits != 5 || st.CacheMisses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 5/1", st.CacheHits, st.CacheMisses)
	}
	// Warm jobs from tenants other than the prober are cross-tenant
	// hits; the prober's own second job is a same-tenant hit.
	wantXT := 0
	for _, r := range results {
		if r.Warm && r.Tenant != coldTenant {
			wantXT++
		}
	}
	if wantXT != 4 {
		t.Fatalf("expected 4 warm jobs from non-prober tenants, got %d", wantXT)
	}
	if st.CrossTenantWarm != wantXT {
		t.Fatalf("CrossTenantWarm = %d, want %d", st.CrossTenantWarm, wantXT)
	}
}

// A signature warms after its first job however few invocations that
// job probed: five identical jobs, one after another, pay one job's
// probes between them.
func TestWarmAfterOneJobWhateverItsInvocations(t *testing.T) {
	for invs := 1; invs <= 4; invs++ {
		s, _ := simServer(t, SimServerConfig{})
		var probes, predictions []int
		for job := 0; job < 5; job++ {
			r, err := s.Submit(Spec{Tenant: "t", Region: "r", Invocations: invs})
			if err != nil || r.Err != nil {
				t.Fatalf("%d invocations, job %d: %v / %v", invs, job, err, r.Err)
			}
			if r.Warm != (job > 0) {
				t.Errorf("%d invocations, job %d: Warm = %v", invs, job, r.Warm)
			}
			probes = append(probes, r.Probes)
			predictions = append(predictions, r.Predictions)
		}
		if want := []int{invs, 0, 0, 0, 0}; !slices.Equal(probes, want) {
			t.Errorf("%d invocations: probes per job = %v, want %v", invs, probes, want)
		}
		if want := []int{0, 1, 1, 1, 1}; !slices.Equal(predictions, want) {
			t.Errorf("%d invocations: predictions per job = %v, want %v", invs, predictions, want)
		}
		if st := s.Stats(); st.WarmProbes != 0 || st.CacheHits != 4 {
			t.Errorf("%d invocations: WarmProbes = %d, CacheHits = %d, want 0 and 4", invs, st.WarmProbes, st.CacheHits)
		}
		s.Close()
	}
}

// A persistent cache directory carries probes across server restarts:
// the second server's very first job runs warm.
func TestWarmAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, x1 := simServer(t, SimServerConfig{Config: Config{MaxInFlight: 2}, CacheDir: dir})
	r1, err := s1.Submit(Spec{Tenant: "alice", Region: "persist", Iterations: 2048, Pages: 24})
	if err != nil || r1.Err != nil {
		t.Fatalf("first run: %v / %v", err, r1.Err)
	}
	if r1.Probes == 0 {
		t.Fatal("first-ever run should probe")
	}
	if err := x1.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	s1.Close()

	var logged []string
	logf := func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) }
	s2, _ := simServer(t, SimServerConfig{Config: Config{MaxInFlight: 2, Logf: logf}, CacheDir: dir})
	defer s2.Close()
	if len(logged) != 1 || !strings.Contains(logged[0], "(1 warm entries)") {
		t.Fatalf("restarted server should open the one persisted entry; log %q", logged)
	}
	r2, err := s2.Submit(Spec{Tenant: "bob", Region: "persist", Iterations: 2048, Pages: 24})
	if err != nil || r2.Err != nil {
		t.Fatalf("second run: %v / %v", err, r2.Err)
	}
	if r2.Probes != 0 || r2.Predictions == 0 {
		t.Fatalf("restarted server's first job: probes=%d predictions=%d, want probe-free", r2.Probes, r2.Predictions)
	}
}

// Differently-shaped jobs (distinct signatures) don't cross-pollinate:
// each signature pays its own cold probe once.
func TestSignatureIsolation(t *testing.T) {
	s, _ := simServer(t, SimServerConfig{Config: Config{StartPaused: true, MaxInFlight: 4}})
	defer s.Close()
	specs := []Spec{
		{Tenant: "a", Region: "small", Iterations: 1024, Pages: 16},
		{Tenant: "b", Region: "small", Iterations: 1024, Pages: 16},
		{Tenant: "a", Region: "large", Iterations: 4096, Pages: 48},
		{Tenant: "b", Region: "large", Iterations: 4096, Pages: 48},
	}
	chans := preload(t, s, specs)
	s.Resume()
	results := collect(chans)
	coldBySig := map[string]int{}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.Probes > 0 {
			coldBySig[r.Sig]++
		}
	}
	if len(coldBySig) != 2 {
		t.Fatalf("cold probes covered %d signatures, want 2 (one per shape): %v", len(coldBySig), coldBySig)
	}
	for sig, n := range coldBySig {
		if n != 1 {
			t.Fatalf("signature %s probed %d times, want once", sig, n)
		}
	}
	if st := s.Stats(); st.WarmProbes != 0 {
		t.Fatalf("warm probes = %d, want 0", st.WarmProbes)
	}
}

// A fresh persistent cache directory starts cold: the first job probes
// instead of adopting anything.
func TestFreshDirStartsCold(t *testing.T) {
	var logged []string
	logf := func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) }
	s, _ := simServer(t, SimServerConfig{Config: Config{MaxInFlight: 1, Logf: logf}, CacheDir: t.TempDir()})
	if len(logged) == 0 || !strings.Contains(logged[0], "(0 warm entries)") {
		t.Fatalf("fresh dir store should open empty; log %q", logged)
	}
	defer s.Close()
	r, err := s.Submit(Spec{Tenant: "a", Region: "r", Iterations: 1024, Pages: 16})
	if err != nil || r.Err != nil {
		t.Fatalf("%v / %v", err, r.Err)
	}
	if r.Probes == 0 {
		t.Fatal("cold store should probe")
	}
}

// The default executor's fingerprint is the -cache-dir binding key: a
// change here sends every store already on disk cold, so it is pinned
// to the value existing stores were written under.
func TestDefaultFingerprintPinned(t *testing.T) {
	const want = "c50096c9d735ef33"
	if got := NewSimExecutor(SimExecutorConfig{}).Fingerprint(); got != want {
		t.Fatalf("default executor fingerprint = %s, want %s (existing hetserve -cache-dir stores would go cold)", got, want)
	}
}

// A whole-job chunk is the job: Execute(sp) and ExecuteChunk(sp, all
// invocations, index 0) reach the same seed, so the single job path may
// use either. Checked cold (both probe) and warm (both adopt their own
// cold entry), chaos off and on.
func TestWholeJobChunkEqualsExecute(t *testing.T) {
	sp := Spec{Tenant: "a", Region: "r", Iterations: 2048, Pages: 24, Invocations: 5}
	for _, profile := range []string{"", "mixed"} {
		fresh := func() *SimExecutor {
			xcfg := SimExecutorConfig{Seed: 3, ChaosProfile: profile}
			xcfg.Store = decstore.NewMem(NewSimExecutor(xcfg).Fingerprint())
			return NewSimExecutor(xcfg)
		}
		whole, chunked := fresh(), fresh()
		for _, phase := range []string{"cold", "warm"} {
			a, err := whole.Execute(sp)
			if err != nil {
				t.Fatalf("chaos %q %s Execute: %v", profile, phase, err)
			}
			b, err := chunked.ExecuteChunk(sp, sp.Invocations, 0)
			if err != nil {
				t.Fatalf("chaos %q %s ExecuteChunk: %v", profile, phase, err)
			}
			if a != b {
				t.Errorf("chaos %q %s: Execute = %+v, ExecuteChunk(all, 0) = %+v", profile, phase, a, b)
			}
			if cold := phase == "cold"; cold != (a.Probes > 0) {
				t.Errorf("chaos %q %s run paid %d probes", profile, phase, a.Probes)
			}
		}
	}
}

// A re-probe is a run over a store that answers no: with the signature
// stored, Reprobe adopts nothing and pays exactly the cold job's
// probes and virtual time (the same seed), overwrites the entry, and
// the next job adopts the re-measured entry probe-free.
func TestReprobeIgnoresStoredEntry(t *testing.T) {
	sp := Spec{Tenant: "a", Region: "r", Iterations: 2048, Pages: 24, Invocations: 5}
	xcfg := SimExecutorConfig{Seed: 3}
	xcfg.Store = decstore.NewMem(NewSimExecutor(xcfg).Fingerprint())
	x := NewSimExecutor(xcfg)
	cold, err := x.Execute(sp)
	if err != nil || cold.Probes == 0 {
		t.Fatalf("cold job: %+v, %v; want it to probe", cold, err)
	}
	re, err := x.Reprobe(sp, []string{"gracehopper"})
	if err != nil || re != cold {
		t.Fatalf("Reprobe = %+v, %v; want the cold job's %+v", re, err, cold)
	}
	if warm, err := x.Execute(sp); err != nil || warm.Probes != 0 || warm.Predictions != 1 {
		t.Fatalf("job after the re-probe: %+v, %v; want a probe-free adoption", warm, err)
	}
}
