package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// The in-process equivalent of `make load-smoke`, same config:
// deterministic dispatch (run twice), all SLOs met, and the cache
// traffic of one cold probe per signature. Its virtual time and
// dispatch order are pinned by the serving golden's load-smoke row.
func TestRunLoadVerifiedSmoke(t *testing.T) {
	report, err := RunLoadVerified(LoadConfig{
		Jobs: 200, Tenants: 4, Signatures: 6,
		SimServerConfig: SimServerConfig{Config: Config{MaxInFlight: 8}, Seed: 1},
		SLO: SLO{
			MinCrossTenantWarm: 10,
			MaxRejections:      0,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.DeterminismChecked || !report.DeterminismOK {
		t.Fatalf("determinism check failed: %+v", report.SLOFailures)
	}
	if len(report.SLOFailures) != 0 {
		t.Fatalf("SLO failures: %v", report.SLOFailures)
	}
	if report.Completed != 200 {
		t.Fatalf("completed %d, want 200", report.Completed)
	}
	// One cold probe per signature, every other job a hit, and no warm
	// run ever probes (cross-tenant ones included).
	if report.CacheHits != 194 || report.CacheMisses != 6 || report.WarmProbes != 0 {
		t.Errorf("cache hits/misses/warm probes = %d/%d/%d, want 194/6/0",
			report.CacheHits, report.CacheMisses, report.WarmProbes)
	}
	// The report must be valid JSON (hetload's output contract).
	if _, err := json.MarshalIndent(report, "", "  "); err != nil {
		t.Fatalf("report marshal: %v", err)
	}
}

func TestParseWeights(t *testing.T) {
	got, err := ParseWeights("gold=4, silver=2.5")
	if err != nil || len(got) != 2 || got["gold"] != 4 || got["silver"] != 2.5 {
		t.Fatalf("ParseWeights = %v, %v", got, err)
	}
	if got, err := ParseWeights(""); got != nil || err != nil {
		t.Fatalf("ParseWeights(\"\") = %v, %v, want nil, nil", got, err)
	}
	for _, bad := range []string{"gold", "=2", "gold=x", "gold=0", "gold=-1", "gold=NaN", "gold=+Inf", "gold=-Inf", "t0=NaN,t1=+Inf"} {
		if w, err := ParseWeights(bad); err == nil {
			t.Errorf("ParseWeights(%q) = %v, want an error", bad, w)
		}
	}
}

// FuzzParseWeights: ParseWeights never panics, and every weight it
// accepts belongs to a named tenant and is positive and finite. The
// seed corpus in testdata/fuzz/FuzzParseWeights holds the README and
// hetserve example weights and the NaN / +Inf values the parser used to
// accept.
func FuzzParseWeights(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		ws, err := ParseWeights(s)
		if err != nil {
			return
		}
		for tenant, w := range ws {
			if tenant == "" || !(w > 0) || math.IsInf(w, 1) {
				t.Fatalf("%q: tenant %q has weight %v", s, tenant, w)
			}
		}
	})
}

// NoPreload mode exercises live backpressure: a tiny queue rejects
// bursts, retries with backoff land everything eventually.
func TestRunLoadBackpressure(t *testing.T) {
	report, err := RunLoad(LoadConfig{
		Jobs: 30, Tenants: 3, Signatures: 2,
		SimServerConfig: SimServerConfig{Config: Config{QueueDepth: 4, MaxInFlight: 2}, Seed: 11},
		NoPreload:       true,
		MaxRetries:      200,
		SLO:             SLO{MaxRejections: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Completed != 30 {
		t.Fatalf("completed %d of 30 despite retries (rejections=%d retries=%d)", report.Completed, report.Rejections, report.Retries)
	}
	if len(report.SLOFailures) != 0 {
		t.Fatalf("SLO failures: %v", report.SLOFailures)
	}
	if report.Rejections != report.Retries {
		t.Fatalf("every rejection should be retried: rejections=%d retries=%d", report.Rejections, report.Retries)
	}
}

// Chaos-on load must meet each named profile's latency budget and
// rejection bound — not merely complete. Every profile in the
// ChaosSLOs table gets a run with its own p95/p99 wait+service gates
// and MaxRejections 0 (preload mode admits everything, so any
// rejection is a bug, chaos or not). Determinism is not asserted
// under chaos.
func TestRunLoadChaosProfileSLOs(t *testing.T) {
	profiles := []string{"link-degrade", "link-flap", "dsm-loss", "node-straggle", "node-freeze", "mixed"}
	for _, profile := range profiles {
		t.Run(profile, func(t *testing.T) {
			slo, ok := ChaosSLOs(profile)
			if !ok {
				t.Fatalf("no latency budget for chaos profile %q", profile)
			}
			if slo.MaxP95WaitMs <= 0 || slo.MaxP99WaitMs <= 0 ||
				slo.MaxP95ServiceMs <= 0 || slo.MaxP99ServiceMs <= 0 {
				t.Fatalf("budget for %q leaves a latency gate unset: %+v", profile, slo)
			}
			report, err := RunLoad(LoadConfig{
				Jobs: 16, Tenants: 2, Signatures: 2,
				SimServerConfig: SimServerConfig{Seed: 3, ChaosProfile: profile},
				SLO:             slo, // MaxRejections zero value = none allowed
			})
			if err != nil {
				t.Fatal(err)
			}
			if report.Completed != 16 || report.Failed != 0 {
				t.Fatalf("chaos run: completed=%d failed=%d, want 16/0", report.Completed, report.Failed)
			}
			if len(report.SLOFailures) != 0 {
				t.Fatalf("chaos %s SLO failures: %v", profile, report.SLOFailures)
			}
			if report.Rejections != 0 {
				t.Fatalf("chaos %s: %d rejections in preload mode, want 0", profile, report.Rejections)
			}
		})
	}
}

// An unknown profile has no budget — the -chaos-slo flag must be able
// to refuse it.
func TestChaosSLOsUnknown(t *testing.T) {
	if _, ok := ChaosSLOs("no-such-profile"); ok {
		t.Fatal("ChaosSLOs invented a budget for an unknown profile")
	}
	if _, ok := ChaosSLOs(""); ok {
		t.Fatal("ChaosSLOs returned a budget for the empty profile")
	}
}

// A misspelt chaos profile is refused before the server exists — with
// chaos's own message listing the valid names — instead of being
// admitted and failing every job inside the executor.
func TestRunLoadUnknownChaosProfile(t *testing.T) {
	var logged []string
	report, err := RunLoad(LoadConfig{
		Jobs: 4,
		SimServerConfig: SimServerConfig{
			Config:       Config{Logf: func(f string, a ...any) { logged = append(logged, f) }},
			ChaosProfile: "bogus",
		},
	})
	if err == nil {
		t.Fatalf("RunLoad accepted chaos profile \"bogus\": %+v", report)
	}
	if !strings.Contains(err.Error(), "bogus") || !strings.Contains(err.Error(), "link-flap") {
		t.Fatalf("error %q does not name the bad profile and a valid one", err)
	}
	if report.Jobs != 0 || report.Completed != 0 || report.Failed != 0 || len(logged) != 0 {
		t.Fatalf("work happened before the refusal: report %+v, log %v", report, logged)
	}
}

// The full churn story through the load generator: remove a node
// mid-run, add it back later, under mixed chaos with the profile's
// latency budget — exactly-once iteration accounting (lost_iterations
// 0), both churn events applied, zero warm probes for the re-added
// covered class, and a bit-identical double run.
func TestRunLoadMembershipChurn(t *testing.T) {
	members, err := ParseMembers("n0:xeon:1,n1:thunderx:1,n2:thunderx:1")
	if err != nil {
		t.Fatal(err)
	}
	churn, err := ParseChurn("remove:n1@10,add:n1:thunderx:1@25")
	if err != nil {
		t.Fatal(err)
	}
	slo, _ := ChaosSLOs("mixed")
	report, err := RunLoadVerified(LoadConfig{
		Jobs: 40, Tenants: 3, Signatures: 3,
		SimServerConfig: SimServerConfig{Config: Config{Members: members, Churn: churn}, Seed: 5, ChaosProfile: "mixed"},
		SLO:             slo,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.DeterminismChecked || !report.DeterminismOK {
		t.Fatalf("churn determinism check failed: %v", report.SLOFailures)
	}
	if len(report.SLOFailures) != 0 {
		t.Fatalf("SLO failures: %v", report.SLOFailures)
	}
	if report.Completed != 40 || report.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want 40/0", report.Completed, report.Failed)
	}
	m := report.Membership
	if m == nil {
		t.Fatal("membership stats missing from report")
	}
	if m.LostIterations != 0 {
		t.Fatalf("lost %d iterations across churn, want 0", m.LostIterations)
	}
	if m.ChurnApplied != 2 {
		t.Fatalf("churn applied %d, want 2", m.ChurnApplied)
	}
	if report.WarmProbes != 0 {
		t.Fatalf("warm probes = %d, want 0", report.WarmProbes)
	}
}

// TestRunLoadMembershipChurnDrainAddRegression pins the fix for the
// PR 9 -race flake: a churn add landing while the removed lane's
// worker had not yet observed its drained queue used to fail with
// ErrNodeExists, and whether it failed depended on goroutine timing —
// so the add's ok/err outcome (hashed) and the eligible set (plans,
// virtual time) drifted between the verified double runs. The
// same-milestone remove+add below guarantees the old lane is still
// draining when the add applies; the double-run is looped 10× to give
// the race detector scheduling diversity.
func TestRunLoadMembershipChurnDrainAddRegression(t *testing.T) {
	members, err := ParseMembers("n0:xeon:1,n1:thunderx:1,n2:thunderx:1")
	if err != nil {
		t.Fatal(err)
	}
	churn, err := ParseChurn("remove:n1@8,add:n1:thunderx:1@8")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		report, err := RunLoadVerified(LoadConfig{
			Jobs: 16, Tenants: 2, Signatures: 3,
			SimServerConfig: SimServerConfig{Config: Config{Members: members, Churn: churn}, Seed: 5},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !report.DeterminismChecked || !report.DeterminismOK {
			t.Fatalf("iter %d: drain-add determinism check failed: %v", i, report.SLOFailures)
		}
		if got := report.Membership.ChurnApplied; got != 2 {
			t.Fatalf("iter %d: churn applied %d, want 2", i, got)
		}
		for _, tr := range report.Membership.Transitions {
			if strings.Contains(tr, "churn-add") && strings.HasSuffix(tr, ":err") {
				t.Fatalf("iter %d: add over draining lane failed: %s", i, tr)
			}
		}
		if st := report.Membership.Nodes["n1"].State; st != "active" {
			t.Fatalf("iter %d: n1 state %s after readmission, want active", i, st)
		}
	}
}

// A store file RunLoad cannot use is reported once, naming the file
// and the reason, and the run goes on cold; it used to start cold
// without a word.
func TestRunLoadReportsRejectedStore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hetmp-"+SimFingerprint()+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var rejected []string
	logf := func(f string, a ...any) {
		mu.Lock()
		defer mu.Unlock()
		if line := fmt.Sprintf(f, a...); strings.Contains(line, "rejected") {
			rejected = append(rejected, line)
		}
	}
	report, err := RunLoad(LoadConfig{
		Jobs: 12, Tenants: 2, Signatures: 2,
		SimServerConfig: SimServerConfig{Config: Config{Logf: logf}, Seed: 1, CacheDir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rejected) != 1 || !strings.Contains(rejected[0], path) || !strings.Contains(rejected[0], "corrupt") {
		t.Fatalf("rejection lines %q, want one naming %s and why", rejected, path)
	}
	if report.Completed != 12 || report.CacheMisses != 2 {
		t.Fatalf("completed %d, cache misses %d, want 12 and a cold probe per signature", report.Completed, report.CacheMisses)
	}
}

// Two runs over one CacheDir share the store: the second probes
// nothing, since the first saved every signature's decision.
func TestRunLoadSharesCacheDir(t *testing.T) {
	cfg := LoadConfig{Jobs: 60, Tenants: 3, Signatures: 4,
		SimServerConfig: SimServerConfig{Seed: 1, CacheDir: t.TempDir()}}
	first, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheMisses != 4 {
		t.Errorf("first run: %d cache misses, want 4 (one cold probe per signature)", first.CacheMisses)
	}
	if second.Completed != 60 || second.CacheMisses != 0 || second.WarmProbes != 0 {
		t.Errorf("second run: completed %d, cache misses %d, warm probes %d, want 60, 0, 0",
			second.Completed, second.CacheMisses, second.WarmProbes)
	}
}

// The one retry rule of both live drivers: ErrQueueFull is retried up
// to MaxRetries times, any other refusal ends the stream at once, and
// the first error that ended a stream fails the run.
func TestSubmitStreamsRetriesOnlyQueueFull(t *testing.T) {
	for _, tc := range []struct {
		refusal                          error
		refusals, wantCalls, wantRetries int
		wantDone                         bool
	}{
		{ErrQueueFull, 2, 3, 2, true},
		{ErrQueueFull, 4, 4, 3, false}, // three retries, then give up
		{ErrDraining, 1, 1, 0, false},
		{ErrStopped, 1, 1, 0, false},
		{ErrBadSpec, 1, 1, 0, false},
	} {
		calls := 0
		submit := func(_ int, sp Spec) (Result, error) {
			if calls++; calls <= tc.refusals {
				return Result{}, fmt.Errorf("tenant %s: %w", sp.Tenant, tc.refusal)
			}
			return Result{Tenant: sp.Tenant}, nil
		}
		results, retries, err := submitStreams([][]Spec{{{Tenant: "t0", Region: "r"}}}, 3, submit)
		done := err == nil && len(results) == 1
		if calls != tc.wantCalls || retries != tc.wantRetries || done != tc.wantDone {
			t.Errorf("%d × %v: %d calls, %d retries, done %v; want %d, %d, %v",
				tc.refusals, tc.refusal, calls, retries, done, tc.wantCalls, tc.wantRetries, tc.wantDone)
		}
		if !tc.wantDone && !errors.Is(err, tc.refusal) {
			t.Errorf("%d × %v: error %v, want the refusal", tc.refusals, tc.refusal, err)
		}
	}
}
