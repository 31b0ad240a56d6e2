package server

import (
	"encoding/json"
	"strings"
	"testing"
)

// The in-process equivalent of `make load-smoke`, same config:
// deterministic dispatch (run twice), all SLOs met, and the virtual
// time, dispatch order and cache traffic pinned exactly — a change
// that moves them is a change to the modelled system and says so here.
func TestRunLoadVerifiedSmoke(t *testing.T) {
	report, err := RunLoadVerified(LoadConfig{
		Jobs: 200, Tenants: 4, Signatures: 6, Seed: 1,
		MaxInFlight: 8,
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
	if report.VirtualSeconds != 0.144568698 {
		t.Errorf("virtual_seconds = %.9f, want 0.144568698", report.VirtualSeconds)
	}
	if report.DispatchHash != "47dc6aea47cf0c30" {
		t.Errorf("dispatch_hash = %s, want 47dc6aea47cf0c30", report.DispatchHash)
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

// NoPreload mode exercises live backpressure: a tiny queue rejects
// bursts, retries with backoff land everything eventually.
func TestRunLoadBackpressure(t *testing.T) {
	report, err := RunLoad(LoadConfig{
		Jobs: 30, Tenants: 3, Signatures: 2, Seed: 11,
		QueueDepth: 4, MaxInFlight: 2, NoPreload: true,
		MaxRetries: 200,
		SLO:        SLO{MaxRejections: -1},
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
				Jobs: 16, Tenants: 2, Signatures: 2, Seed: 3,
				ChaosProfile: profile,
				SLO:          slo, // MaxRejections zero value = none allowed
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
		Jobs: 4, ChaosProfile: "bogus",
		Logf: func(f string, a ...any) { logged = append(logged, f) },
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
		Jobs: 40, Tenants: 3, Signatures: 3, Seed: 5,
		ChaosProfile: "mixed",
		Members:      members, Churn: churn,
		SLO: slo,
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
	if report.Membership == nil {
		t.Fatal("membership stats missing from report")
	}
	if report.LostIterations != 0 {
		t.Fatalf("lost %d iterations across churn, want 0", report.LostIterations)
	}
	if report.ChurnApplied != 2 {
		t.Fatalf("churn applied %d, want 2", report.ChurnApplied)
	}
	if report.Reprobes != 0 {
		t.Fatalf("re-added covered class triggered %d reprobes, want 0 (warm start)", report.Reprobes)
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
			Jobs: 16, Tenants: 2, Signatures: 3, Seed: 5,
			Members: members, Churn: churn,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !report.DeterminismChecked || !report.DeterminismOK {
			t.Fatalf("iter %d: drain-add determinism check failed: %v", i, report.SLOFailures)
		}
		if report.ChurnApplied != 2 {
			t.Fatalf("iter %d: churn applied %d, want 2", i, report.ChurnApplied)
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
