package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"hetmp/internal/decstore"
)

// memStore is an in-memory DecisionStore for tests.
type memStore struct{ m map[string]decstore.Entry }

func newMemStore() *memStore { return &memStore{m: map[string]decstore.Entry{}} }

func (s *memStore) Lookup(key string) (decstore.Entry, bool) {
	e, ok := s.m[key]
	return e, ok
}
func (s *memStore) Put(key string, e decstore.Entry) { s.m[key] = e }

// runPingPong executes reps invocations of a cross-node-profitable
// ping-pong region and returns the runtime plus the run's observable
// outcomes: reduction result, virtual elapsed time and DSM faults.
func runPingPong(t *testing.T, opts Options, n, reps int) (*Runtime, int, time.Duration, int64) {
	t.Helper()
	if opts.FaultPeriodThreshold == 0 {
		opts.FaultPeriodThreshold = time.Nanosecond
	}
	rt, cl := newChaosRuntime(t, opts, nil)
	var got int
	err := rt.Run(func(a *App) {
		r := a.Alloc("shared", 64*page)
		for i := 0; i < reps; i++ {
			got = a.ParallelReduce("warm", n, HetProbeSchedule(),
				func() any { return 0 },
				pingPongBody(r, 64, 400_000),
				func(x, y any) any { return x.(int) + y.(int) },
			).(int)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt, got, cl.Elapsed(), cl.DSMFaults()
}

// TestDecisionStoreAbsentEquivalence is the golden/equivalence pin:
// a run with no store configured and a run with an empty store are
// observationally identical — same virtual time, same fault count,
// same result, same decision. The fast path must cost nothing when it
// has nothing to predict from.
func TestDecisionStoreAbsentEquivalence(t *testing.T) {
	const n, reps = 1600, 3
	rtNil, gotNil, eNil, fNil := runPingPong(t, Options{}, n, reps)
	store := newMemStore()
	rtEmpty, gotEmpty, eEmpty, fEmpty := runPingPong(t, Options{DecisionStore: store}, n, reps)
	if eNil != eEmpty || fNil != fEmpty || gotNil != gotEmpty {
		t.Fatalf("empty store changed the run: elapsed %v vs %v, faults %d vs %d, result %d vs %d",
			eNil, eEmpty, fNil, fEmpty, gotNil, gotEmpty)
	}
	dNil, _ := rtNil.Decision("warm")
	dEmpty, _ := rtEmpty.Decision("warm")
	if dNil.String() != dEmpty.String() {
		t.Fatalf("decisions diverged: %s vs %s", dNil, dEmpty)
	}
	if rtEmpty.Predictions() != 0 {
		t.Fatalf("empty store produced %d predictions", rtEmpty.Predictions())
	}
	if rtNil.Probes() != reps || rtEmpty.Probes() != reps {
		t.Fatalf("probe counts %d / %d, want %d each", rtNil.Probes(), rtEmpty.Probes(), reps)
	}
	// The cold run exported its learned decision for the next run.
	if len(store.m) != 1 {
		t.Fatalf("store holds %d entries after the run, want 1", len(store.m))
	}
}

// TestWarmRunSkipsProbesAndReproducesDecision is the acceptance pin
// for the tentpole: a warm repeat run — through a real on-disk store,
// saved and reopened — performs zero probes and reproduces the cold
// run's decision exactly.
func TestWarmRunSkipsProbesAndReproducesDecision(t *testing.T) {
	const n = 1600
	// Enough repetitions to mature the entry (ProbeMaxInvocations=10).
	const reps = 12
	path := filepath.Join(t.TempDir(), "store.json")
	const fp = "testcluster"

	cold := decstore.Open(path, fp)
	rtCold, gotCold, _, _ := runPingPong(t, Options{DecisionStore: cold}, n, reps)
	if rtCold.Probes() == 0 {
		t.Fatal("cold run performed no probes")
	}
	dCold, ok := rtCold.Decision("warm")
	if !ok {
		t.Fatal("cold run recorded no decision")
	}
	if err := cold.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}

	warm := decstore.Open(path, fp)
	if warm.Len() != 1 {
		t.Fatalf("reopened store holds %d entries, want 1", warm.Len())
	}
	rtWarm, gotWarm, _, _ := runPingPong(t, Options{DecisionStore: warm}, n, reps)
	if p := rtWarm.Probes(); p != 0 {
		t.Fatalf("warm run performed %d probes, want 0", p)
	}
	if rtWarm.Predictions() != 1 {
		t.Fatalf("warm run made %d predictions, want 1", rtWarm.Predictions())
	}
	dWarm, ok := rtWarm.Decision("warm")
	if !ok {
		t.Fatal("warm run has no decision")
	}
	if dWarm.String() != dCold.String() {
		t.Fatalf("warm decision %s does not reproduce cold %s", dWarm, dCold)
	}
	if gotWarm != gotCold {
		t.Fatalf("warm result %d differs from cold %d", gotWarm, gotCold)
	}
}

// TestLowConfidencePredictionFallsBackToProbing: adoption is on
// identity, not on a score. A decision stored at n iterations is not
// adopted by a run presenting n' ≠ n — the region is probed, the log
// names both counts, and the export overwrites the entry with the new
// measurement — while an entry probed only once is adopted by a run
// presenting its n like any other.
func TestLowConfidencePredictionFallsBackToProbing(t *testing.T) {
	store := newMemStore()
	runPingPong(t, Options{DecisionStore: store}, 3200, 12)

	var logs []string
	opts := Options{DecisionStore: store, Logf: func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}}
	rt, _, _, _ := runPingPong(t, opts, 320, 1)
	if rt.Predictions() != 0 || rt.Probes() != 1 {
		t.Fatalf("entry stored at 3200 iterations, run presenting 320: %d predictions, %d probes, want 0 and 1",
			rt.Predictions(), rt.Probes())
	}
	const want = "measured at 3200 iterations, this run presents 320"
	if !slices.ContainsFunc(logs, func(l string) bool { return strings.Contains(l, want) }) {
		t.Errorf("no log line says %q:\n%s", want, strings.Join(logs, "\n"))
	}
	se, _ := store.Lookup("warm")
	if se.Features.Iterations != 320 || se.Invocations != 1 {
		t.Fatalf("export left %d iterations / %d invocations in the store, want the new measurement's 320 / 1",
			se.Features.Iterations, se.Invocations)
	}

	rt, _, _, _ = runPingPong(t, Options{DecisionStore: store}, 320, 3)
	if rt.Predictions() != 1 || rt.Probes() != 0 {
		t.Fatalf("once-probed entry at the same iteration count: %d predictions, %d probes, want 1 and 0",
			rt.Predictions(), rt.Probes())
	}
}

// TestStoreWrittenBeforeIdentityRuleIsAdopted: the schema did not
// move, so a file a pre-PR-22 binary saved — here with one probed
// invocation, which that binary's own confidence score rejected — is
// adopted as is.
func TestStoreWrittenBeforeIdentityRuleIsAdopted(t *testing.T) {
	const file = `{
  "schema_version": 2,
  "fingerprint": "testcluster",
  "entries": {
    "warm": {
      "cross_node": true,
      "node": 0,
      "nodes": [0, 1],
      "csr": {"0": 2.4704708908604127, "1": 1},
      "fault_period_ns": 397581,
      "misses_per_kinst": 0.00020625,
      "per_iter_ns": {"0": 95245, "1": 235300},
      "cum_time_ns": 296755406,
      "invocations": 1,
      "features": {
        "iterations": 1600,
        "bytes_touched": 10240,
        "ops_per_byte": 6250,
        "misses_per_kinst": 0.00020625
      }
    }
  }
}`
	path := filepath.Join(t.TempDir(), "store.json")
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	store := decstore.Open(path, "testcluster")
	if store.Len() != 1 {
		t.Fatalf("fixture rejected: %s", store.Status())
	}
	rt, _, _, _ := runPingPong(t, Options{DecisionStore: store}, 1600, 2)
	if rt.Predictions() != 1 || rt.Probes() != 0 {
		t.Fatalf("%d predictions, %d probes, want 1 and 0", rt.Predictions(), rt.Probes())
	}
	if d, _ := rt.Decision("warm"); !d.CrossNode || d.CSR[0] != 2.4704708908604127 {
		t.Fatalf("adopted %s, want the stored cross-node decision", d)
	}
}

// TestSeededEntryRunsAsMature: an entry seeded from the store is a
// mature probe-cache entry. Its cross-node decision is executed as
// stored, unmonitored, so a warm run is identical with ReDecide on and
// off, adopts no re-decision, and writes nothing back about a region
// it did not measure.
func TestSeededEntryRunsAsMature(t *testing.T) {
	const n = 1600
	store := newMemStore()
	// Four probed invocations: short of mature, so a re-export stamped
	// mature would show.
	runPingPong(t, Options{DecisionStore: store}, n, 4)
	cold, ok := store.Lookup("warm")
	if !ok || !cold.CrossNode {
		t.Fatalf("cold run stored %+v (found %v), want a cross-node entry", cold, ok)
	}

	type outcome struct {
		got      int
		elapsed  time.Duration
		faults   int64
		decision string
	}
	warm := func(redecide bool) outcome {
		t.Helper()
		rt, got, elapsed, faults := runPingPong(t, Options{DecisionStore: store, ReDecide: redecide}, n, 3)
		if rt.Predictions() != 1 || rt.Probes() != 0 {
			t.Fatalf("ReDecide=%v: %d predictions, %d probes, want 1 and 0", redecide, rt.Predictions(), rt.Probes())
		}
		if r := rt.ReDecisions(); r != 0 {
			t.Fatalf("ReDecide=%v: %d re-decisions on a seeded entry, want 0", redecide, r)
		}
		if after, _ := store.Lookup("warm"); !reflect.DeepEqual(after, cold) {
			t.Fatalf("ReDecide=%v: warm run rewrote the stored entry:\n got %+v\nwant %+v", redecide, after, cold)
		}
		d, _ := rt.Decision("warm")
		return outcome{got, elapsed, faults, d.String()}
	}
	plain, monitored := warm(false), warm(true)
	if plain != monitored {
		t.Fatalf("ReDecide changed a warm run: off %+v, on %+v", plain, monitored)
	}
	if want := decisionFromEntry(cold).String(); plain.decision != want {
		t.Fatalf("warm decision %s, want the stored %s", plain.decision, want)
	}
	if want := n * (n - 1) / 2; plain.got != want {
		t.Fatalf("warm run reduced to %d, want %d", plain.got, want)
	}
}

// TestEntryToStoreRoundTrip: exporting a measured entry and reading
// the stored form back reproduces the decision; seeding a fresh entry
// from it yields a mature one carrying that decision.
func TestEntryToStoreRoundTrip(t *testing.T) {
	ent := &probeEntry{
		invocations:  7,
		perIter:      map[int]time.Duration{0: 120 * time.Nanosecond, 1: 300 * time.Nanosecond},
		faultPeriod:  infinitePeriod,
		missPerK:     2.5,
		cumTime:      9 * time.Millisecond,
		featN:        1600,
		featInstr:    640_000,
		featAccesses: 1000,
		decision: Decision{
			CrossNode:      true,
			Nodes:          []int{0, 1},
			CSR:            map[int]float64{0: 2.5, 1: 1},
			FaultPeriod:    infinitePeriod,
			MissesPerKinst: 2.5,
			PerIterTime:    map[int]time.Duration{0: 120 * time.Nanosecond, 1: 300 * time.Nanosecond},
		},
	}
	se := entryToStore(ent)
	if se.FaultPeriodNs != int64(infinitePeriod) {
		t.Errorf("sentinel fault period not preserved: %d", se.FaultPeriodNs)
	}
	if se.Invocations != 7 {
		t.Errorf("invocations = %d, want 7", se.Invocations)
	}
	if se.Features.Iterations != 1600 || se.Features.BytesTouched != 64_000 {
		t.Errorf("features = %+v", se.Features)
	}
	if se.Features.OpsPerByte != 10 {
		t.Errorf("ops/byte = %v, want 10", se.Features.OpsPerByte)
	}
	if d := decisionFromEntry(se); d.String() != ent.decision.String() || d.FaultPeriod != infinitePeriod {
		t.Errorf("decision %s (fault period %v) != %s", d, d.FaultPeriod, ent.decision)
	}

	seeded := &probeEntry{}
	seedEntry(seeded, se, 10)
	if seeded.invocations != 10 || !seeded.seeded {
		t.Errorf("seeded entry not mature/seeded: %+v", seeded)
	}
	if seeded.decision.String() != ent.decision.String() {
		t.Errorf("decision %s != %s", seeded.decision, ent.decision)
	}
}

// TestForceReprobeIgnoresStoredDecision: the class-scoped re-probe
// hook. A mature stored entry would normally be adopted probe-free;
// with ForceReprobe answering true for the region, the run probes
// afresh (bounded exactly like a cold run) and re-exports the
// re-measured entry, while regions the hook declines keep the fast
// path.
func TestForceReprobeIgnoresStoredDecision(t *testing.T) {
	const n, reps = 1600, 12
	store := newMemStore()
	rtCold, _, _, _ := runPingPong(t, Options{DecisionStore: store}, n, reps)
	if rtCold.Probes() == 0 {
		t.Fatal("cold run performed no probes")
	}

	forced := 0
	opts := Options{
		DecisionStore: store,
		ForceReprobe: func(regionID string) bool {
			forced++
			return regionID == "warm"
		},
	}
	rt, _, _, _ := runPingPong(t, opts, n, reps)
	if forced == 0 {
		t.Fatal("ForceReprobe hook was never consulted")
	}
	if rt.Predictions() != 0 {
		t.Fatalf("forced re-probe still adopted a stored decision (%d predictions)", rt.Predictions())
	}
	if rt.Probes() != rtCold.Probes() {
		t.Fatalf("forced re-probe performed %d probes, want the cold run's %d (bounded identically)",
			rt.Probes(), rtCold.Probes())
	}

	// A region the hook declines keeps the probe-free fast path.
	rtWarm, _, _, _ := runPingPong(t, Options{
		DecisionStore: store,
		ForceReprobe:  func(string) bool { return false },
	}, n, reps)
	if rtWarm.Probes() != 0 || rtWarm.Predictions() != 1 {
		t.Fatalf("declined hook broke the fast path: %d probes, %d predictions",
			rtWarm.Probes(), rtWarm.Predictions())
	}
}
