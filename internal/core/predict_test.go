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
			got = *ParallelReduce(a, "warm", n, HetProbeSchedule(), zeroInt,
				pingPongBody(r, 64, 400_000), addInt)
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

// TestStoreWrittenBeforeIdentityRuleIsAdopted: a schema-2 file an
// older binary saved — here with one probed invocation, which that
// binary's own confidence score rejected — is adopted, and the rule
// derives from its state the decision that binary stored beside it.
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
	if d, _ := rt.Decision("warm"); !d.CrossNode || d.CSR[0] != 2.4704708908604127 || d.CSR[1] != 1 {
		t.Fatalf("adopted %s, want the stored cross-node decision", d)
	}
}

// headStoreFile is the schema-2 store a cold three-invocation
// runPingPong (1600 iterations) saved before Decision.CumTime was
// deleted: that build also wrote cum_time_ns, bytes_touched and
// ops_per_byte, fields nothing read, and the decision beside the state.
const headStoreFile = `{
  "schema_version": 2,
  "fingerprint": "testcluster",
  "entries": {
    "warm": {
      "cross_node": true,
      "node": 0,
      "nodes": [
        0,
        1
      ],
      "csr": {
        "0": 2.470589470589471,
        "1": 1
      },
      "fault_period_ns": 445417,
      "misses_per_kinst": 0.000054109375000000006,
      "per_iter_ns": {
        "0": 95238,
        "1": 235294
      },
      "cum_time_ns": 889509796,
      "invocations": 3,
      "features": {
        "iterations": 1600,
        "bytes_touched": 30720,
        "ops_per_byte": 6250,
        "misses_per_kinst": 0.000054109375000000006
      }
    }
  }
}
`

// coldStoreFile is what the same cold run saves in schema 3: the state
// of headStoreFile alone.
const coldStoreFile = `{
  "schema_version": 3,
  "fingerprint": "testcluster",
  "entries": {
    "warm": {
      "fault_period_ns": 445417,
      "misses_per_kinst": 0.000054109375000000006,
      "per_iter_ns": {
        "0": 95238,
        "1": 235294
      },
      "invocations": 3,
      "features": {
        "iterations": 1600
      }
    }
  }
}
`

// TestStoreWithCumTimeIsAdopted: a schema-2 file that carries fields
// nothing reads loads without complaint, and a warm run adopts it
// probe-free with the decision that file stored beside its state. The
// same cold run today saves that state in schema 3, bit for bit.
func TestStoreWithCumTimeIsAdopted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "head.json")
	if err := os.WriteFile(path, []byte(headStoreFile), 0o644); err != nil {
		t.Fatal(err)
	}
	store := decstore.Open(path, "testcluster")
	if store.Status() != "" || store.Len() != 1 {
		t.Fatalf("file rejected: %q, %d entries", store.Status(), store.Len())
	}
	rt, _, _, _ := runPingPong(t, Options{DecisionStore: store}, 1600, 3)
	if rt.Predictions() != 1 || rt.Probes() != 0 {
		t.Fatalf("%d predictions, %d probes, want 1 and 0", rt.Predictions(), rt.Probes())
	}
	if d, _ := rt.Decision("warm"); !d.CrossNode || d.CSR[0] != 2.470589470589471 || d.CSR[1] != 1 {
		t.Fatalf("adopted %s, want the stored cross-node decision", d)
	}

	path = filepath.Join(dir, "cold.json")
	cold := decstore.Open(path, "testcluster")
	runPingPong(t, Options{DecisionStore: cold}, 1600, 3)
	if err := cold.Save(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != coldStoreFile {
		t.Fatalf("cold run saved\n%s\nwant\n%s", got, coldStoreFile)
	}
}

// storeFile renders a schema-3 store file for the test cluster holding
// one state, for region "warm" at the given iteration count.
func storeFile(iterations int, state string) string {
	return fmt.Sprintf(`{"schema_version": 3, "fingerprint": "testcluster", "entries": {"warm": {
  %s, "misses_per_kinst": 0.0002, "invocations": 1, "features": {"iterations": %d}}}}`, state, iterations)
}

// TestStoredDecisionForOtherClusterIsProbed: a stored state that names
// a node the two-node cluster lacks, or from which the rule derives a
// cross-node decision with a CSR weight no probe measures, is refused
// with a log line saying why, and the region is probed instead — a bad
// store never breaks the run. The probe's export replaces the entry.
func TestStoredDecisionForOtherClusterIsProbed(t *testing.T) {
	const n = 1600
	for _, tc := range []struct{ name, state string }{
		{"node 7", `"fault_period_ns": 397581, "per_iter_ns": {"0": 95245, "1": 235300, "7": 1000}`},
		{"node -1", `"fault_period_ns": 397581, "per_iter_ns": {"0": 95245, "1": 235300}, "suspects": [-1]`},
		{"suspect 5", `"fault_period_ns": 397581, "per_iter_ns": {"0": 95245, "1": 235300}, "suspects": [5]`},
		// A float ratio of 1e308 does not fit the int64 nanoseconds
		// (Open rejects such a file as corrupt); this is the widest
		// that does.
		{"CSR 9.2e18", `"fault_period_ns": 397581, "per_iter_ns": {"0": 1, "1": 9223372036854775807}`},
		{"cross-node without per-iteration times", `"fault_period_ns": 397581`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "store.json")
			if err := os.WriteFile(path, []byte(storeFile(n, tc.state)), 0o644); err != nil {
				t.Fatal(err)
			}
			store := decstore.Open(path, "testcluster")
			if store.Len() != 1 {
				t.Fatalf("fixture rejected at Open: %s", store.Status())
			}
			var logs []string
			opts := Options{DecisionStore: store, Logf: func(format string, args ...any) {
				logs = append(logs, fmt.Sprintf(format, args...))
			}}
			rt, got, _, _ := runPingPong(t, opts, n, 2)
			if rt.Predictions() != 0 || rt.Probes() != 2 {
				t.Fatalf("%d predictions, %d probes, want 0 and 2", rt.Predictions(), rt.Probes())
			}
			if want := n * (n - 1) / 2; got != want {
				t.Fatalf("reduced to %d, want %d", got, want)
			}
			const want = "stored decision cannot run on this cluster"
			if !slices.ContainsFunc(logs, func(l string) bool { return strings.Contains(l, want) }) {
				t.Errorf("no log line says %q:\n%s", want, strings.Join(logs, "\n"))
			}
			if se, _ := store.Lookup("warm"); se.Invocations != 2 {
				t.Errorf("export left %+v in the store, want the run's own two-invocation measurement", se)
			}
		})
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
	rtCold, _, _, _ := runPingPong(t, Options{DecisionStore: store}, n, 4)
	cold, ok := store.Lookup("warm")
	dCold, _ := rtCold.Decision("warm")
	if !ok || !dCold.CrossNode {
		t.Fatalf("cold run stored %+v (found %v) and decided %s, want a cross-node decision", cold, ok, dCold)
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
	if plain.decision != dCold.String() {
		t.Fatalf("warm decision %s, want the cold run's %s", plain.decision, dCold)
	}
	if want := n * (n - 1) / 2; plain.got != want {
		t.Fatalf("warm run reduced to %d, want %d", plain.got, want)
	}
}

// TestEntryToStoreRoundTrip: exporting a measured entry stores its
// state — the ∞ fault-period sentinel and the suspects included — and
// seeding a fresh entry from it yields a mature one whose decision the
// rule derives as the measured entry's. Here the suspect is what keeps
// a fault-free region off the cross-node path.
func TestEntryToStoreRoundTrip(t *testing.T) {
	p := testPlatform()
	ent := &probeEntry{regionState: regionState{
		invocations: 7,
		perIter:     map[int]time.Duration{0: 120 * time.Nanosecond, 1: 300 * time.Nanosecond},
		faultPeriod: infinitePeriod,
		missPerK:    2.5,
		suspects:    map[int]bool{1: true},
	}, featN: 1600}
	ent.decision = p.decide(ent.regionState)
	if ent.decision.CrossNode || ent.decision.Node != p.origin {
		t.Fatalf("measured decision %s, want the origin alone under suspicion", ent.decision)
	}
	se := entryToStore(ent)
	if se.FaultPeriodNs != int64(infinitePeriod) {
		t.Errorf("sentinel fault period not preserved: %d", se.FaultPeriodNs)
	}
	if se.Invocations != 7 || !slices.Equal(se.Suspects, []int{1}) {
		t.Errorf("invocations %d, suspects %v, want 7 and [1]", se.Invocations, se.Suspects)
	}
	if se.Features.Iterations != 1600 {
		t.Errorf("features = %+v", se.Features)
	}

	seeded := &probeEntry{}
	seedEntry(seeded, &p, se, 10)
	if seeded.invocations != 10 || !seeded.seeded {
		t.Errorf("seeded entry not mature/seeded: %+v", seeded)
	}
	if !reflect.DeepEqual(seeded.decision, ent.decision) {
		t.Errorf("seeded decision %s, want %s", seeded.decision, ent.decision)
	}
}

// FuzzAdoptStoredDecision: whatever bytes the store file holds, a
// HetProbe reduction over it completes with the exact sum, adopting the
// decision the rule derives from the stored state or probing: decstore
// rejects a file it cannot read whole, and tryPredict refuses a state
// that names a node this cluster lacks or gives a CSR no probe
// measures. The seed corpus in testdata/fuzz/FuzzAdoptStoredDecision
// holds a schema-3 and a schema-2 store this runtime's builds wrote, a
// schema-1 file, a truncated file, a foreign-fingerprint file and a
// state whose per-iteration times name node 7, all for region "warm" at
// 320 iterations.
func FuzzAdoptStoredDecision(f *testing.F) {
	const n = 320
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "store.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rt, got, _, _ := runPingPong(t, Options{DecisionStore: decstore.Open(path, "testcluster")}, n, 1)
		if want := n * (n - 1) / 2; got != want {
			t.Fatalf("reduced to %d, want %d", got, want)
		}
		if rt.Probes()+rt.Predictions() < 1 {
			t.Fatalf("%d probes and %d predictions: the region neither probed nor adopted", rt.Probes(), rt.Predictions())
		}
	})
}
