package decstore

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hetmp/internal/machine"
)

func testFingerprint() string {
	return Fingerprint([]machine.NodeSpec{machine.XeonE5_2620v4(), machine.ThunderX()}, "rdma", "scale=0.015")
}

func sampleEntry() Entry {
	return Entry{
		FaultPeriodNs:  int64(250_000),
		MissesPerKinst: 1.7,
		PerIterNs:      map[int]int64{0: 120, 1: 300},
		Suspects:       []int{1},
		Invocations:    10,
		Features:       Features{Iterations: 65536},
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	fp := testFingerprint()

	s := Open(path, fp)
	if s.Status() != "" {
		t.Fatalf("fresh store has status %q", s.Status())
	}
	want := sampleEntry()
	// The "no faults observed" sentinel must survive the trip exactly.
	want.FaultPeriodNs = math.MaxInt64
	s.Put("blackscholes:calc", want)
	if err := s.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}

	r := Open(path, fp)
	if r.Status() != "" {
		t.Fatalf("reopen rejected store: %q", r.Status())
	}
	got, ok := r.Lookup("blackscholes:calc")
	if !ok {
		t.Fatal("entry missing after reopen")
	}
	if got.FaultPeriodNs != math.MaxInt64 {
		t.Errorf("FaultPeriodNs = %d, want MaxInt64", got.FaultPeriodNs)
	}
	if got.MissesPerKinst != 1.7 || len(got.Suspects) != 1 || got.Suspects[0] != 1 {
		t.Errorf("misses/kinst or suspects did not round-trip: %+v", got)
	}
	if got.PerIterNs[1] != 300 || got.Invocations != 10 {
		t.Errorf("entry did not round-trip: %+v", got)
	}
	if got.Features != want.Features {
		t.Errorf("Features = %+v, want %+v", got.Features, want.Features)
	}
}

func TestMissingFileStartsEmpty(t *testing.T) {
	s := Open(filepath.Join(t.TempDir(), "absent.json"), testFingerprint())
	if s.Status() != "" || s.Len() != 0 {
		t.Fatalf("missing file: status=%q len=%d", s.Status(), s.Len())
	}
}

func TestTruncatedFileRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	fp := testFingerprint()
	s := Open(path, fp)
	s.Put("lud:update", sampleEntry())
	if err := s.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	r := Open(path, fp)
	if r.Len() != 0 {
		t.Fatalf("truncated store yielded %d entries", r.Len())
	}
	if !strings.Contains(r.Status(), "corrupt") {
		t.Errorf("Status() = %q, want corruption notice", r.Status())
	}
}

func TestGarbageFileRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	if err := os.WriteFile(path, []byte("not json at all {{{"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := Open(path, testFingerprint())
	if r.Len() != 0 || !strings.Contains(r.Status(), "corrupt") {
		t.Fatalf("garbage store: len=%d status=%q", r.Len(), r.Status())
	}
}

func TestSchemaVersionMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	fp := testFingerprint()
	ff := map[string]any{
		"schema_version": 99,
		"fingerprint":    fp,
		"entries":        map[string]Entry{"lud:update": sampleEntry()},
	}
	data, err := json.Marshal(ff)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := Open(path, fp)
	if r.Len() != 0 {
		t.Fatalf("stale-schema store yielded %d entries", r.Len())
	}
	if !strings.Contains(r.Status(), "schema version 99") {
		t.Errorf("Status() = %q, want schema-version notice", r.Status())
	}
}

func TestFingerprintMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	s := Open(path, "aaaaaaaaaaaaaaaa")
	s.Put("lud:update", sampleEntry())
	if err := s.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	r := Open(path, testFingerprint())
	if r.Len() != 0 {
		t.Fatalf("foreign-fingerprint store yielded %d entries", r.Len())
	}
	if !strings.Contains(r.Status(), "fingerprint") {
		t.Errorf("Status() = %q, want fingerprint notice", r.Status())
	}
}

func TestSaveMergesConcurrentStores(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	fp := testFingerprint()

	// Two runs open the same (initially absent) store, learn disjoint
	// regions, and save in either order: both regions must survive.
	a := Open(path, fp)
	b := Open(path, fp)
	a.Put("blackscholes:calc", sampleEntry())
	other := sampleEntry()
	other.Invocations = 1
	b.Put("lud:update", other)
	if err := a.Save(); err != nil {
		t.Fatalf("a.Save: %v", err)
	}
	if err := b.Save(); err != nil {
		t.Fatalf("b.Save: %v", err)
	}

	r := Open(path, fp)
	if r.Len() != 2 {
		t.Fatalf("merged store has %d entries, want 2", r.Len())
	}
	if _, ok := r.Lookup("blackscholes:calc"); !ok {
		t.Error("first writer's entry lost")
	}
	if e, ok := r.Lookup("lud:update"); !ok || e.Invocations != 1 {
		t.Errorf("second writer's entry lost or mangled: %+v ok=%v", e, ok)
	}
}

func TestConcurrentPutAndSave(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	fp := testFingerprint()
	s := Open(path, fp)

	var wg sync.WaitGroup
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			s.Put(k, sampleEntry())
			if err := s.Save(); err != nil {
				t.Errorf("Save(%s): %v", k, err)
			}
		}(k)
	}
	wg.Wait()

	r := Open(path, fp)
	if r.Status() != "" {
		t.Fatalf("store torn by concurrent saves: %q", r.Status())
	}
	for _, k := range keys {
		if _, ok := r.Lookup(k); !ok {
			t.Errorf("key %q lost", k)
		}
	}
}

func TestOpenDirCreatesDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "stores")
	fp := testFingerprint()
	s, err := OpenDir(dir, fp)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	s.Put("lud:update", sampleEntry())
	if err := s.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if !strings.Contains(s.Path(), fp) {
		t.Errorf("store path %q does not embed fingerprint %q", s.Path(), fp)
	}
	if _, err := os.Stat(s.Path()); err != nil {
		t.Fatalf("store file not created: %v", err)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	xeon, tx := machine.XeonE5_2620v4(), machine.ThunderX()
	base := Fingerprint([]machine.NodeSpec{xeon, tx}, "rdma")
	if got := Fingerprint([]machine.NodeSpec{xeon, tx}, "rdma"); got != base {
		t.Error("fingerprint not deterministic")
	}
	if got := Fingerprint([]machine.NodeSpec{xeon, tx}, "infiniband"); got == base {
		t.Error("fingerprint ignores interconnect extras")
	}
	scaled := tx.ScaleCaches(0.5)
	if got := Fingerprint([]machine.NodeSpec{xeon, scaled}, "rdma"); got == base {
		t.Error("fingerprint ignores node spec changes")
	}
	if len(base) != 16 {
		t.Errorf("fingerprint length %d, want 16", len(base))
	}
}
