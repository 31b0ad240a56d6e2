// Package decstore persists HetProbe probe-cache decisions across
// runs: a versioned on-disk store (JSON) keyed by region signature,
// bound to a cluster-configuration fingerprint derived from the node
// specs and interconnect parameters. A steady-state run seeds its
// decisions from the store instead of paying the probing period
// (ROADMAP item 3; the paper's Section 3.1 probe cache, made
// persistent as "Compiler Enhanced Scheduling" and "Runtime Support
// for Performance Portability" motivate).
//
// Robustness contract: a store NEVER breaks a run. A missing,
// truncated, corrupt, stale-schema or foreign-fingerprint file is
// rejected wholesale — the store simply starts empty (Status records
// why) and the runtime falls back to cold-run probing. Saves are
// atomic (write to a temp file, then rename), so a concurrent reader
// observes either the old or the new store, never a torn one, and
// Save merges with the bytes on disk so concurrent runs lose at most
// a racing update to the same key, not each other's regions.
package decstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"hetmp/internal/machine"
)

// SchemaVersion is the on-disk format version. Bump it on any
// incompatible change to Entry or fileFormat; older files are then
// rejected (falling back to probing) instead of being misread.
// Version 1 files may hold decisions a since-removed guard overturned
// and wrote back (EXPERIMENTS.md "Negative result: guarding stored
// decisions"); nothing re-examines a stored decision, so they are
// retired and re-probe once.
const SchemaVersion = 2

// Features are the region characteristics stored beside a decision.
// Iterations is the one the runtime reads; MissesPerKinst is recorded
// only.
type Features struct {
	// Iterations is the region's iteration count at its first
	// invocation — what a later run presents when it consults the
	// store. The entry is adopted when the two are equal.
	Iterations int `json:"iterations"`
	// BytesTouched and OpsPerByte are what older runtimes measured of
	// the probe windows' footprint and compute intensity. Nothing read
	// them; the runtime no longer writes them, and files that carry
	// them still load.
	BytesTouched int64   `json:"bytes_touched,omitempty"`
	OpsPerByte   float64 `json:"ops_per_byte,omitempty"`
	// MissesPerKinst is the region's LLC misses per kilo-instruction
	// (internal/perf's node-selection metric).
	MissesPerKinst float64 `json:"misses_per_kinst"`
}

// Entry is one stored region decision plus the probe statistics and
// features it was derived from. Durations are nanoseconds so the
// "no faults" sentinel (math.MaxInt64) round-trips exactly.
type Entry struct {
	CrossNode      bool            `json:"cross_node"`
	Node           int             `json:"node"`
	Nodes          []int           `json:"nodes,omitempty"`
	CSR            map[int]float64 `json:"csr,omitempty"`
	FaultPeriodNs  int64           `json:"fault_period_ns"`
	MissesPerKinst float64         `json:"misses_per_kinst"`
	PerIterNs      map[int]int64   `json:"per_iter_ns,omitempty"`
	// Invocations is how many probed invocations the entry
	// accumulated. Recorded, not read: an entry probed once is adopted
	// like any other.
	Invocations int      `json:"invocations"`
	Features    Features `json:"features"`
	// Classes is read by nothing. benchmark/ is its only user: it sets
	// it in an Entry literal.
	Classes []string `json:"classes,omitempty"`
}

// fileFormat is the on-disk envelope.
type fileFormat struct {
	SchemaVersion int              `json:"schema_version"`
	Fingerprint   string           `json:"fingerprint"`
	Entries       map[string]Entry `json:"entries"`
}

// Store is a decision store bound to one file and one cluster
// fingerprint. All methods are safe for concurrent use.
type Store struct {
	path        string
	fingerprint string

	mu      sync.Mutex
	entries map[string]Entry
	status  string // why the on-disk file was rejected ("" = accepted or absent)
}

// pathLocks serializes merge-on-save per target file across every
// Store in the process. The atomic temp+rename protects concurrent
// savers in *different* processes (each keeps the other's regions, a
// racing key is last-writer-wins), but two Stores in the same process
// racing load→rename can interleave so the first rename's additions
// are read by nobody and lost. A server hosting many tenants hits
// exactly that, so in-process savers take a per-path mutex around the
// whole read-merge-write cycle.
var pathLocks struct {
	mu sync.Mutex
	m  map[string]*sync.Mutex
}

func pathLock(path string) *sync.Mutex {
	pathLocks.mu.Lock()
	defer pathLocks.mu.Unlock()
	if pathLocks.m == nil {
		pathLocks.m = make(map[string]*sync.Mutex)
	}
	l, ok := pathLocks.m[path]
	if !ok {
		l = &sync.Mutex{}
		pathLocks.m[path] = l
	}
	return l
}

// Fingerprint derives the cluster-configuration fingerprint a store is
// keyed by: a stable hash of the node specs plus any extra
// configuration strings (interconnect protocol parameters, scale
// factors). Decisions are only valid for the configuration they were
// measured on, so a store carrying a different fingerprint is rejected
// at Open time.
func Fingerprint(nodes []machine.NodeSpec, extras ...string) string {
	h := sha256.New()
	for _, n := range nodes {
		fmt.Fprintf(h, "%+v\n", n)
	}
	for _, e := range extras {
		fmt.Fprintf(h, "%s\n", e)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Open binds a store to path. If the file exists and carries the
// current schema version and the given fingerprint, its entries are
// loaded; otherwise — missing, unreadable, truncated, corrupt, stale
// schema, foreign fingerprint — the store starts empty and Status
// explains why. Open never fails: a bad store degrades to cold-run
// probing, it does not break the run.
func Open(path, fingerprint string) *Store {
	s := &Store{path: path, fingerprint: fingerprint, entries: map[string]Entry{}}
	ff, status := load(path, fingerprint)
	s.status = status
	if ff != nil {
		s.entries = ff.Entries
	}
	return s
}

// NewMem builds a memory-only store: Lookup/Put work as usual, Save is
// a no-op success, and nothing ever touches disk. A server that was
// not given a cache directory uses one as its process-wide shared
// decision cache — tenants still share probes for the lifetime of the
// process, they just aren't persisted across restarts.
func NewMem(fingerprint string) *Store {
	return &Store{fingerprint: fingerprint, entries: map[string]Entry{}}
}

// OpenDir opens the per-fingerprint store file inside dir (creating
// the directory if needed). Different cluster configurations map to
// disjoint files, so a sweep mixing platforms or protocols never
// clobbers its own entries.
func OpenDir(dir, fingerprint string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("decstore: %w", err)
	}
	return Open(filepath.Join(dir, "hetmp-"+fingerprint+".json"), fingerprint), nil
}

// load reads and validates one store file. A nil return means the
// file contributes nothing; the string is the human-readable reason
// (empty for a simply absent file).
func load(path, fingerprint string) (*fileFormat, string) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ""
		}
		return nil, fmt.Sprintf("unreadable store %s: %v", path, err)
	}
	var ff fileFormat
	if err := json.Unmarshal(data, &ff); err != nil {
		return nil, fmt.Sprintf("corrupt store %s: %v", path, err)
	}
	if ff.SchemaVersion != SchemaVersion {
		return nil, fmt.Sprintf("store %s has schema version %d, want %d", path, ff.SchemaVersion, SchemaVersion)
	}
	if ff.Fingerprint != fingerprint {
		return nil, fmt.Sprintf("store %s fingerprint %q does not match cluster %q", path, ff.Fingerprint, fingerprint)
	}
	if ff.Entries == nil {
		ff.Entries = map[string]Entry{}
	}
	return &ff, ""
}

// Status reports why the on-disk file was rejected at Open time
// (empty when it was absent or loaded cleanly).
func (s *Store) Status() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status
}

// Path returns the backing file path.
func (s *Store) Path() string { return s.path }

// Len returns the number of entries currently held.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Lookup returns the stored entry for a region key.
func (s *Store) Lookup(key string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	return e, ok
}

// Put records (or replaces) the entry for a region key. The store is
// only persisted by Save.
func (s *Store) Put(key string, e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[key] = e
}

// Save persists the store atomically: the current on-disk entries (if
// still valid for this fingerprint) are merged under this store's
// entries, written to a temporary file in the same directory and
// renamed over the target. Cross-process concurrent savers keep each
// other's regions (a racing update to the same key is last-writer-
// wins, which is safe — every entry is a self-consistent decision);
// in-process savers targeting the same path additionally serialize
// the whole read-merge-write cycle on a per-path lock, so none of
// their updates can be lost to a load/rename interleaving. Save on a
// memory-only store (NewMem) is a no-op.
func (s *Store) Save() error {
	if s.path == "" {
		return nil
	}
	lock := pathLock(s.path)
	lock.Lock()
	defer lock.Unlock()
	s.mu.Lock()
	snapshot := make(map[string]Entry, len(s.entries))
	for k, v := range s.entries {
		snapshot[k] = v
	}
	s.mu.Unlock()
	merged := make(map[string]Entry, len(snapshot))
	if ff, _ := load(s.path, s.fingerprint); ff != nil {
		for k, v := range ff.Entries {
			merged[k] = v
		}
	}
	for k, v := range snapshot {
		merged[k] = v
	}
	data, err := json.MarshalIndent(fileFormat{
		SchemaVersion: SchemaVersion,
		Fingerprint:   s.fingerprint,
		Entries:       merged,
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("decstore: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(s.path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("decstore: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("decstore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("decstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("decstore: %w", err)
	}
	return nil
}
