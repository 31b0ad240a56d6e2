package decstore

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

// Concurrent Save from many Store instances on one path must lose no
// entries: without the per-path save lock, two stores interleaving
// load→rename drop whichever rename lands first. Run under -race this
// also pins the serialization itself. (Cross-process racers can still
// interleave — the lock covers the in-process server case, where one
// daemon hosts many tenants over one shared file.)
func TestConcurrentSaveLosesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.json")
	const fp = "cafe0123cafe0123"
	const savers = 8
	const keysPer = 25

	var wg sync.WaitGroup
	for g := 0; g < savers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := Open(path, fp)
			for k := 0; k < keysPer; k++ {
				st.Put(fmt.Sprintf("region-%d-%d", g, k), Entry{FaultPeriodNs: int64(g), Invocations: k + 1})
				// Save mid-stream too, so merges happen while other
				// goroutines are also mid-cycle.
				if k%7 == 0 {
					if err := st.Save(); err != nil {
						t.Errorf("saver %d: %v", g, err)
						return
					}
				}
			}
			if err := st.Save(); err != nil {
				t.Errorf("saver %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()

	final := Open(path, fp)
	if final.Status() != "" {
		t.Fatalf("final store rejected: %s", final.Status())
	}
	if got, want := final.Len(), savers*keysPer; got != want {
		t.Fatalf("after %d concurrent savers: %d entries, want %d (entries lost)", savers, got, want)
	}
	for g := 0; g < savers; g++ {
		for k := 0; k < keysPer; k++ {
			key := fmt.Sprintf("region-%d-%d", g, k)
			e, ok := final.Lookup(key)
			if !ok {
				t.Fatalf("key %s lost", key)
			}
			if e.FaultPeriodNs != int64(g) || e.Invocations != k+1 {
				t.Fatalf("key %s = %+v, want fault period %d invocations %d", key, e, g, k+1)
			}
		}
	}
}

// A single Store hammered by concurrent Put/Lookup/Save goroutines is
// race-free (the server shares one Store across tenant executors).
func TestConcurrentPutLookupSave(t *testing.T) {
	st := Open(filepath.Join(t.TempDir(), "store.json"), "beef4567beef4567")
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				key := fmt.Sprintf("r%d", k%10)
				st.Put(key, Entry{FaultPeriodNs: int64(g), Invocations: k})
				st.Lookup(key)
				if k%10 == 0 {
					if err := st.Save(); err != nil {
						t.Errorf("save: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st.Len() != 10 {
		t.Fatalf("Len = %d, want 10", st.Len())
	}
}

// NewMem is a working shared cache that never touches disk.
func TestNewMemStore(t *testing.T) {
	st := NewMem("feed89abfeed89ab")
	if st.Path() != "" {
		t.Fatalf("Path = %q, want empty", st.Path())
	}
	st.Put("region", Entry{FaultPeriodNs: 1, Invocations: 3})
	if err := st.Save(); err != nil {
		t.Fatalf("Save on memory store: %v", err)
	}
	e, ok := st.Lookup("region")
	if !ok || e.FaultPeriodNs != 1 || e.Invocations != 3 {
		t.Fatalf("Lookup = %+v, %v; want fault period 1 invocations 3", e, ok)
	}
	if st.Status() != "" {
		t.Fatalf("Status = %q, want empty", st.Status())
	}
}
