package server

import (
	"sync"

	"hetmp/internal/decstore"
)

// frozenCache adapts a decstore.Store to core.DecisionStore with
// first-write-wins Put semantics: once a signature has an entry — the
// cold prober's export, or a previous server run's persisted entry —
// later exports for the key are dropped. A job that adopts the stored
// entry exports nothing, and behind a RegionServer's probe lanes every
// job of a stored signature adopts it: the signature carries the
// iteration count adoption tests. What still reaches the drop is a
// prober that found an entry it could not adopt (one put under this
// key at another iteration count, by hand or by another program
// sharing the directory) and two cold Execute calls of one signature
// racing outside the lanes. Either would export a second measurement,
// and concurrent jobs would adopt whichever version the race left
// behind, breaking the server's determinism contract (equal signatures
// ⇒ identical virtual time). The first entry is the canonical one.
type frozenCache struct {
	mu    sync.Mutex
	store *decstore.Store
}

func (c *frozenCache) Lookup(key string) (decstore.Entry, bool) {
	return c.store.Lookup(key)
}

func (c *frozenCache) Put(key string, e decstore.Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.store.Lookup(key); ok {
		return
	}
	c.store.Put(key, e)
}

// reprobeCache is the store of a forced re-probe: every lookup misses,
// so the run probes afresh, and a put overwrites the stored entry.
type reprobeCache struct{ store *decstore.Store }

func (reprobeCache) Lookup(string) (decstore.Entry, bool) { return decstore.Entry{}, false }

func (c reprobeCache) Put(key string, e decstore.Entry) { c.store.Put(key, e) }

// NewCache builds the server's shared decision cache for an executor's
// cluster fingerprint. With a directory it is the persistent per-
// fingerprint store (probes survive server restarts and are shared
// with offline suites pointed at the same -decision-store directory);
// with an empty dir it is a process-lifetime in-memory store — tenants
// still share each other's probes, nothing touches disk.
func NewCache(dir, fingerprint string) (*decstore.Store, error) {
	if dir == "" {
		return decstore.NewMem(fingerprint), nil
	}
	return decstore.OpenDir(dir, fingerprint)
}
