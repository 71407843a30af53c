// Package storage implements the per-site key/value storage engine used by
// the local transaction managers.
//
// The engine is intentionally simple — an in-memory versioned map — but it
// exposes exactly the hooks the protocols in this repository need:
//
//   - every committed record carries the version counter and the identity of
//     the transaction that wrote it, which the history/serialization-graph
//     verifier uses to reconstruct reads-from relationships;
//   - before-images are available to the WAL for state-based rollback (the
//     "standard recovery techniques" of the paper's Section 3.2);
//   - snapshots support consistency checks in tests and failure-injection
//     experiments.
//
// A Store is safe for concurrent use. Higher-level isolation is the lock
// manager's job; the store itself only guarantees per-operation atomicity.
package storage

import (
	"fmt"
	"sort"
	"sync"
)

// Key identifies a data item at a single site.
type Key string

// Value is an opaque record payload.
type Value []byte

// Record is a stored version of a data item.
type Record struct {
	Key     Key
	Value   Value
	Version uint64 // monotonically increasing per store
	Writer  string // transaction ID that installed this version
	Deleted bool   // tombstone marker
}

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	cp := r
	cp.Value = append(Value(nil), r.Value...)
	return cp
}

// ErrNotFound is returned when a key has no live version.
type ErrNotFound struct{ Key Key }

func (e ErrNotFound) Error() string { return fmt.Sprintf("storage: key %q not found", e.Key) }

// IsNotFound reports whether err is an ErrNotFound.
func IsNotFound(err error) bool {
	_, ok := err.(ErrNotFound)
	return ok
}

// Store is an in-memory versioned key/value store.
type Store struct {
	mu      sync.RWMutex
	records map[Key]Record
	version uint64
	live    int // records that are not tombstones
}

// install replaces key's record with rec and keeps the live count. Callers
// hold mu.
func (s *Store) install(key Key, rec Record) {
	if prev, ok := s.records[key]; ok && !prev.Deleted {
		s.live--
	}
	if !rec.Deleted {
		s.live++
	}
	s.records[key] = rec
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{records: make(map[Key]Record)}
}

// Get returns the current record for key. Tombstoned and absent keys yield
// ErrNotFound.
func (s *Store) Get(key Key) (Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.records[key]
	if !ok || rec.Deleted {
		return Record{}, ErrNotFound{Key: key}
	}
	return rec.Clone(), nil
}

// GetAny returns the current record for key even if it is a tombstone. The
// boolean reports whether any version exists at all.
func (s *Store) GetAny(key Key) (Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rec, ok := s.records[key]
	if !ok {
		return Record{}, false
	}
	return rec.Clone(), true
}

// Put installs a new version of key written by txnID and returns the record
// that was replaced (zero Record with ok=false if the key was absent).
func (s *Store) Put(key Key, value Value, txnID string) (prev Record, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, ok = s.records[key]
	s.version++
	s.install(key, Record{
		Key:     key,
		Value:   append(Value(nil), value...),
		Version: s.version,
		Writer:  txnID,
	})
	return prev, ok
}

// Delete installs a tombstone for key written by txnID and returns the
// replaced record.
func (s *Store) Delete(key Key, txnID string) (prev Record, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, ok = s.records[key]
	s.version++
	s.install(key, Record{
		Key:     key,
		Version: s.version,
		Writer:  txnID,
		Deleted: true,
	})
	return prev, ok
}

// Restore reinstalls a previously captured record verbatim, except that the
// version counter still advances so that later readers observe a change.
// Restore is the primitive the WAL uses for undo.
func (s *Store) Restore(rec Record, txnID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	installed := rec.Clone()
	installed.Version = s.version
	installed.Writer = txnID
	s.install(rec.Key, installed)
}

// Remove erases all versions of key entirely; used to undo an insert of a
// previously absent key.
func (s *Store) Remove(key Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.records[key]; ok && !prev.Deleted {
		s.live--
	}
	delete(s.records, key)
}

// Len returns the number of live (non-tombstoned) keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// Version returns the store's current version counter.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Keys returns the sorted list of live keys.
func (s *Store) Keys() []Key {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]Key, 0, len(s.records))
	for k, rec := range s.records {
		if !rec.Deleted {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Snapshot returns a deep copy of all live records keyed by Key.
func (s *Store) Snapshot() map[Key]Record {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snap := make(map[Key]Record, len(s.records))
	for k, rec := range s.records {
		if !rec.Deleted {
			snap[k] = rec.Clone()
		}
	}
	return snap
}

// LoadSnapshot replaces the store's contents with the given snapshot. Used
// by recovery tests to reset a site to a known state.
func (s *Store) LoadSnapshot(snap map[Key]Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records = make(map[Key]Record, len(snap))
	s.live = 0
	var maxv uint64
	for k, rec := range snap {
		s.install(k, rec.Clone())
		if rec.Version > maxv {
			maxv = rec.Version
		}
	}
	if maxv > s.version {
		s.version = maxv
	}
}
