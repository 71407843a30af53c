// Package txn implements the per-site local transaction manager: the DBMS
// kernel each site of the multidatabase runs.
//
// A Manager combines one site's storage engine, lock manager and write-ahead
// log. It executes three classes of transactions (Section 3 of the paper):
//
//   - independent local transactions, under strict two-phase locking;
//   - local subtransactions of global transactions — their operations are
//     recorded in the history under the global transaction's node ID, and
//     the commit protocol (package coord) decides when their locks are
//     released;
//   - compensating subtransactions, which are deliberately treated as local
//     transactions with respect to locking (Section 3.2): they follow local
//     strict 2PL and release their locks when they complete locally,
//     regardless of sibling compensating subtransactions at other sites.
//
// The manager guarantees per-site serializability (strict 2PL plus
// waits-for deadlock detection); everything above it — votes, early lock
// release, compensation, markings — is protocol policy implemented by the
// site and coordinator packages.
package txn

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"o2pc/internal/history"
	"o2pc/internal/lock"
	"o2pc/internal/storage"
	"o2pc/internal/wal"
)

// Status is the lifecycle state of a transaction handle.
type Status uint8

const (
	// StatusActive means the transaction may issue further operations.
	StatusActive Status = iota + 1
	// StatusPrepared means Prepare succeeded; only Commit/Abort may follow.
	StatusPrepared
	// StatusCommitted is terminal.
	StatusCommitted
	// StatusAborted is terminal.
	StatusAborted
)

// String returns the status mnemonic.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusPrepared:
		return "prepared"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Errors returned by transaction operations.
var (
	// ErrNotActive is returned when an operation is issued against a
	// transaction that is prepared or terminal.
	ErrNotActive = errors.New("txn: transaction is not active")
	// ErrAlreadyExists is returned by Begin for a duplicate transaction ID.
	ErrAlreadyExists = errors.New("txn: transaction ID already active at this site")
)

// Manager is one site's transaction kernel.
type Manager struct {
	site  string
	store *storage.Store
	locks *lock.Manager
	log   wal.Log
	rec   *history.Recorder // may be nil (recording disabled)

	mu     sync.Mutex
	active map[string]*Txn
}

// NewManager assembles a site kernel. rec may be nil to disable history
// recording (benchmarks that do not audit histories).
func NewManager(site string, store *storage.Store, locks *lock.Manager, log wal.Log, rec *history.Recorder) *Manager {
	return &Manager{
		site:   site,
		store:  store,
		locks:  locks,
		log:    log,
		rec:    rec,
		active: make(map[string]*Txn),
	}
}

// Site returns the site identifier.
func (m *Manager) Site() string { return m.site }

// Store exposes the underlying storage engine (used by site bootstrap and
// consistency checks in tests).
func (m *Manager) Store() *storage.Store { return m.store }

// Locks exposes the lock manager (for protocol-level bulk release).
func (m *Manager) Locks() *lock.Manager { return m.locks }

// Log exposes the write-ahead log.
func (m *Manager) Log() wal.Log { return m.log }

// Recorder returns the history recorder (possibly nil).
func (m *Manager) Recorder() *history.Recorder { return m.rec }

// Txn is a transaction handle bound to one site.
type Txn struct {
	m    *Manager
	id   string // history node ID: global txn ID for subtransactions
	kind history.Kind

	mu      sync.Mutex
	status  Status
	updates []wal.Record // RecUpdate records, in issue order, for undo
	endLSN  uint64       // LSN of the COMMIT (COMP-END) or ABORT record
}

// Begin starts a transaction at this site. For subtransactions of a global
// transaction, id must be the global transaction's node ID; for local and
// compensating transactions it is the node's own ID. kind classifies the
// node in the recorded history; forward links a compensating transaction to
// the transaction it compensates for ("" otherwise).
func (m *Manager) Begin(id string, kind history.Kind, forward string) (*Txn, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.active[id]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAlreadyExists, id)
	}
	t := &Txn{m: m, id: id, kind: kind, status: StatusActive}
	m.active[id] = t
	recType := wal.RecBegin
	if kind == history.KindCompensating {
		recType = wal.RecCompBegin
	}
	if _, err := m.log.Append(wal.Record{Type: recType, TxnID: id, Aux: forward}); err != nil {
		delete(m.active, id)
		return nil, err
	}
	if m.rec != nil {
		m.rec.Declare(id, kind, forward)
	}
	return t, nil
}

// Lookup returns the active transaction with the given ID, if any.
func (m *Manager) Lookup(id string) (*Txn, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.active[id]
	return t, ok
}

// ActiveCount returns the number of non-terminal transactions at the site.
func (m *Manager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}

// CrashReset discards every live transaction and releases its locks,
// modeling the loss of volatile state on a site crash: a real restart has
// no in-memory transaction table and an empty lock manager, and recovery
// rebuilds both from the log. Nothing is logged — the abandoned
// transactions have no terminal record, which is exactly what makes
// recovery treat them as losers.
func (m *Manager) CrashReset() {
	m.mu.Lock()
	ids := make([]string, 0, len(m.active))
	for id := range m.active {
		ids = append(ids, id)
	}
	m.active = make(map[string]*Txn)
	m.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		m.locks.ReleaseAll(id)
	}
}

func (m *Manager) finish(id string) {
	m.mu.Lock()
	delete(m.active, id)
	m.mu.Unlock()
}

// ID returns the transaction's history node ID.
func (t *Txn) ID() string { return t.id }

// Kind returns the transaction's history classification.
func (t *Txn) Kind() history.Kind { return t.kind }

// Status returns the transaction's current lifecycle state.
func (t *Txn) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// WriteSet returns the keys this transaction has written, in first-write
// order (used by the compensation framework to honour Theorem 2's
// write-set coverage requirement).
func (t *Txn) WriteSet() []storage.Key {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := make(map[storage.Key]bool)
	var keys []storage.Key
	for _, u := range t.updates {
		if !seen[u.Before.Key] {
			seen[u.Before.Key] = true
			keys = append(keys, u.Before.Key)
		}
	}
	return keys
}

// Wrote reports whether the transaction has written anything. Unlike
// WriteSet it allocates nothing: every vote asks it.
func (t *Txn) Wrote() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.updates) > 0
}

func (t *Txn) requireActive() error {
	if t.status != StatusActive {
		return fmt.Errorf("%w: %s is %s", ErrNotActive, t.id, t.status)
	}
	return nil
}

// acquire takes a data lock for this transaction. Subtransactions of
// global transactions bound their waits by the lock manager's wait timeout
// (a distributed 2PL deadlock is invisible to per-site detection and is
// broken by timing out); local and compensating transactions wait
// unbounded — their lock scopes are single-site, where the waits-for
// detector suffices, and compensation must never fail on a spurious
// timeout (persistence of compensation).
func (t *Txn) acquire(ctx context.Context, key storage.Key, mode lock.Mode) error {
	if t.kind == history.KindGlobal {
		return t.m.locks.AcquireBounded(ctx, t.id, key, mode)
	}
	return t.m.locks.Acquire(ctx, t.id, key, mode)
}

// Read acquires a shared lock on key and returns its current value.
// Reading an absent key is legal (returns storage.ErrNotFound) and is still
// recorded as a read of the initial state.
func (t *Txn) Read(ctx context.Context, key storage.Key) (storage.Value, error) {
	t.mu.Lock()
	if err := t.requireActive(); err != nil {
		t.mu.Unlock()
		return nil, err
	}
	t.mu.Unlock()

	if err := t.acquire(ctx, key, lock.Shared); err != nil {
		return nil, err
	}

	// Serialize the read against concurrent commits under the txn mutex so
	// a racing abort cannot interleave between lock grant and read.
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.requireActive(); err != nil {
		return nil, err
	}
	rec, err := t.m.store.Get(key)
	if err != nil {
		if t.m.rec != nil {
			t.m.rec.Record(t.m.site, t.id, history.OpRead, key, "")
		}
		return nil, err
	}
	if t.m.rec != nil {
		readFrom := rec.Writer
		if readFrom == t.id {
			readFrom = "" // reading one's own write is not a reads-from edge
		}
		t.m.rec.Record(t.m.site, t.id, history.OpRead, key, readFrom)
	}
	return rec.Value, nil
}

// Write acquires an exclusive lock on key, logs a before/after image pair
// and then installs the new value.
func (t *Txn) Write(ctx context.Context, key storage.Key, value storage.Value) error {
	return t.update(ctx, key, value, false)
}

// Delete acquires an exclusive lock on key and installs a tombstone.
func (t *Txn) Delete(ctx context.Context, key storage.Key) error {
	return t.update(ctx, key, nil, true)
}

func (t *Txn) update(ctx context.Context, key storage.Key, value storage.Value, del bool) error {
	t.mu.Lock()
	if err := t.requireActive(); err != nil {
		t.mu.Unlock()
		return err
	}
	t.mu.Unlock()

	if err := t.acquire(ctx, key, lock.Exclusive); err != nil {
		return err
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.requireActive(); err != nil {
		return err
	}
	prev, existed := t.m.store.GetAny(key)
	before := wal.ImageOf(prev, existed)
	before.Key = key
	after := wal.Image{Key: key, Deleted: del, Existed: true, Writer: t.id}
	if !del {
		after.Value = append(storage.Value(nil), value...)
	}
	// Write-ahead: the UPDATE record, with the before-image that undoes it,
	// is in the log before the store holds the after-image. A checkpoint
	// between the two finds the transaction active and carries the record.
	rec := wal.Record{Type: wal.RecUpdate, TxnID: t.id, Before: before, After: after}
	if _, err := t.m.log.Append(rec); err != nil {
		return err
	}
	if del {
		t.m.store.Delete(key, t.id)
	} else {
		t.m.store.Put(key, value, t.id)
	}
	t.updates = append(t.updates, rec)
	if t.m.rec != nil {
		t.m.rec.Record(t.m.site, t.id, history.OpWrite, key, "")
	}
	return nil
}

// ReadForUpdate reads key under an exclusive lock, for read-modify-write
// sequences: taking the write lock up front avoids the classic S-to-X
// upgrade deadlock between two concurrent updaters of the same key.
func (t *Txn) ReadForUpdate(ctx context.Context, key storage.Key) (storage.Value, error) {
	t.mu.Lock()
	if err := t.requireActive(); err != nil {
		t.mu.Unlock()
		return nil, err
	}
	t.mu.Unlock()

	if err := t.acquire(ctx, key, lock.Exclusive); err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.requireActive(); err != nil {
		return nil, err
	}
	rec, err := t.m.store.Get(key)
	if err != nil {
		if t.m.rec != nil {
			t.m.rec.Record(t.m.site, t.id, history.OpRead, key, "")
		}
		return nil, err
	}
	if t.m.rec != nil {
		readFrom := rec.Writer
		if readFrom == t.id {
			readFrom = ""
		}
		t.m.rec.Record(t.m.site, t.id, history.OpRead, key, readFrom)
	}
	return rec.Value, nil
}

// ReadInt64 reads key as an int64 (missing keys read as 0).
func (t *Txn) ReadInt64(ctx context.Context, key storage.Key) (int64, error) {
	v, err := t.Read(ctx, key)
	if err != nil {
		if storage.IsNotFound(err) {
			return 0, nil
		}
		return 0, err
	}
	return storage.DecodeInt64(v)
}

// ReadInt64ForUpdate reads key as an int64 under an exclusive lock
// (missing keys read as 0); pair it with WriteInt64 for increments.
func (t *Txn) ReadInt64ForUpdate(ctx context.Context, key storage.Key) (int64, error) {
	v, err := t.ReadForUpdate(ctx, key)
	if err != nil {
		if storage.IsNotFound(err) {
			return 0, nil
		}
		return 0, err
	}
	return storage.DecodeInt64(v)
}

// WriteInt64 writes key as an int64.
func (t *Txn) WriteInt64(ctx context.Context, key storage.Key, v int64) error {
	return t.Write(ctx, key, storage.EncodeInt64(v))
}

// Updates returns the transaction's WAL update records (with before and
// after images) in issue order; the O2PC participant captures them at the
// YES vote so compensation can run later.
func (t *Txn) Updates() []wal.Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]wal.Record, len(t.updates))
	copy(out, t.updates)
	return out
}

// Prepare logs the YES vote durably, recording the coordinator's node name
// so crash recovery can resume the decision inquiry. The transaction may no
// longer issue operations; only Commit or Abort may follow. Lock release
// policy is the caller's (protocol's) decision.
func (t *Txn) Prepare(coord string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.requireActive(); err != nil {
		return err
	}
	if _, err := t.m.log.Append(wal.Record{Type: wal.RecPrepared, TxnID: t.id, Aux: coord}); err != nil {
		return err
	}
	if err := t.m.log.Sync(); err != nil {
		return err
	}
	t.status = StatusPrepared
	return nil
}

// Commit logs the local commit and releases all locks. It does not set a
// history fate: for subtransactions the global fate is the coordinator's to
// record, while local and compensating transactions are finalized by their
// drivers (see Manager.CommitLocal / package compensate).
func (t *Txn) Commit() error {
	t.mu.Lock()
	if t.status != StatusActive && t.status != StatusPrepared {
		st := t.status
		t.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrNotActive, t.id, st)
	}
	recType := wal.RecCommit
	if t.kind == history.KindCompensating {
		recType = wal.RecCompEnd
	}
	lsn, err := t.m.log.Append(wal.Record{Type: recType, TxnID: t.id})
	if err != nil {
		t.mu.Unlock()
		return err
	}
	t.status, t.endLSN = StatusCommitted, lsn
	t.mu.Unlock()

	t.m.locks.ReleaseAll(t.id)
	t.m.finish(t.id)
	return nil
}

// CommitDurable is Commit with a durability barrier: the commit record is
// synced to stable storage before any lock is released. This is the O2PC
// exposure point — Theorem 2's write-ahead discipline requires the record
// of Ti's writes to be durable before the early lock release exposes them
// to other transactions (a reader could otherwise commit against state
// whose provenance a crash then erases).
func (t *Txn) CommitDurable() error {
	t.mu.Lock()
	if t.status != StatusActive && t.status != StatusPrepared {
		st := t.status
		t.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrNotActive, t.id, st)
	}
	recType := wal.RecCommit
	if t.kind == history.KindCompensating {
		recType = wal.RecCompEnd
	}
	lsn, err := t.m.log.Append(wal.Record{Type: recType, TxnID: t.id})
	if err != nil {
		t.mu.Unlock()
		return err
	}
	t.status, t.endLSN = StatusCommitted, lsn
	t.mu.Unlock()

	err = t.m.log.Sync()
	// Locks are released even when the sync fails (a failing log means the
	// site is shutting down or broken; wedging every waiter helps nobody),
	// but the error is reported so the vote does not claim durability.
	t.m.locks.ReleaseAll(t.id)
	t.m.finish(t.id)
	return err
}

// ReleaseLocks drops every lock the transaction holds without changing its
// state. This is the O2PC early-release step: the site votes YES, locally
// commits the subtransaction, and releases its locks at once.
func (t *Txn) ReleaseLocks() { t.m.locks.ReleaseAll(t.id) }

// Abort rolls the transaction back from its logged before-images and
// releases all locks.
//
// attributeTo controls reads-from attribution of the restored versions and
// history recording of the undo writes:
//
//   - "" (local transactions): before-images keep their original writers
//     and no undo operations are recorded — the aborted transaction simply
//     leaves the committed projection;
//   - a compensating-transaction node ID (global transactions rolled back
//     at a NO-voting site): the restored versions are attributed to that
//     CT node and the undo writes are recorded under it, reflecting the
//     paper's modeling of standard roll-back as a compensating
//     subtransaction (so that Lemma 5's CTi -> Tj edges materialize).
func (t *Txn) Abort(attributeTo string) error {
	t.mu.Lock()
	if t.status == StatusCommitted {
		t.mu.Unlock()
		return fmt.Errorf("txn: cannot abort committed transaction %s", t.id)
	}
	if t.status == StatusAborted {
		t.mu.Unlock()
		return nil
	}
	updates := t.updates

	if attributeTo != "" && t.m.rec != nil {
		t.m.rec.Declare(attributeTo, history.KindCompensating, t.id)
		// Record the undo writes in reverse order under the CT node.
		for i := len(updates) - 1; i >= 0; i-- {
			t.m.rec.Record(t.m.site, attributeTo, history.OpWrite, updates[i].Before.Key, "")
		}
	}
	wal.ApplyUndo(t.m.store, updates, attributeTo)
	lsn, err := t.m.log.Append(wal.Record{Type: wal.RecAbort, TxnID: t.id, Aux: attributeTo})
	if err != nil {
		t.mu.Unlock()
		return err
	}
	t.status, t.endLSN = StatusAborted, lsn
	t.mu.Unlock()

	t.m.locks.AbortWaiter(t.id)
	t.m.locks.ReleaseAll(t.id)
	t.m.finish(t.id)
	return nil
}

// EndLSN returns the LSN of the transaction's COMMIT (COMP-END) or ABORT
// record, or 0 while it has none.
func (t *Txn) EndLSN() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.endLSN
}

// RunLocal executes fn as an independent local transaction under strict
// 2PL, retrying on deadlock up to maxRetries times. On success the
// transaction commits and its fate is recorded; on error it is rolled back.
func (m *Manager) RunLocal(ctx context.Context, id string, maxRetries int, fn func(t *Txn) error) error {
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		t, err := m.Begin(id, history.KindLocal, "")
		if err != nil {
			return err
		}
		err = fn(t)
		if err == nil {
			if err := t.Commit(); err != nil {
				return err
			}
			if m.rec != nil {
				m.rec.SetFate(id, history.FateCommitted)
			}
			return nil
		}
		//o2pcvet:ignore errflow -- the caller gets fn's error; a failed undo append surfaces at the next Sync on the shared log
		_ = t.Abort("")
		if m.rec != nil {
			m.rec.SetFate(id, history.FateAborted)
		}
		lastErr = err
		if !errors.Is(err, lock.ErrDeadlock) {
			return err
		}
	}
	return lastErr
}
