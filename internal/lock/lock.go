// Package lock implements the per-site lock manager.
//
// The manager provides shared/exclusive locks with lock upgrade, strict
// FIFO queuing (with priority for upgrades), waits-for-graph deadlock
// detection with youngest-victim selection, and a per-transaction bulk
// release, ReleaseAll(txn), used by O2PC at the YES vote ("locally
// committed"), by 2PC and Paxos Commit at the DECISION, by a read-only
// participant at its vote, and at abort. Section 2 permits strict
// distributed 2PL to drop read locks at the VOTE-REQ; this manager does
// not offer it, because measuring it moved nothing (EXPERIMENTS.md A1).
//
// The lock table is split into key-hashed shards, each with its own mutex,
// lock states and wait queues, so lock traffic on unrelated keys never
// contends on a common mutex. Per-transaction state (held-lock sets and
// registration sequence numbers) lives in txn-hashed shards. The locking
// discipline that keeps the two layers deadlock-free:
//
//   - key shards are only ever taken together in ascending index order
//     (deadlock detection, AbortWaiter, WaitsFor);
//   - a txn shard may be taken while key shards are held (victim
//     selection reads sequence numbers), but never the other way around —
//     every held-set update happens with no key shard held, which is why
//     waiters record their own held entries after the grant arrives
//     rather than having the granter write into a foreign txn shard.
//
// Lock-hold time instrumentation is built in because the headline claim of
// the paper (Experiment E1) is precisely about how long exclusive locks are
// held under each protocol.
package lock

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"o2pc/internal/metrics"
	"o2pc/internal/sim"
	"o2pc/internal/storage"
)

// Mode is a lock mode.
type Mode uint8

const (
	// Shared is a read lock; compatible with other shared locks.
	Shared Mode = iota + 1
	// Exclusive is a write lock; compatible with nothing.
	Exclusive
)

// String returns "S" or "X".
func (m Mode) String() string {
	switch m {
	case Shared:
		return "S"
	case Exclusive:
		return "X"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Compatible reports whether a lock in mode m can coexist with one in mode o.
func (m Mode) Compatible(o Mode) bool { return m == Shared && o == Shared }

// ErrDeadlock is returned to the victim of deadlock resolution. The caller
// must abort the transaction and may retry it.
var ErrDeadlock = errors.New("lock: deadlock detected; transaction chosen as victim")

// ErrAborted is returned to waiters whose transaction was aborted externally
// via AbortWaiter.
var ErrAborted = errors.New("lock: waiting transaction aborted")

// DefaultShards is the key-shard count used by NewManager. Sixteen shards
// dissolve cross-key contention on hot sites while keeping the all-shards
// operations (deadlock detection, AbortWaiter) cheap.
const DefaultShards = 16

// request is a pending lock acquisition.
type request struct {
	txn     string
	mode    Mode
	upgrade bool
	grant   chan error // buffered(1); receives nil on grant, error on abort
	start   time.Time
	// claim is the clock's wake-up reservation for this grant: set (under
	// the key's shard mutex) by the granter immediately before sending on
	// grant, claimed by the woken waiter. It keeps virtual time from
	// advancing in the window between the channel send and the waiter
	// actually resuming.
	claim func()
}

// lockState tracks one key's holders and wait queue.
type lockState struct {
	holders map[string]Mode
	queue   []*request
}

// heldLock records when a granted lock was acquired, for hold-time metrics.
type heldLock struct {
	mode    Mode
	grantAt time.Time
}

// Stats aggregates lock-manager measurements. Counters are atomic and
// contention-free; the histograms are a shared measurement sink (they are
// touched only on waits and releases, not on the grant fast path).
type Stats struct {
	Acquisitions *metrics.Counter
	Waits        *metrics.Counter
	Deadlocks    *metrics.Counter
	WaitTime     *metrics.Histogram // milliseconds
	HoldTimeX    *metrics.Histogram // milliseconds, exclusive locks only
	HoldTimeS    *metrics.Histogram // milliseconds, shared locks only
}

func newStats() *Stats {
	return &Stats{
		Acquisitions: &metrics.Counter{},
		Waits:        &metrics.Counter{},
		Deadlocks:    &metrics.Counter{},
		WaitTime:     metrics.NewHistogram(),
		HoldTimeX:    metrics.NewHistogram(),
		HoldTimeS:    metrics.NewHistogram(),
	}
}

// keyShard is one slice of the lock table.
type keyShard struct {
	mu    sync.Mutex
	locks map[storage.Key]*lockState
	// free recycles lockState values (and their holders maps) released by
	// fully-unlocked keys: commit-time bulk release empties a key's state
	// and the next transaction on that key would otherwise re-allocate it,
	// making the state churn a measurable share of the commit path's
	// allocations. Bounded so an unlock burst cannot pin memory.
	free []*lockState
	// acquisitions counts Acquire calls routed to this shard, for
	// observing how evenly the hash spreads traffic.
	acquisitions metrics.Counter
}

// maxFreeStates bounds each shard's lockState freelist.
const maxFreeStates = 64

// txnShard holds per-transaction state for a slice of the txn-ID space.
type txnShard struct {
	mu   sync.Mutex
	held map[string]map[storage.Key]heldLock
	seq  map[string]uint64 // txn -> registration order (age)
	// free recycles held-lock maps emptied by ReleaseAll: every
	// transaction allocates one on its first lock, so commit-time bulk
	// release feeds the next transaction's map (buckets and all).
	free []map[storage.Key]heldLock
}

// Manager is a per-site lock manager. The zero value is not usable; call
// NewManager or NewManagerShards.
type Manager struct {
	clock       sim.Clock
	priority    func(txn string) int
	waitTimeout time.Duration

	shards    []*keyShard
	txnShards []*txnShard
	nextSeq   atomic.Uint64
	stats     *Stats
}

// SetClock installs the clock the manager times waits and hold durations
// with. Call before any lock traffic; the site wires this at construction.
func (m *Manager) SetClock(c sim.Clock) { m.clock = sim.OrReal(c) }

// SetVictimPriority installs a victim-selection priority function: among
// the transactions on a deadlock cycle, the one with the highest
// (priority, registration sequence) pair is aborted. Returning a lower
// value for a transaction makes it less likely to be chosen. The site
// kernel uses this to shield compensating transactions (persistence of
// compensation) unless a cycle consists solely of them. Call before any
// lock traffic.
func (m *Manager) SetVictimPriority(f func(txn string) int) { m.priority = f }

// SetWaitTimeout bounds each blocking AcquireBounded wait by d (zero or
// negative means waits are bounded only by the caller's context). The
// deadline is armed lazily, inside the wait path: the grant fast path —
// the vast majority of acquisitions — never creates a timer or derived
// context, which a per-subtransaction timeout wrapped around the whole
// execution phase would pay even when no lock ever blocks. Call before
// any lock traffic; the site wires this from its LockTimeout at
// construction.
func (m *Manager) SetWaitTimeout(d time.Duration) { m.waitTimeout = d }

// NewManager returns an empty lock manager on the real clock with
// DefaultShards key shards.
func NewManager() *Manager { return NewManagerShards(DefaultShards) }

// NewManagerShards returns an empty lock manager with n key shards
// (n <= 0 selects DefaultShards).
func NewManagerShards(n int) *Manager {
	if n <= 0 {
		n = DefaultShards
	}
	m := &Manager{
		clock:     sim.Real(),
		shards:    make([]*keyShard, n),
		txnShards: make([]*txnShard, n),
		stats:     newStats(),
	}
	for i := range m.shards {
		m.shards[i] = &keyShard{locks: make(map[storage.Key]*lockState)}
		m.txnShards[i] = &txnShard{
			held: make(map[string]map[storage.Key]heldLock),
			seq:  make(map[string]uint64),
		}
	}
	return m
}

// Stats returns the manager's measurement sink.
func (m *Manager) Stats() *Stats { return m.stats }

// ShardCount returns the number of key shards.
func (m *Manager) ShardCount() int { return len(m.shards) }

// ShardAcquisitions returns the per-shard Acquire counts, for observing
// how the key hash spreads traffic.
func (m *Manager) ShardAcquisitions() []int64 {
	out := make([]int64, len(m.shards))
	for i, sh := range m.shards {
		out[i] = sh.acquisitions.Value()
	}
	return out
}

// fnv32a is FNV-1a inlined over a string: the hash/fnv Hash32 interface
// costs two allocations per lookup (the state object and the string->byte
// conversion), which shard routing on the lock fast path cannot afford.
func fnv32a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// shardOf routes a key to its shard.
func (m *Manager) shardOf(key storage.Key) *keyShard {
	return m.shards[int(fnv32a(string(key)))%len(m.shards)]
}

// txnShardOf routes a transaction ID to its per-txn state shard.
func (m *Manager) txnShardOf(txn string) *txnShard {
	return m.txnShards[int(fnv32a(txn))%len(m.txnShards)]
}

// seqOf returns txn's registration sequence, assigning one on first sight.
func (m *Manager) seqOf(txn string) uint64 {
	ts := m.txnShardOf(txn)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if s, ok := ts.seq[txn]; ok {
		return s
	}
	s := m.nextSeq.Add(1)
	ts.seq[txn] = s
	return s
}

// seqPeek reads txn's registration sequence without assigning one.
func (m *Manager) seqPeek(txn string) uint64 {
	ts := m.txnShardOf(txn)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.seq[txn]
}

// stateOf returns key's lock state within sh, creating it on first use.
// Callers must hold sh.mu.
func (sh *keyShard) stateOf(key storage.Key) *lockState {
	st, ok := sh.locks[key]
	if !ok {
		if n := len(sh.free); n > 0 {
			st = sh.free[n-1]
			sh.free[n-1] = nil
			sh.free = sh.free[:n-1]
		} else {
			st = &lockState{holders: make(map[string]Mode)}
		}
		sh.locks[key] = st
	}
	return st
}

// recordHeld installs (or upgrades) txn's held-lock entry for key. It runs
// with no key shard held — on the immediate-grant path after the shard is
// unlocked, and on the wait path by the woken waiter itself. grantAt is
// the moment the lock was granted; an upgrade keeps the original grant
// time so hold-time metrics span the whole period the item was locked.
func (m *Manager) recordHeld(txn string, key storage.Key, mode Mode, grantAt time.Time) {
	ts := m.txnShardOf(txn)
	ts.mu.Lock()
	locks, ok := ts.held[txn]
	if !ok {
		if n := len(ts.free); n > 0 {
			locks = ts.free[n-1]
			ts.free[n-1] = nil
			ts.free = ts.free[:n-1]
		} else {
			locks = make(map[storage.Key]heldLock, 4)
		}
		ts.held[txn] = locks
	}
	if prev, had := locks[key]; had {
		grantAt = prev.grantAt
	}
	locks[key] = heldLock{mode: mode, grantAt: grantAt}
	ts.mu.Unlock()
}

// takeHeld removes and returns txn's held-lock entry for key, if any.
func (m *Manager) takeHeld(txn string, key storage.Key) (heldLock, bool) {
	ts := m.txnShardOf(txn)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	locks, ok := ts.held[txn]
	if !ok {
		return heldLock{}, false
	}
	hl, ok := locks[key]
	if ok {
		delete(locks, key)
	}
	return hl, ok
}

// canGrantLocked reports whether txn may immediately take mode on st.
// Callers must hold the key's shard mutex.
func canGrantLocked(st *lockState, txn string, mode Mode) bool {
	for holder, hmode := range st.holders {
		if holder == txn {
			continue // self-held locks never conflict (upgrade path)
		}
		if !mode.Compatible(hmode) {
			return false
		}
	}
	return true
}

// Acquire obtains a lock of the given mode on key for txn, blocking until
// the lock is granted, ctx is cancelled, or the transaction is chosen as a
// deadlock victim. Re-acquiring a held lock (same or weaker mode) returns
// immediately; requesting Exclusive while holding Shared performs an
// upgrade.
func (m *Manager) Acquire(ctx context.Context, txn string, key storage.Key, mode Mode) error {
	return m.acquire(ctx, txn, key, mode, false)
}

// AcquireBounded is Acquire with any blocking wait additionally bounded by
// the manager's wait timeout (SetWaitTimeout). Subtransactions of global
// transactions use it for every lock they take: a distributed 2PL deadlock
// (a lock cycle spanning sites) is invisible to per-site waits-for
// detection and is broken by timing out the wait and aborting the global
// transaction. Local and compensating transactions use plain Acquire —
// their lock scopes are single-site, where the detector suffices, and
// compensation in particular must never be failed by a spurious timeout
// (persistence of compensation).
func (m *Manager) AcquireBounded(ctx context.Context, txn string, key storage.Key, mode Mode) error {
	return m.acquire(ctx, txn, key, mode, true)
}

func (m *Manager) acquire(ctx context.Context, txn string, key storage.Key, mode Mode, bounded bool) error {
	m.seqOf(txn)
	m.stats.Acquisitions.Inc()

	sh := m.shardOf(key)
	sh.mu.Lock()
	sh.acquisitions.Inc()
	st := sh.stateOf(key)

	if cur, ok := st.holders[txn]; ok {
		if cur == Exclusive || mode == Shared {
			sh.mu.Unlock()
			return nil // already strong enough
		}
		// Upgrade S -> X.
		if canGrantLocked(st, txn, Exclusive) {
			st.holders[txn] = Exclusive
			sh.mu.Unlock()
			m.recordHeld(txn, key, Exclusive, m.clock.Now())
			return nil
		}
		req := &request{txn: txn, mode: Exclusive, upgrade: true, grant: make(chan error, 1), start: m.clock.Now()}
		// Upgrades go ahead of ordinary waiters but behind earlier upgrades.
		idx := 0
		for idx < len(st.queue) && st.queue[idx].upgrade {
			idx++
		}
		st.queue = append(st.queue, nil)
		copy(st.queue[idx+1:], st.queue[idx:])
		st.queue[idx] = req
		sh.mu.Unlock()
		return m.wait(ctx, sh, key, req, bounded)
	}

	if canGrantLocked(st, txn, mode) && len(st.queue) == 0 {
		st.holders[txn] = mode
		sh.mu.Unlock()
		m.recordHeld(txn, key, mode, m.clock.Now())
		return nil
	}
	// Shared requests may jump a queue composed solely of shared requests
	// when the holders are compatible; otherwise strict FIFO (prevents
	// writer starvation).
	if mode == Shared && canGrantLocked(st, txn, Shared) {
		allShared := true
		for _, q := range st.queue {
			if q.mode != Shared {
				allShared = false
				break
			}
		}
		if allShared {
			st.holders[txn] = Shared
			sh.mu.Unlock()
			m.recordHeld(txn, key, Shared, m.clock.Now())
			return nil
		}
	}
	req := &request{txn: txn, mode: mode, grant: make(chan error, 1), start: m.clock.Now()}
	st.queue = append(st.queue, req)
	sh.mu.Unlock()
	return m.wait(ctx, sh, key, req, bounded)
}

// lockAllShards takes every key shard in ascending index order — the one
// sanctioned way to hold more than one shard at a time.
func (m *Manager) lockAllShards() {
	for _, sh := range m.shards {
		sh.mu.Lock()
	}
}

func (m *Manager) unlockAllShards() {
	for _, sh := range m.shards {
		sh.mu.Unlock()
	}
}

// wait blocks on req after running deadlock detection. It is entered with
// no shard mutex held; req is already queued on key's state in sh.
func (m *Manager) wait(ctx context.Context, sh *keyShard, key storage.Key, req *request, bounded bool) error {
	m.stats.Waits.Inc()
	if bounded && m.waitTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = m.clock.WithTimeout(ctx, m.waitTimeout)
		defer cancel()
	}

	// Deadlock detection needs a consistent snapshot of every shard's
	// waits-for edges, so it runs under all shard mutexes. Between the
	// enqueue above and the snapshot here, a release may already have
	// granted req — then txn no longer waits and no cycle involves it.
	m.lockAllShards()
	if victim := m.detectDeadlockAllLocked(req.txn); victim != "" {
		if victim == req.txn {
			st, stillQueued := sh.locks[key], false
			if st != nil {
				stillQueued = removeRequestLocked(st, req)
			}
			if stillQueued {
				m.stats.Deadlocks.Inc()
				m.unlockAllShards()
				return ErrDeadlock
			}
			// Granted in the window before the snapshot: honour the grant
			// (the channel carries it) and fall through to the wait below.
		} else {
			m.abortWaiterAllLocked(victim, ErrDeadlock)
			m.stats.Deadlocks.Inc()
			// The victim's queue slots are gone; our request may now be
			// grantable.
			promoteLocked(m.clock, sh, key)
		}
	}
	m.unlockAllShards()

	// The wait on req.grant happens outside the clock's knowledge: under a
	// virtual clock the eventual granter may itself be asleep in virtual
	// time, so the waiter must be parked (BlockOn) for the duration or
	// time could never advance. The granter pairs every send with a
	// PrepareWake reservation (req.claim), returned to BlockOn so the wake
	// stays accounted until the waiter is back in the run queue.
	var err error
	granted := false
	select {
	case err = <-req.grant:
		granted = true
	default:
	}
	if !granted {
		m.clock.BlockOn(ctx, func() func() {
			select {
			case err = <-req.grant:
				granted = true
				return req.claim
			case <-ctx.Done():
				return nil
			}
		})
	}
	if granted {
		if req.claim != nil {
			req.claim()
		}
		if err == nil {
			m.recordHeld(req.txn, key, req.mode, m.clock.Now())
			m.stats.WaitTime.ObserveDuration(m.clock.Since(req.start))
		}
		return err
	}

	sh.mu.Lock()
	// A grant may have raced with cancellation.
	select {
	case err := <-req.grant:
		if req.claim != nil {
			req.claim()
		}
		sh.mu.Unlock()
		if err == nil {
			// Granted concurrently; honour the grant (caller will observe
			// ctx and release).
			m.recordHeld(req.txn, key, req.mode, m.clock.Now())
			m.stats.WaitTime.ObserveDuration(m.clock.Since(req.start))
			return nil
		}
		return err
	default:
	}
	if st, ok := sh.locks[key]; ok {
		removeRequestLocked(st, req)
		promoteLocked(m.clock, sh, key)
	}
	sh.mu.Unlock()
	return ctx.Err()
}

// removeRequestLocked deletes req from st's queue if still present,
// reporting whether it was. Callers must hold the key's shard mutex.
func removeRequestLocked(st *lockState, req *request) bool {
	for i, q := range st.queue {
		if q == req {
			st.queue = append(st.queue[:i], st.queue[i+1:]...)
			return true
		}
	}
	return false
}

// promoteLocked grants as many queued requests on key as compatibility
// allows, in FIFO order. The grant only flips the shard-side holder entry
// and wakes the waiter; the waiter records its own held entry when it
// resumes (the granter must not take a foreign txn shard while holding key
// shards). Callers must hold sh.mu.
func promoteLocked(clock sim.Clock, sh *keyShard, key storage.Key) {
	st, ok := sh.locks[key]
	if !ok {
		return
	}
	for len(st.queue) > 0 {
		req := st.queue[0]
		if !canGrantLocked(st, req.txn, req.mode) {
			return
		}
		st.queue = st.queue[1:]
		st.holders[req.txn] = req.mode
		req.claim = clock.PrepareWake()
		req.grant <- nil
		if req.mode == Exclusive {
			return
		}
	}
}

// release removes txn's lock on key, records hold time, and promotes
// waiters. hl is txn's held-lock entry (already detached from the txn
// shard). Callers must hold no shard mutex.
func (m *Manager) release(txn string, key storage.Key, hl heldLock, hadEntry bool) {
	sh := m.shardOf(key)
	sh.mu.Lock()
	st, ok := sh.locks[key]
	if !ok {
		sh.mu.Unlock()
		return
	}
	if _, held := st.holders[txn]; !held {
		sh.mu.Unlock()
		return
	}
	delete(st.holders, txn)
	if len(st.holders) == 0 && len(st.queue) == 0 {
		delete(sh.locks, key)
		if len(sh.free) < maxFreeStates {
			st.queue = nil
			sh.free = append(sh.free, st)
		}
	} else {
		promoteLocked(m.clock, sh, key)
	}
	sh.mu.Unlock()
	if hadEntry {
		d := m.clock.Since(hl.grantAt)
		if hl.mode == Exclusive {
			m.stats.HoldTimeX.ObserveDuration(d)
		} else {
			m.stats.HoldTimeS.ObserveDuration(d)
		}
	}
}

// Release drops txn's lock on a single key, if held.
func (m *Manager) Release(txn string, key storage.Key) {
	hl, ok := m.takeHeld(txn, key)
	m.release(txn, key, hl, ok)
}

// ReleaseAll drops every lock held by txn. Pending requests by txn are NOT
// cancelled (use AbortWaiter for that).
func (m *Manager) ReleaseAll(txn string) {
	ts := m.txnShardOf(txn)
	ts.mu.Lock()
	locks := ts.held[txn]
	type heldKey struct {
		key storage.Key
		hl  heldLock
	}
	keys := make([]heldKey, 0, len(locks))
	for k, hl := range locks {
		keys = append(keys, heldKey{k, hl})
	}
	delete(ts.held, txn)
	delete(ts.seq, txn)
	if locks != nil && len(ts.free) < maxFreeStates {
		clear(locks)
		ts.free = append(ts.free, locks)
	}
	ts.mu.Unlock()
	for _, e := range keys {
		m.release(txn, e.key, e.hl, true)
	}
}

// abortWaiterAllLocked fails every pending request of txn with err.
// Callers must hold every shard mutex.
func (m *Manager) abortWaiterAllLocked(txn string, err error) {
	for _, sh := range m.shards {
		for _, st := range sh.locks {
			for i := 0; i < len(st.queue); {
				if st.queue[i].txn == txn {
					req := st.queue[i]
					st.queue = append(st.queue[:i], st.queue[i+1:]...)
					req.claim = m.clock.PrepareWake()
					req.grant <- err
					continue
				}
				i++
			}
		}
	}
}

// AbortWaiter cancels every pending lock request of txn with ErrAborted,
// releasing queue slots so other waiters can progress. Held locks are not
// released; call ReleaseAll after rolling back.
func (m *Manager) AbortWaiter(txn string) {
	m.lockAllShards()
	m.abortWaiterAllLocked(txn, ErrAborted)
	for _, sh := range m.shards {
		for key := range sh.locks {
			promoteLocked(m.clock, sh, key)
		}
	}
	m.unlockAllShards()
}

// Held returns the keys txn currently holds, with their modes.
func (m *Manager) Held(txn string) map[storage.Key]Mode {
	ts := m.txnShardOf(txn)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make(map[storage.Key]Mode, len(ts.held[txn]))
	for k, hl := range ts.held[txn] {
		out[k] = hl.mode
	}
	return out
}

// HoldsAny reports whether txn holds at least one lock.
func (m *Manager) HoldsAny(txn string) bool {
	ts := m.txnShardOf(txn)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.held[txn]) > 0
}

// WaitsFor returns the current waits-for graph: an edge waiter -> holder
// exists when waiter has a queued request blocked by holder's granted lock
// or by an earlier conflicting queued request.
func (m *Manager) WaitsFor() map[string][]string {
	m.lockAllShards()
	defer m.unlockAllShards()
	return m.waitsForAllLocked()
}

// waitsForAllLocked builds the waits-for graph. Callers must hold every
// shard mutex.
func (m *Manager) waitsForAllLocked() map[string][]string {
	g := make(map[string]map[string]bool)
	addEdge := func(from, to string) {
		if from == to {
			return
		}
		set, ok := g[from]
		if !ok {
			set = make(map[string]bool)
			g[from] = set
		}
		set[to] = true
	}
	for _, sh := range m.shards {
		for _, st := range sh.locks {
			for i, req := range st.queue {
				for holder, hmode := range st.holders {
					if holder == req.txn {
						continue
					}
					if !req.mode.Compatible(hmode) {
						addEdge(req.txn, holder)
					}
				}
				for j := 0; j < i; j++ {
					ahead := st.queue[j]
					if ahead.txn == req.txn {
						continue
					}
					if !req.mode.Compatible(ahead.mode) || !ahead.mode.Compatible(req.mode) {
						addEdge(req.txn, ahead.txn)
					}
				}
			}
		}
	}
	out := make(map[string][]string, len(g))
	for from, set := range g {
		for to := range set {
			out[from] = append(out[from], to)
		}
		sort.Strings(out[from])
	}
	return out
}

// detectDeadlockAllLocked looks for a cycle reachable from start in the
// waits-for graph and returns the chosen victim's txn ID ("" if no cycle).
// The victim is the youngest (highest registration sequence) transaction on
// the cycle. Callers must hold every shard mutex.
func (m *Manager) detectDeadlockAllLocked(start string) string {
	g := m.waitsForAllLocked()
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int)
	var stack []string
	var cycle []string

	var dfs func(n string) bool
	dfs = func(n string) bool {
		color[n] = grey
		stack = append(stack, n)
		for _, next := range g[n] {
			switch color[next] {
			case white:
				if dfs(next) {
					return true
				}
			case grey:
				// Found a cycle: the suffix of stack from next onwards.
				for i := len(stack) - 1; i >= 0; i-- {
					cycle = append(cycle, stack[i])
					if stack[i] == next {
						break
					}
				}
				return true
			}
		}
		color[n] = black
		stack = stack[:len(stack)-1]
		return false
	}
	if !dfs(start) {
		return ""
	}
	victim := ""
	var victimSeq uint64
	victimPrio := 0
	for _, txn := range cycle {
		prio := 0
		if m.priority != nil {
			prio = m.priority(txn)
		}
		s := m.seqPeek(txn)
		if victim == "" || prio > victimPrio || (prio == victimPrio && s > victimSeq) {
			victim, victimSeq, victimPrio = txn, s, prio
		}
	}
	return victim
}
