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
// The whole lock table — every key's holders and wait queue, and every
// transaction's held locks and age — sits behind one mutex. A site serves
// a handful of concurrent transactions, and splitting the table into
// hashed shards measured no faster (EXPERIMENTS.md, Knob verdicts).
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

// request is a pending lock acquisition.
type request struct {
	txn     string
	mode    Mode
	upgrade bool
	grant   chan error // buffered(1); receives nil on grant, error on abort
	start   time.Time
	// claim is the clock's wake-up reservation for this grant: set (under
	// the manager's mutex) by the granter immediately before sending on
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

const (
	// maxFreeStates bounds each freelist.
	maxFreeStates = 64
	// maxRecycledHeld bounds the size of a held-lock map worth recycling:
	// clearing or ranging over a map costs its capacity, not its length,
	// so a map grown by a bulk transaction (seeding thousands of keys)
	// would tax every later transaction that drew it from the freelist.
	maxRecycledHeld = 16
)

// Manager is a per-site lock manager. The zero value is not usable; call
// NewManager.
type Manager struct {
	clock       sim.Clock
	priority    func(txn string) int
	waitTimeout time.Duration
	stats       *Stats

	// mu guards the lock table: every field below.
	mu      sync.Mutex
	locks   map[storage.Key]*lockState
	held    map[string]map[storage.Key]heldLock
	seq     map[string]uint64 // txn -> registration order (age)
	nextSeq uint64
	// freeStates recycles lockState values (and their holders maps)
	// released by fully-unlocked keys, and freeHeld the held-lock maps
	// emptied by ReleaseAll: commit-time bulk release would otherwise make
	// the next transaction re-allocate both, a measurable share of the
	// commit path's allocations.
	freeStates []*lockState
	freeHeld   []map[storage.Key]heldLock
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

// NewManager returns an empty lock manager on the real clock.
func NewManager() *Manager {
	return &Manager{
		clock: sim.Real(),
		stats: newStats(),
		locks: make(map[storage.Key]*lockState),
		held:  make(map[string]map[storage.Key]heldLock),
		seq:   make(map[string]uint64),
	}
}

// Stats returns the manager's measurement sink.
func (m *Manager) Stats() *Stats { return m.stats }

// stateOfLocked returns key's lock state, creating it on first use.
func (m *Manager) stateOfLocked(key storage.Key) *lockState {
	st, ok := m.locks[key]
	if !ok {
		if n := len(m.freeStates); n > 0 {
			st = m.freeStates[n-1]
			m.freeStates[n-1] = nil
			m.freeStates = m.freeStates[:n-1]
		} else {
			st = &lockState{holders: make(map[string]Mode)}
		}
		m.locks[key] = st
	}
	return st
}

// grantLocked makes txn a holder of key in mode and records its held-lock
// entry. An upgrade keeps the original grant time so hold-time metrics
// span the whole period the item was locked.
func (m *Manager) grantLocked(st *lockState, txn string, key storage.Key, mode Mode) {
	st.holders[txn] = mode
	locks, ok := m.held[txn]
	if !ok {
		if n := len(m.freeHeld); n > 0 {
			locks = m.freeHeld[n-1]
			m.freeHeld[n-1] = nil
			m.freeHeld = m.freeHeld[:n-1]
		} else {
			locks = make(map[storage.Key]heldLock, 4)
		}
		m.held[txn] = locks
	}
	grantAt := m.clock.Now()
	if prev, had := locks[key]; had {
		grantAt = prev.grantAt
	}
	locks[key] = heldLock{mode: mode, grantAt: grantAt}
}

// canGrant reports whether txn may immediately take mode on st.
func canGrant(st *lockState, txn string, mode Mode) bool {
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

// mayPass reports whether a grantable request in mode may go ahead of
// queue: only when the queue is empty, or when the request and every
// queued one are Shared. Otherwise strict FIFO prevents writer starvation.
func mayPass(queue []*request, mode Mode) bool {
	for _, q := range queue {
		if mode != Shared || q.mode != Shared {
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
	m.stats.Acquisitions.Inc()
	m.mu.Lock()
	if _, ok := m.seq[txn]; !ok {
		m.nextSeq++
		m.seq[txn] = m.nextSeq
	}
	st := m.stateOfLocked(key)

	if cur, ok := st.holders[txn]; ok {
		if cur == Exclusive || mode == Shared {
			m.mu.Unlock()
			return nil // already strong enough
		}
		// Upgrade S -> X.
		if canGrant(st, txn, Exclusive) {
			m.grantLocked(st, txn, key, Exclusive)
			m.mu.Unlock()
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
		return m.waitLocked(ctx, key, req, bounded)
	}

	if canGrant(st, txn, mode) && mayPass(st.queue, mode) {
		m.grantLocked(st, txn, key, mode)
		m.mu.Unlock()
		return nil
	}
	req := &request{txn: txn, mode: mode, grant: make(chan error, 1), start: m.clock.Now()}
	st.queue = append(st.queue, req)
	return m.waitLocked(ctx, key, req, bounded)
}

// waitLocked runs deadlock detection for req, already queued on key, then
// blocks until req is granted, aborted, or ctx ends. It is entered with
// m.mu held and releases it.
func (m *Manager) waitLocked(ctx context.Context, key storage.Key, req *request, bounded bool) error {
	m.stats.Waits.Inc()
	if bounded && m.waitTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = m.clock.WithTimeout(ctx, m.waitTimeout)
		defer cancel()
	}

	if victim := m.detectDeadlockLocked(req.txn); victim != "" {
		m.stats.Deadlocks.Inc()
		if victim == req.txn {
			removeRequest(m.locks[key], req)
			m.mu.Unlock()
			return ErrDeadlock
		}
		m.abortWaiterLocked(victim, ErrDeadlock)
		// The victim's queue slots are gone; our request may now be
		// grantable.
		m.promoteLocked(key)
	}
	m.mu.Unlock()

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
	if !granted {
		m.mu.Lock()
		// A grant may have raced with cancellation; honour it (the caller
		// will observe ctx and release).
		select {
		case err = <-req.grant:
			granted = true
		default:
			if st, ok := m.locks[key]; ok {
				removeRequest(st, req)
				m.promoteLocked(key)
			}
		}
		m.mu.Unlock()
		if !granted {
			return ctx.Err()
		}
	}
	if req.claim != nil {
		req.claim()
	}
	if err == nil {
		m.stats.WaitTime.ObserveDuration(m.clock.Since(req.start))
	}
	return err
}

// removeRequest deletes req from st's queue if still present.
func removeRequest(st *lockState, req *request) {
	for i, q := range st.queue {
		if q == req {
			st.queue = append(st.queue[:i], st.queue[i+1:]...)
			return
		}
	}
}

// promoteLocked grants as many queued requests on key as compatibility
// allows, in FIFO order, and wakes their waiters.
func (m *Manager) promoteLocked(key storage.Key) {
	st, ok := m.locks[key]
	if !ok {
		return
	}
	for len(st.queue) > 0 {
		req := st.queue[0]
		if !canGrant(st, req.txn, req.mode) {
			return
		}
		st.queue = st.queue[1:]
		m.grantLocked(st, req.txn, key, req.mode)
		req.claim = m.clock.PrepareWake()
		req.grant <- nil
		if req.mode == Exclusive {
			return
		}
	}
}

// releaseLocked removes txn's lock on key, records the hold time of hl
// (txn's held-lock entry, already detached, when hadEntry), and promotes
// waiters.
func (m *Manager) releaseLocked(txn string, key storage.Key, hl heldLock, hadEntry bool) {
	st, ok := m.locks[key]
	if !ok {
		return
	}
	if _, held := st.holders[txn]; !held {
		return
	}
	delete(st.holders, txn)
	if len(st.holders) == 0 && len(st.queue) == 0 {
		delete(m.locks, key)
		if len(m.freeStates) < maxFreeStates {
			st.queue = nil
			m.freeStates = append(m.freeStates, st)
		}
	} else {
		m.promoteLocked(key)
	}
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
	m.mu.Lock()
	defer m.mu.Unlock()
	hl, ok := m.held[txn][key]
	delete(m.held[txn], key)
	m.releaseLocked(txn, key, hl, ok)
}

// ReleaseAll drops every lock held by txn. Pending requests by txn are NOT
// cancelled (use AbortWaiter for that).
func (m *Manager) ReleaseAll(txn string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	locks := m.held[txn]
	delete(m.held, txn)
	delete(m.seq, txn)
	for k, hl := range locks {
		m.releaseLocked(txn, k, hl, true)
	}
	if locks != nil && len(locks) <= maxRecycledHeld && len(m.freeHeld) < maxFreeStates {
		clear(locks)
		m.freeHeld = append(m.freeHeld, locks)
	}
}

// abortWaiterLocked fails every pending request of txn with err.
func (m *Manager) abortWaiterLocked(txn string, err error) {
	for _, st := range m.locks {
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

// AbortWaiter cancels every pending lock request of txn with ErrAborted,
// releasing queue slots so other waiters can progress. Held locks are not
// released; call ReleaseAll after rolling back.
func (m *Manager) AbortWaiter(txn string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.abortWaiterLocked(txn, ErrAborted)
	for key := range m.locks {
		m.promoteLocked(key)
	}
}

// Held returns the keys txn currently holds, with their modes.
func (m *Manager) Held(txn string) map[storage.Key]Mode {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[storage.Key]Mode, len(m.held[txn]))
	for k, hl := range m.held[txn] {
		out[k] = hl.mode
	}
	return out
}

// HoldsAny reports whether txn holds at least one lock.
func (m *Manager) HoldsAny(txn string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.held[txn]) > 0
}

// WaitsFor returns the current waits-for graph: an edge waiter -> holder
// exists when waiter has a queued request blocked by holder's granted lock
// or by an earlier conflicting queued request.
func (m *Manager) WaitsFor() map[string][]string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.waitsForLocked()
}

func (m *Manager) waitsForLocked() map[string][]string {
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
	for _, st := range m.locks {
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
	out := make(map[string][]string, len(g))
	for from, set := range g {
		for to := range set {
			out[from] = append(out[from], to)
		}
		sort.Strings(out[from])
	}
	return out
}

// detectDeadlockLocked looks for a cycle reachable from start in the
// waits-for graph and returns the chosen victim's txn ID ("" if no cycle).
// The victim is the youngest (highest registration sequence) transaction on
// the cycle.
func (m *Manager) detectDeadlockLocked(start string) string {
	g := m.waitsForLocked()
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
		s := m.seq[txn]
		if victim == "" || prio > victimPrio || (prio == victimPrio && s > victimSeq) {
			victim, victimSeq, victimPrio = txn, s, prio
		}
	}
	return victim
}
