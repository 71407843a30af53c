// Package lock is a miniature lock manager with one mutex per shard, for
// the lockorder fixture.
package lock

import "sync"

type shard struct{ mu sync.Mutex }

type txnShard struct{ mu sync.Mutex }

type Manager struct {
	shards []*shard
	byName map[string]*shard
	txn    txnShard
}

// LockAll takes every shard in slice order and leaves them held for the
// caller: same-class instances held across iterations.
func (m *Manager) LockAll() {
	for _, sh := range m.shards {
		sh.mu.Lock() // want `acquired in a loop and still held`
	}
}

func (m *Manager) UnlockAll() {
	for _, sh := range m.shards {
		sh.mu.Unlock()
	}
}

func (m *Manager) LockOne(i int) { m.shards[i].mu.Lock() }

func (m *Manager) UnlockOne(i int) { m.shards[i].mu.Unlock() }

func (m *Manager) TxnLock() { m.txn.mu.Lock() }

func (m *Manager) TxnUnlock() { m.txn.mu.Unlock() }

// LockByName iterates the name index — a map, whose order no seed
// controls, so successive acquisitions cannot be proven ascending.
func (m *Manager) LockByName() {
	for _, sh := range m.byName {
		sh.mu.Lock() // want `acquired in a loop and still held`
	}
}
