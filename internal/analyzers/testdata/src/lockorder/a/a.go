package a

import (
	"sync"

	"lockorder/internal/lock"
)

type S struct{ mu sync.Mutex }

type T struct{ mu sync.Mutex }

// ab and ba acquire {S.mu, T.mu} in opposite orders; the Finish hook
// reports the cycle at the earliest edge (here, in ab).
func ab(s *S, t *T) {
	s.mu.Lock()
	t.mu.Lock() // want `lock-order cycle`
	t.mu.Unlock()
	s.mu.Unlock()
}

func ba(s *S, t *T) {
	t.mu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	t.mu.Unlock()
}

func doubleLock(a, b *S) {
	a.mu.Lock()
	b.mu.Lock() // want `acquired while another instance of the same class`
	b.mu.Unlock()
	a.mu.Unlock()
}

func relockAcrossCall(m *lock.Manager) {
	m.LockAll()
	m.LockOne(0) // want `calls lock\.Manager\.LockOne, which acquires`
	m.UnlockOne(0)
	m.UnlockAll()
}

// ascending holds same-class instances across iterations of an
// index-ordered slice range: slice order is no proof of a global order
// (another caller may hold the same instances in another slice), so it is
// reported like any other loop.
func ascending(ss []*S) {
	for _, s := range ss {
		s.mu.Lock() // want `acquired in a loop and still held`
	}
	for _, s := range ss {
		s.mu.Unlock()
	}
}

// txnAfterKeys takes the txn mutex while the shard mutexes are held. No
// reverse acquisition exists, so no cycle is reported.
func txnAfterKeys(m *lock.Manager) {
	m.LockAll()
	m.TxnLock()
	m.TxnUnlock()
	m.UnlockAll()
}

// deferredUnlock re-walks the S-before-T direction with a deferred
// release: it adds no new edge pair, and the cycle is reported only once,
// at the earliest S->T edge in ab.
func deferredUnlock(s *S, t *T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t.mu.Lock()
	t.mu.Unlock()
}
