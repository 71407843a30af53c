package lock

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"o2pc/internal/storage"
)

func bg() context.Context { return context.Background() }

func mustAcquire(t *testing.T, m *Manager, txn string, key storage.Key, mode Mode) {
	t.Helper()
	if err := m.Acquire(bg(), txn, key, mode); err != nil {
		t.Fatalf("acquire %s %s %v: %v", txn, key, mode, err)
	}
}

func TestSharedLocksCoexist(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, "T1", "a", Shared)
	mustAcquire(t, m, "T2", "a", Shared)
	if got := len(m.Held("T1")) + len(m.Held("T2")); got != 2 {
		t.Fatalf("held = %d, want 2", got)
	}
}

func TestExclusiveBlocksShared(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, "T1", "a", Exclusive)
	done := make(chan error, 1)
	go func() { done <- m.Acquire(bg(), "T2", "a", Shared) }()
	select {
	case err := <-done:
		t.Fatalf("T2 acquired S over X: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll("T1")
	if err := <-done; err != nil {
		t.Fatalf("T2 grant after release: %v", err)
	}
}

func TestReacquireIsIdempotent(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, "T1", "a", Exclusive)
	mustAcquire(t, m, "T1", "a", Exclusive)
	mustAcquire(t, m, "T1", "a", Shared) // weaker re-request is a no-op
	if m.Held("T1")["a"] != Exclusive {
		t.Fatalf("mode = %v, want X", m.Held("T1")["a"])
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, "T1", "a", Shared)
	mustAcquire(t, m, "T1", "a", Exclusive)
	if m.Held("T1")["a"] != Exclusive {
		t.Fatalf("upgrade failed: %v", m.Held("T1"))
	}
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, "T1", "a", Shared)
	mustAcquire(t, m, "T2", "a", Shared)
	done := make(chan error, 1)
	go func() { done <- m.Acquire(bg(), "T1", "a", Exclusive) }()
	select {
	case err := <-done:
		t.Fatalf("upgrade granted while T2 holds S: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll("T2")
	if err := <-done; err != nil {
		t.Fatalf("upgrade after release: %v", err)
	}
	if m.Held("T1")["a"] != Exclusive {
		t.Fatalf("mode = %v", m.Held("T1")["a"])
	}
}

func TestUpgradeHasPriorityOverQueuedWriters(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, "T1", "a", Shared)
	mustAcquire(t, m, "T2", "a", Shared)

	var order []string
	var mu sync.Mutex
	record := func(who string) {
		mu.Lock()
		order = append(order, who)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	// T3 queues for X first...
	go func() {
		defer wg.Done()
		if err := m.Acquire(bg(), "T3", "a", Exclusive); err == nil {
			record("T3")
			m.ReleaseAll("T3")
		}
	}()
	time.Sleep(10 * time.Millisecond)
	// ...then T1 requests an upgrade, which must jump ahead of T3.
	go func() {
		defer wg.Done()
		if err := m.Acquire(bg(), "T1", "a", Exclusive); err == nil {
			record("T1")
			m.ReleaseAll("T1")
		}
	}()
	time.Sleep(10 * time.Millisecond)
	m.ReleaseAll("T2") // unblocks the queue
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "T1" {
		t.Fatalf("grant order = %v, want [T1 T3]", order)
	}
}

func TestWriterNotStarvedByLateReaders(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, "T1", "a", Shared)
	writerDone := make(chan error, 1)
	go func() { writerDone <- m.Acquire(bg(), "W", "a", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	// A late reader must queue behind the writer, not jump it.
	readerDone := make(chan error, 1)
	go func() { readerDone <- m.Acquire(bg(), "R", "a", Shared) }()
	select {
	case <-readerDone:
		t.Fatalf("late reader jumped queued writer")
	case <-time.After(20 * time.Millisecond):
	}
	m.ReleaseAll("T1")
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	m.ReleaseAll("W")
	if err := <-readerDone; err != nil {
		t.Fatalf("reader: %v", err)
	}
}

func TestSharedBatchGrant(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, "W", "a", Exclusive)
	var granted atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := m.Acquire(bg(), fmt.Sprintf("R%d", i), "a", Shared); err == nil {
				granted.Add(1)
			}
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll("W")
	wg.Wait()
	if granted.Load() != 4 {
		t.Fatalf("granted = %d, want all 4 readers batched", granted.Load())
	}
}

func TestDeadlockDetectedTwoTxns(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, "T1", "a", Exclusive)
	mustAcquire(t, m, "T2", "b", Exclusive)

	errs := make(chan error, 2)
	go func() { errs <- m.Acquire(bg(), "T1", "b", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	go func() { errs <- m.Acquire(bg(), "T2", "a", Exclusive) }()

	var sawDeadlock bool
	for i := 0; i < 1; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, ErrDeadlock) {
				sawDeadlock = true
			}
		case <-time.After(time.Second):
			t.Fatalf("deadlock not resolved")
		}
	}
	if !sawDeadlock {
		// One request may have been granted after the victim aborted;
		// drain the other.
		select {
		case err := <-errs:
			sawDeadlock = errors.Is(err, ErrDeadlock)
		case <-time.After(time.Second):
			t.Fatalf("no deadlock error delivered")
		}
	}
	if !sawDeadlock {
		t.Fatalf("no transaction chosen as deadlock victim")
	}
	if m.Stats().Deadlocks.Value() == 0 {
		t.Fatalf("deadlock counter not incremented")
	}
}

func TestDeadlockThreeWayCycle(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, "T1", "a", Exclusive)
	mustAcquire(t, m, "T2", "b", Exclusive)
	mustAcquire(t, m, "T3", "c", Exclusive)

	errs := make(chan error, 3)
	go func() { errs <- m.Acquire(bg(), "T1", "b", Exclusive) }()
	time.Sleep(5 * time.Millisecond)
	go func() { errs <- m.Acquire(bg(), "T2", "c", Exclusive) }()
	time.Sleep(5 * time.Millisecond)
	go func() { errs <- m.Acquire(bg(), "T3", "a", Exclusive) }()

	deadline := time.After(2 * time.Second)
	for i := 0; i < 3; i++ {
		var err error
		select {
		case err = <-errs:
		case <-deadline:
			t.Fatalf("cycle not resolved (got %d results)", i)
		}
		if errors.Is(err, ErrDeadlock) {
			return // victim chosen; others may still be waiting on locks we hold
		}
		// A grant: release so remaining waiters can proceed.
	}
	t.Fatalf("three-way deadlock never produced a victim")
}

func TestVictimPriorityShieldsCompensation(t *testing.T) {
	m := NewManager()
	m.SetVictimPriority(func(id string) int {
		if id == "CT1" {
			return -1
		}
		return 0
	})
	mustAcquire(t, m, "CT1", "a", Exclusive)
	mustAcquire(t, m, "T2", "b", Exclusive)

	ctErr := make(chan error, 1)
	go func() { ctErr <- m.Acquire(bg(), "CT1", "b", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	t2Err := make(chan error, 1)
	go func() { t2Err <- m.Acquire(bg(), "T2", "a", Exclusive) }()

	select {
	case err := <-t2Err:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("T2 err = %v, want deadlock victim", err)
		}
	case <-time.After(time.Second):
		t.Fatalf("no victim chosen")
	}
	m.ReleaseAll("T2")
	if err := <-ctErr; err != nil {
		t.Fatalf("CT1 should have survived: %v", err)
	}
}

func TestContextCancellationRemovesWaiter(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, "T1", "a", Exclusive)
	ctx, cancel := context.WithCancel(bg())
	done := make(chan error, 1)
	go func() { done <- m.Acquire(ctx, "T2", "a", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want canceled", err)
	}
	// The queue slot must be gone: T3 gets the lock after T1 releases.
	m.ReleaseAll("T1")
	mustAcquire(t, m, "T3", "a", Exclusive)
}

func TestAbortWaiterFailsPendingRequests(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, "T1", "a", Exclusive)
	done := make(chan error, 1)
	go func() { done <- m.Acquire(bg(), "T2", "a", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	m.AbortWaiter("T2")
	if err := <-done; !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
}

func TestWaitsForGraph(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, "T1", "a", Exclusive)
	go m.Acquire(bg(), "T2", "a", Exclusive)
	time.Sleep(10 * time.Millisecond)
	g := m.WaitsFor()
	if len(g["T2"]) != 1 || g["T2"][0] != "T1" {
		t.Fatalf("waits-for = %v, want T2 -> T1", g)
	}
	m.ReleaseAll("T1")
}

func TestHoldTimeRecordedOnRelease(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, "T1", "a", Exclusive)
	mustAcquire(t, m, "T1", "b", Shared)
	time.Sleep(5 * time.Millisecond)
	m.ReleaseAll("T1")
	if m.Stats().HoldTimeX.Count() != 1 {
		t.Fatalf("X hold samples = %d", m.Stats().HoldTimeX.Count())
	}
	if m.Stats().HoldTimeS.Count() != 1 {
		t.Fatalf("S hold samples = %d", m.Stats().HoldTimeS.Count())
	}
	if m.Stats().HoldTimeX.Mean() < 4 {
		t.Fatalf("X hold mean = %.2fms, want >= ~5ms", m.Stats().HoldTimeX.Mean())
	}
}

func TestUpgradeHoldTimeSpansFromFirstGrant(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, "T1", "a", Shared)
	time.Sleep(5 * time.Millisecond)
	mustAcquire(t, m, "T1", "a", Exclusive)
	m.ReleaseAll("T1")
	if got := m.Stats().HoldTimeX.Mean(); got < 4 {
		t.Fatalf("upgrade hold time = %.2fms, want to span the S period", got)
	}
}

func TestModeStringsAndCompatibility(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Fatalf("mode strings wrong")
	}
	if !Shared.Compatible(Shared) {
		t.Fatalf("S/S must be compatible")
	}
	for _, pair := range [][2]Mode{{Shared, Exclusive}, {Exclusive, Shared}, {Exclusive, Exclusive}} {
		if pair[0].Compatible(pair[1]) {
			t.Fatalf("%v/%v must conflict", pair[0], pair[1])
		}
	}
}

func TestConcurrentStress(t *testing.T) {
	m := NewManager()
	keys := []storage.Key{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	var deadlocks atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				txn := fmt.Sprintf("T%d-%d", g, i)
				ok := true
				for _, k := range keys[:1+(g+i)%3] {
					mode := Shared
					if (g+i)%2 == 0 {
						mode = Exclusive
					}
					if err := m.Acquire(bg(), txn, k, mode); err != nil {
						deadlocks.Add(1)
						ok = false
						break
					}
				}
				_ = ok
				m.ReleaseAll(txn)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("stress run hung (lost wakeup or undetected deadlock)")
	}
	t.Logf("stress: %d deadlock victims, %d acquisitions",
		deadlocks.Load(), m.Stats().Acquisitions.Value())
}

// TestNoIncompatibleCoHolders randomly exercises the manager and checks
// the core safety invariant after every grant: no key is ever held in
// incompatible modes by two transactions.
func TestNoIncompatibleCoHolders(t *testing.T) {
	m := NewManager()
	keys := []storage.Key{"a", "b", "c"}
	var mu sync.Mutex
	violation := ""
	check := func() {
		mu.Lock()
		defer mu.Unlock()
		for _, k := range keys {
			holders := map[string]Mode{}
			for _, txn := range []string{"T0", "T1", "T2", "T3", "T4", "T5"} {
				if mode, ok := m.Held(txn)[k]; ok {
					holders[txn] = mode
				}
			}
			x, s := 0, 0
			for _, mode := range holders {
				if mode == Exclusive {
					x++
				} else {
					s++
				}
			}
			if x > 1 || (x == 1 && s > 0) {
				violation = fmt.Sprintf("key %s holders %v", k, holders)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			txn := fmt.Sprintf("T%d", g)
			for i := 0; i < 150; i++ {
				k := keys[(g+i)%len(keys)]
				mode := Shared
				if (g+i)%3 == 0 {
					mode = Exclusive
				}
				if err := m.Acquire(bg(), txn, k, mode); err == nil {
					check()
				}
				if i%4 == 3 {
					m.ReleaseAll(txn)
				}
			}
			m.ReleaseAll(txn)
		}(g)
	}
	wg.Wait()
	if violation != "" {
		t.Fatalf("incompatible co-holders: %s", violation)
	}
}
