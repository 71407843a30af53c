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

// TestReleaseAllManyKeys locks many keys under one transaction and checks
// ReleaseAll frees them all, leaving each key immediately grantable to
// another transaction.
func TestReleaseAllManyKeys(t *testing.T) {
	m := NewManager()
	var keys []storage.Key
	for i := 0; i < 16; i++ {
		keys = append(keys, storage.Key(fmt.Sprintf("k%02d", i)))
	}
	for _, k := range keys {
		mustAcquire(t, m, "T1", k, Exclusive)
	}
	if got := len(m.Held("T1")); got != len(keys) {
		t.Fatalf("held = %d, want %d", got, len(keys))
	}
	m.ReleaseAll("T1")
	if m.HoldsAny("T1") {
		t.Fatalf("T1 still holds locks after ReleaseAll")
	}
	for _, k := range keys {
		mustAcquire(t, m, "T2", k, Exclusive)
	}
	if got := len(m.Held("T2")); got != len(keys) {
		t.Fatalf("T2 held = %d, want %d", got, len(keys))
	}
}

// TestReleaseAllRecyclesOnlySmallHeldMaps checks that a bulk transaction's
// held-lock map is left to the GC: recycled, its capacity would make every
// later ReleaseAll that drew it pay for thousands of empty slots.
func TestReleaseAllRecyclesOnlySmallHeldMaps(t *testing.T) {
	m := NewManager()
	for i := 0; i <= maxRecycledHeld; i++ {
		mustAcquire(t, m, "bulk", storage.Key(fmt.Sprintf("k%02d", i)), Exclusive)
	}
	m.ReleaseAll("bulk")
	if n := len(m.freeHeld); n != 0 {
		t.Fatalf("freeHeld = %d after a bulk release, want 0", n)
	}
	mustAcquire(t, m, "T1", "a", Exclusive)
	m.ReleaseAll("T1")
	if n := len(m.freeHeld); n != 1 {
		t.Fatalf("freeHeld = %d after a one-key release, want 1", n)
	}
}

// TestUpgradePromotionUnderContention runs the upgrade-priority scenario
// on several keys in turn: on each key U holds S and queues an upgrade to
// X while P queues a fresh X request; when the other S holder releases,
// the upgrade must win.
func TestUpgradePromotionUnderContention(t *testing.T) {
	m := NewManager()
	for i, k := range []storage.Key{"a", "b", "c", "d"} {
		holder := fmt.Sprintf("H%d", i)
		up := fmt.Sprintf("U%d", i)
		plain := fmt.Sprintf("P%d", i)
		mustAcquire(t, m, holder, k, Shared)
		mustAcquire(t, m, up, k, Shared)

		upDone := make(chan error, 1)
		go func() { upDone <- m.Acquire(bg(), up, k, Exclusive) }()
		// Wait until the upgrade is queued so the plain X lands behind it.
		waitQueued(t, m, k, up)
		plainDone := make(chan error, 1)
		go func() { plainDone <- m.Acquire(bg(), plain, k, Exclusive) }()
		waitQueued(t, m, k, plain)

		m.ReleaseAll(holder)
		if err := <-upDone; err != nil {
			t.Fatalf("key %s: upgrade: %v", k, err)
		}
		// The plain X must still be waiting: the upgrade holds X.
		select {
		case err := <-plainDone:
			t.Fatalf("key %s: plain X granted before upgrader released: %v", k, err)
		case <-time.After(10 * time.Millisecond):
		}
		if m.Held(up)[k] != Exclusive {
			t.Fatalf("key %s: upgrader mode = %v, want X", k, m.Held(up)[k])
		}
		m.ReleaseAll(up)
		if err := <-plainDone; err != nil {
			t.Fatalf("key %s: plain X after upgrader release: %v", k, err)
		}
		m.ReleaseAll(plain)
	}
}

// waitQueued spins until txn has a queued (not granted) request on key.
func waitQueued(t *testing.T, m *Manager, key storage.Key, txn string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		m.mu.Lock()
		queued := false
		if st, ok := m.locks[key]; ok {
			for _, q := range st.queue {
				if q.txn == txn {
					queued = true
					break
				}
			}
		}
		m.mu.Unlock()
		if queued {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("txn %s never queued on %s", txn, key)
}

// TestDeadlockVictimIsYoungest builds a two-transaction cycle on two keys
// and checks the detector aborts the younger transaction.
func TestDeadlockVictimIsYoungest(t *testing.T) {
	m := NewManager()
	mustAcquire(t, m, "T1", "a", Exclusive) // T1 registers first: older
	mustAcquire(t, m, "T2", "b", Exclusive)

	t1Done := make(chan error, 1)
	go func() { t1Done <- m.Acquire(bg(), "T1", "b", Exclusive) }()
	waitQueued(t, m, "b", "T1")

	// Closing the cycle from T2 must pick the younger T2 as victim.
	if err := m.Acquire(bg(), "T2", "a", Exclusive); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("T2 acquire = %v, want ErrDeadlock", err)
	}
	m.ReleaseAll("T2")
	if err := <-t1Done; err != nil {
		t.Fatalf("T1 after victim release: %v", err)
	}
	if m.Stats().Deadlocks.Value() == 0 {
		t.Fatalf("deadlock not counted")
	}
	m.ReleaseAll("T1")
}

// TestDeadlockVictimPriorityOverAge checks SetVictimPriority steers victim
// selection on a two-key cycle: the high-priority (more abortable)
// transaction is killed even though it is older.
func TestDeadlockVictimPriorityOverAge(t *testing.T) {
	m := NewManager()
	m.SetVictimPriority(func(txn string) int {
		if txn == "T1" {
			return 1 // make the older T1 the preferred victim
		}
		return 0
	})
	mustAcquire(t, m, "T1", "a", Exclusive)
	mustAcquire(t, m, "T2", "b", Exclusive)

	t1Done := make(chan error, 1)
	go func() { t1Done <- m.Acquire(bg(), "T1", "b", Exclusive) }()
	waitQueued(t, m, "b", "T1")

	t2Done := make(chan error, 1)
	go func() { t2Done <- m.Acquire(bg(), "T2", "a", Exclusive) }()

	// T2's detection pass must abort T1's pending request.
	if err := <-t1Done; !errors.Is(err, ErrDeadlock) {
		t.Fatalf("T1 acquire = %v, want ErrDeadlock (priority victim)", err)
	}
	m.ReleaseAll("T1")
	if err := <-t2Done; err != nil {
		t.Fatalf("T2 after victim release: %v", err)
	}
	m.ReleaseAll("T2")
}

// TestStressOrderedAcquire hammers the manager from many goroutines
// acquiring overlapping key sets in a global order (so no deadlock can
// form) and requires every acquisition to succeed. CI runs the package
// with -race -count=5.
func TestStressOrderedAcquire(t *testing.T) {
	m := NewManager()
	const (
		workers = 8
		iters   = 150
		keys    = 24
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				txn := fmt.Sprintf("W%d-%d", w, i)
				// Three keys in ascending order: global ordering prevents
				// deadlock, contention exercises queues and promotion.
				base := (w + i) % keys
				for j := 0; j < 3; j++ {
					k := storage.Key(fmt.Sprintf("s%02d", (base+j*5)%keys))
					mode := Exclusive
					if j == 0 {
						mode = Shared
					}
					if err := m.Acquire(bg(), txn, k, mode); err != nil {
						t.Errorf("%s acquire %s: %v", txn, k, err)
						return
					}
				}
				m.ReleaseAll(txn)
			}
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for i := 0; i < iters; i++ {
			if m.HoldsAny(fmt.Sprintf("W%d-%d", w, i)) {
				t.Fatalf("W%d-%d leaked locks", w, i)
			}
		}
	}
}

// TestStressDeadlockRecovery hammers the detector: workers grab key pairs
// in opposite orders, so deadlocks are guaranteed; victims release and
// retry. The run must terminate with every worker eventually done and no
// locks leaked.
func TestStressDeadlockRecovery(t *testing.T) {
	m := NewManager()
	const (
		workers = 6
		iters   = 40
	)
	pairs := [][2]storage.Key{
		{"dx0", "dx1"}, {"dx2", "dx3"}, {"dx4", "dx5"},
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				txn := fmt.Sprintf("D%d-%d", w, i)
				pair := pairs[(w+i)%len(pairs)]
				first, second := pair[0], pair[1]
				if w%2 == 1 {
					first, second = second, first // opposite order: deadlocks
				}
				for {
					if err := m.Acquire(bg(), txn, first, Exclusive); err != nil {
						m.ReleaseAll(txn)
						continue
					}
					if err := m.Acquire(bg(), txn, second, Exclusive); err != nil {
						m.ReleaseAll(txn)
						continue
					}
					break
				}
				m.ReleaseAll(txn)
			}
		}()
	}
	wg.Wait()
	for _, pair := range pairs {
		for _, k := range pair {
			mustAcquire(t, m, "probe", k, Exclusive)
		}
	}
	m.ReleaseAll("probe")
}
