// Package a exercises the lockheld analyzer: blocking calls with a mutex
// held, and mutexes passed by value.
package a

import (
	"context"
	"sync"
	"time"

	"lockheld/internal/rpc"
	"lockheld/internal/sim"
)

type server struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	clock sim.Clock
	net   *rpc.Caller
}

// sleepHeld blocks in virtual time with the mutex held: the classic
// whole-simulation stall.
func (s *server) sleepHeld(ctx context.Context) {
	s.mu.Lock()
	_ = s.clock.Sleep(ctx, time.Millisecond) // want `Sleep blocks in virtual time while s\.mu \(locked at line \d+\) is still held`
	s.mu.Unlock()
}

// sleepAfterUnlock releases first: clean.
func (s *server) sleepAfterUnlock(ctx context.Context) {
	s.mu.Lock()
	s.mu.Unlock()
	_ = s.clock.Sleep(ctx, time.Millisecond)
}

// deferredUnlock holds the mutex until return, so the sleep is still
// under the lock.
func (s *server) deferredUnlock(ctx context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.clock.Sleep(ctx, time.Millisecond) // want `Sleep blocks in virtual time while s\.mu \(locked at line \d+\) is still held`
}

// rlockHeld: read locks count too — an RPC round-trip under RLock blocks
// every writer for the duration of the network call.
func (s *server) rlockHeld(ctx context.Context) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	_, _ = s.net.Call(ctx, "site-1", "Prepare", nil) // want `Call performs a network round-trip while s\.rw \(locked at line \d+\) is still held`
}

// tryLockPoll is the lockPending idiom: TryLock is not tracked because
// its failure path holds nothing, and the poll exists precisely to avoid
// blocking with the lock contended.
func (s *server) tryLockPoll(ctx context.Context) {
	for !s.mu.TryLock() {
		_ = s.clock.Sleep(ctx, time.Microsecond)
	}
	s.mu.Unlock()
}

// branchHeld: held on one path in is held on the merged path out.
func (s *server) branchHeld(ctx context.Context, fast bool) {
	if !fast {
		s.mu.Lock()
	}
	s.clock.BlockOn(func() bool { return true }) // want `BlockOn blocks in virtual time while s\.mu \(locked at line \d+\) is still held`
	if !fast {
		s.mu.Unlock()
	}
}

// goroutineFresh: the literal runs on another goroutine with its own
// (empty) held-set, so the sleep inside it is clean.
func (s *server) goroutineFresh(ctx context.Context) {
	s.mu.Lock()
	s.clock.Go(func() {
		_ = s.clock.Sleep(ctx, time.Millisecond)
	})
	s.mu.Unlock()
}

// joinHeld: joining the clock waits for every tracked goroutine — doing
// that with the mutex held deadlocks any of them that need it.
func (s *server) joinHeld(wg *sync.WaitGroup) {
	s.mu.Lock()
	s.clock.Join(wg.Wait, func() bool { return true }) // want `Join blocks in virtual time while s\.mu \(locked at line \d+\) is still held`
	s.mu.Unlock()
}

// takeMutex copies the lock state on every call.
func takeMutex(mu sync.Mutex) { // want `sync\.Mutex passed by value copies the lock state`
	mu.Lock()
	mu.Unlock()
}

func pointerMutex(mu *sync.Mutex) { // clean: pointer parameter
	mu.Lock()
	mu.Unlock()
}

// branchBoth releases on both branches: clean.
func (s *server) branchBoth(ctx context.Context, fast bool) {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
	} else {
		s.mu.Unlock()
	}
	_ = s.clock.Sleep(ctx, time.Millisecond)
}

// earlyReturn locks only on a path that returns: clean after it.
func (s *server) earlyReturn(ctx context.Context, ok bool) {
	if !ok {
		s.mu.Lock()
		return
	}
	_ = s.clock.Sleep(ctx, time.Millisecond)
}

// switchDefault acquires in one clause; the lock is held after the switch.
func (s *server) switchDefault(ctx context.Context, k int) {
	switch k {
	case 1:
		s.mu.Lock()
	default:
	}
	_ = s.clock.Sleep(ctx, time.Millisecond) // want `Sleep blocks in virtual time while s\.mu \(locked at line \d+\) is still held`
}

// typeSwitch holds and releases inside one clause: clean after it.
func (s *server) typeSwitch(ctx context.Context, x any) {
	switch x.(type) {
	case int:
		s.mu.Lock()
		_ = s.clock.Sleep(ctx, time.Millisecond) // want `Sleep blocks in virtual time while s\.mu \(locked at line \d+\) is still held`
		s.mu.Unlock()
	default:
	}
	_ = s.clock.Sleep(ctx, time.Millisecond)
}

// selectComm sleeps in a clause body with the lock held.
func (s *server) selectComm(ctx context.Context, ch chan int) {
	s.mu.Lock()
	select {
	case <-ch:
		_ = s.clock.Sleep(ctx, time.Millisecond) // want `Sleep blocks in virtual time while s\.mu \(locked at line \d+\) is still held`
	case <-ctx.Done():
	}
	s.mu.Unlock()
}

// forPost locks and unlocks each iteration of a three-clause loop.
func (s *server) forPost(ctx context.Context, n int) {
	for i := 0; i < n; i++ {
		s.mu.Lock()
		_ = s.clock.Sleep(ctx, time.Millisecond) // want `Sleep blocks in virtual time while s\.mu \(locked at line \d+\) is still held`
		s.mu.Unlock()
	}
	_ = s.clock.Sleep(ctx, time.Millisecond)
}

// rangeHeld leaves a loop with the lock its body took.
func (s *server) rangeHeld(ctx context.Context, items []int) {
	for range items {
		s.mu.Lock()
	}
	_ = s.clock.Sleep(ctx, time.Millisecond) // want `Sleep blocks in virtual time while s\.mu \(locked at line \d+\) is still held`
}

// labeledBreak unlocks before both of the inner loop's breaks: clean.
func (s *server) labeledBreak(ctx context.Context, items []int) {
outer:
	for _, it := range items {
		for {
			s.mu.Lock()
			if it == 0 {
				s.mu.Unlock()
				break outer
			}
			s.mu.Unlock()
			break
		}
	}
	_ = s.clock.Sleep(ctx, time.Millisecond)
}

// spawnedLiterals start from an empty held-set: the deferred body runs
// after return, and the goroutine on its own stack.
func (s *server) spawnedLiterals(ctx context.Context) {
	s.mu.Lock()
	defer func() {
		_ = s.clock.Sleep(ctx, time.Millisecond)
	}()
	go func() {
		s.rw.Lock()
		_, _ = s.net.Call(ctx, "site-1", "Prepare", nil) // want `Call performs a network round-trip while s\.rw \(locked at line \d+\) is still held`
		s.rw.Unlock()
	}()
	s.mu.Unlock()
}

// panicStops locks only on a path that panics: clean after it.
func (s *server) panicStops(ctx context.Context, ok bool) {
	if !ok {
		s.mu.Lock()
		panic("held")
	}
	_ = s.clock.Sleep(ctx, time.Millisecond)
}

// switchUnlockReturns releases and returns in its one case, but with no
// default a value matching no case reaches the sleep still holding s.mu.
func (s *server) switchUnlockReturns(ctx context.Context, k int) {
	s.mu.Lock()
	switch k {
	case 1:
		s.mu.Unlock()
		return
	}
	_ = s.clock.Sleep(ctx, time.Millisecond) // want `Sleep blocks in virtual time while s\.mu \(locked at line \d+\) is still held`
	s.mu.Unlock()
}

// switchDefaultUnlocks releases in its case and in its default: no path
// reaches the sleep holding s.mu. Clean.
func (s *server) switchDefaultUnlocks(ctx context.Context, k int) {
	s.mu.Lock()
	switch k {
	case 1:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
	}
	_ = s.clock.Sleep(ctx, time.Millisecond)
}
