package sim

import (
	"container/heap"
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// VirtualClock is a deterministic logical clock and cooperative scheduler.
// Time never passes on its own: it jumps to the next armed timer the moment
// no tracked goroutine is runnable, and exactly one timer fires per jump.
//
// Determinism comes from a baton discipline: at most one tracked goroutine
// runs at any instant. Every clock operation (Sleep, BlockOn, Go, exit) is
// a yield point; goroutines made runnable by a wake re-enter a run queue
// ordered by the sequence number assigned when they parked — a value fixed
// under the baton, so the queue order is a function of the schedule, not of
// the Go runtime or machine load. The baton passes to the lowest-keyed
// runnable goroutine, and only when no wake is still in flight (pending),
// so the dispatcher never races a resuming goroutine. Together with seeded
// PRNGs this makes a simulated cluster run a deterministic function of its
// seed, executing hours of protocol timeouts in milliseconds of real time.
//
// Tracking rules (see Clock): the goroutine that calls NewVirtualClock is
// the initial tracked goroutine (and holds the baton); all others must be
// spawned via Go.
type VirtualClock struct {
	mu      sync.Mutex
	now     int64 // virtual nanoseconds since base
	base    time.Time
	seq     uint64 // park/arm order; timer tiebreak and run-queue key
	running bool   // a tracked goroutine holds the baton
	pending int    // wake-ups in flight: granted but not yet re-entered
	runq    runQueue
	timers  timerHeap
	// sleepers and blockers register every goroutine parked with a
	// cancellable context (on a clock timer or in BlockOn). Before handing
	// the baton anywhere, the dispatcher reserves a wake for each waiter
	// whose context has been cancelled, so cancellation hand-offs are part
	// of the accounting instead of a real-time race between the woken
	// goroutine re-entering and the clock moving on without it.
	sleepers map[*vtimer]struct{}
	blockers map[*blocker]struct{}
}

// blocker is one goroutine parked in BlockOn with a cancellable context.
type blocker struct {
	ctx      context.Context
	reserved bool
}

// joinPoll is the virtual-time granularity at which Join polls its
// completion predicate.
const joinPoll = 100 * time.Microsecond

// vtimer is one heap entry: either a sleeper (wake != nil) or a context
// deadline (cancel != nil).
type vtimer struct {
	when     int64
	seq      uint64
	wake     chan struct{}
	cancel   context.CancelFunc
	ctx      context.Context // sleeper's context, for cancellation wakes
	fired    bool
	stopped  bool
	reserved bool // a cancellation wake has been reserved for this sleeper
}

type timerHeap []*vtimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*vtimer)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// runEntry is a goroutine that is runnable and waiting for the baton.
type runEntry struct {
	seq uint64 // assigned when the goroutine parked (or was spawned)
	run chan struct{}
}

type runQueue []*runEntry

func (q runQueue) Len() int           { return len(q) }
func (q runQueue) Less(i, j int) bool { return q[i].seq < q[j].seq }
func (q runQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *runQueue) Push(x any)        { *q = append(*q, x.(*runEntry)) }
func (q *runQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// NewVirtualClock returns a virtual clock starting at a fixed epoch, with
// the calling goroutine as the first tracked goroutine, holding the baton.
func NewVirtualClock() *VirtualClock {
	return &VirtualClock{
		base:     time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC),
		running:  true,
		sleepers: make(map[*vtimer]struct{}),
		blockers: make(map[*blocker]struct{}),
	}
}

// Now returns the current virtual time.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.base.Add(time.Duration(c.now))
}

// Since returns the virtual time elapsed since t.
func (c *VirtualClock) Since(t time.Time) time.Duration {
	return c.Now().Sub(t)
}

// Elapsed returns the total virtual time elapsed since the clock's epoch.
func (c *VirtualClock) Elapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.now)
}

// enqueueLocked adds the caller to the run queue under the given park key.
func (c *VirtualClock) enqueueLocked(seq uint64) *runEntry {
	e := &runEntry{seq: seq, run: make(chan struct{})}
	heap.Push(&c.runq, e)
	return e
}

// releaseLocked gives up the baton and lets the dispatcher pick what runs
// (or which timer fires) next.
func (c *VirtualClock) releaseLocked() {
	c.running = false
	c.dispatchLocked()
}

// dispatchLocked hands the baton to the next runnable goroutine, or — when
// none is runnable — jumps virtual time to the next timer and fires it. It
// does nothing while the baton is held or any wake is still in flight: a
// woken goroutine must re-enter the run queue before scheduling decisions
// are made, so those decisions depend only on the schedule. Callers must
// hold c.mu.
func (c *VirtualClock) dispatchLocked() {
	for !c.running && c.pending == 0 {
		if c.reserveCancelledLocked() > 0 {
			// A cancellation has released parked goroutines that have not
			// re-entered yet. They now hold wake reservations, so dispatch
			// waits for them to enqueue — never racing them.
			return
		}
		if len(c.runq) > 0 {
			e := heap.Pop(&c.runq).(*runEntry)
			c.running = true
			close(e.run)
			return
		}
		if len(c.timers) == 0 {
			return
		}
		t := heap.Pop(&c.timers).(*vtimer)
		if t.stopped {
			continue
		}
		if t.when > c.now {
			c.now = t.when
		}
		t.fired = true
		if t.wake != nil {
			// The sleeper resumes holding the baton.
			c.running = true
			close(t.wake)
			return
		}
		// Deadline: cancel the context and loop. The next iteration either
		// reserves wakes for the goroutines this cancellation released (and
		// returns), or — when nobody was waiting on the context — fires the
		// next timer. All context waiters go through Sleep or BlockOn, so
		// the registry scan sees every goroutine a cancellation can wake.
		t.cancel()
	}
}

// reserveCancelledLocked reserves a wake (pending++) for every registered
// waiter whose context has been cancelled but who has not yet re-entered
// the run queue. Each waiter claims its reservation as it re-enters.
func (c *VirtualClock) reserveCancelledLocked() int {
	n := 0
	for t := range c.sleepers {
		if !t.reserved && !t.fired && !t.stopped && t.ctx.Err() != nil {
			t.reserved = true
			c.pending++
			n++
		}
	}
	for b := range c.blockers {
		if !b.reserved && b.ctx.Err() != nil {
			b.reserved = true
			c.pending++
			n++
		}
	}
	return n
}

// Sleep pauses the calling (tracked) goroutine for d of virtual time.
func (c *VirtualClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	c.mu.Lock()
	c.seq++
	t := &vtimer{when: c.now + int64(d), seq: c.seq, wake: make(chan struct{}), ctx: ctx}
	heap.Push(&c.timers, t)
	if ctx.Done() != nil {
		c.sleepers[t] = struct{}{}
	}
	c.releaseLocked()
	c.mu.Unlock()

	select {
	case <-t.wake:
		// Fired: the dispatcher handed us the baton with the wake.
		if ctx.Done() != nil {
			c.mu.Lock()
			delete(c.sleepers, t)
			c.mu.Unlock()
		}
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.sleepers, t)
		if t.fired {
			c.mu.Unlock()
			// The timer fired concurrently and carries the baton; consume
			// the wake and report the cancellation.
			<-t.wake
			return ctx.Err()
		}
		t.stopped = true
		e := c.enqueueLocked(t.seq)
		if t.reserved {
			t.reserved = false
			c.pending--
		}
		c.dispatchLocked()
		c.mu.Unlock()
		<-e.run
		return ctx.Err()
	}
}

// WithTimeout derives a context cancelled after d of virtual time.
func (c *VirtualClock) WithTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	if d <= 0 {
		cancel()
		return ctx, func() {}
	}
	c.mu.Lock()
	c.seq++
	t := &vtimer{when: c.now + int64(d), seq: c.seq, cancel: cancel}
	heap.Push(&c.timers, t)
	c.mu.Unlock()
	return ctx, func() {
		c.mu.Lock()
		if !t.fired {
			t.stopped = true
		}
		c.mu.Unlock()
		cancel()
	}
}

// Go spawns fn as a tracked goroutine. It enters the run queue keyed by its
// spawn order and starts once the baton reaches it.
func (c *VirtualClock) Go(fn func()) {
	c.mu.Lock()
	c.seq++
	e := c.enqueueLocked(c.seq)
	c.dispatchLocked()
	c.mu.Unlock()
	go func() {
		<-e.run
		defer c.exit()
		fn()
	}()
}

// exit untracks a finished goroutine, releasing the baton.
func (c *VirtualClock) exit() {
	c.mu.Lock()
	c.releaseLocked()
	c.mu.Unlock()
}

// Join polls done in virtual time until it reports completion. The
// blocking wait is unused: the predicate (an atomic counter in Group)
// already synchronizes with the joined goroutines.
func (c *VirtualClock) Join(wait func(), done func() bool) {
	_ = wait
	for !done() {
		//o2pcvet:ignore errflow -- Background never expires, so this virtual-time poll interval cannot fail
		_ = c.Sleep(context.Background(), joinPoll)
	}
}

// BlockOn runs wait() with the baton released, so a wait on non-clock
// synchronization (channel, mutex) cannot stall virtual time when the
// eventual waker is itself asleep on the clock. The claim token wait
// returns (from the waker's PrepareWake, or nil) is consumed after the
// caller is back in the run queue, which keeps the wake accounted for
// until the scheduler can see the re-entered goroutine.
func (c *VirtualClock) BlockOn(ctx context.Context, wait func() func()) {
	var b *blocker
	c.mu.Lock()
	c.seq++
	key := c.seq
	if ctx != nil && ctx.Done() != nil {
		b = &blocker{ctx: ctx}
		c.blockers[b] = struct{}{}
	}
	c.releaseLocked()
	c.mu.Unlock()

	claim := wait()

	c.mu.Lock()
	if b != nil {
		delete(c.blockers, b)
		if b.reserved {
			c.pending--
		}
	}
	e := c.enqueueLocked(key)
	c.dispatchLocked()
	c.mu.Unlock()
	if claim != nil {
		claim()
	}
	<-e.run
}

// PrepareWake reserves a wake-up: scheduling halts until the returned claim
// token runs (idempotently). The waker passes the token through its wake
// channel; the wakee's BlockOn returns it so it is claimed only after the
// wakee has re-entered the run queue.
func (c *VirtualClock) PrepareWake() func() {
	c.mu.Lock()
	c.pending++
	c.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			c.mu.Lock()
			c.pending--
			c.dispatchLocked()
			c.mu.Unlock()
		})
	}
}

var _ Clock = (*VirtualClock)(nil)

// Group joins a set of tracked goroutines under either clock discipline:
// a WaitGroup for the real clock's blocking join, an atomic counter as the
// virtual clock's completion predicate.
type Group struct {
	clock Clock
	wg    sync.WaitGroup
	left  atomic.Int64
}

// NewGroup returns a Group spawning through c (nil defaults to the real
// clock).
func NewGroup(c Clock) *Group {
	return &Group{clock: OrReal(c)}
}

// Go spawns fn as a tracked member of the group.
func (g *Group) Go(fn func()) {
	g.wg.Add(1)
	g.left.Add(1)
	g.clock.Go(func() {
		defer g.wg.Done()
		defer g.left.Add(-1)
		fn()
	})
}

// Wait blocks (in real or virtual time) until every spawned member has
// finished. The real clock joins directly on the WaitGroup — the generic
// path's method value and progress closure allocate, which the commit
// path's per-phase joins would pay on every transaction.
func (g *Group) Wait() {
	if _, ok := g.clock.(realClock); ok {
		g.wg.Wait()
		return
	}
	g.clock.Join(g.wg.Wait, func() bool { return g.left.Load() == 0 })
}
