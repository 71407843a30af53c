// Package coord is the ackorder fixture's coordinator package: every
// deliverDecision call must be dominated by a decision-durability call.
package coord

import "context"

type decided struct {
	commit  bool
	pending map[string]bool
}

// DecisionLog mirrors the real seam: Decide/PresumeAbort/Snapshot make
// decisions durable; Sync is only a durability wait.
type DecisionLog interface {
	Decide(ctx context.Context, id string, commit bool) (bool, error)
	PresumeAbort(ctx context.Context, id string) (bool, error)
	Snapshot(ctx context.Context) ([]string, map[string]bool, error)
	Sync(ctx context.Context) error
}

type Coordinator struct {
	dlog DecisionLog
}

func (c *Coordinator) deliverDecision(ctx context.Context, id string, d *decided) {}

func (c *Coordinator) adoptPrior(id string) (*decided, bool) { return nil, false }

// bareSend announces with no durability at all: the bug class.
func (c *Coordinator) bareSend(ctx context.Context, id string) {
	c.deliverDecision(ctx, id, &decided{}) // want `coord\.Coordinator\.deliverDecision is not dominated`
}

// decideFirst is the canonical decide path: clean.
func (c *Coordinator) decideFirst(ctx context.Context, id string, commit bool) {
	chosen, err := c.dlog.Decide(ctx, id, commit)
	if err != nil {
		return
	}
	c.deliverDecision(ctx, id, &decided{commit: chosen})
}

// presumeFirst is recovery's presumed-abort path: clean.
func (c *Coordinator) presumeFirst(ctx context.Context, id string) {
	chosen, err := c.dlog.PresumeAbort(ctx, id)
	if err != nil {
		return
	}
	c.deliverDecision(ctx, id, &decided{commit: chosen})
}

// adopted delivers a prior decision that is already in the log: clean.
func (c *Coordinator) adopted(ctx context.Context, id string) {
	if prior, done := c.adoptPrior(id); done {
		c.deliverDecision(ctx, id, prior)
	}
}

// branchMiss decides on only one path: still a violation.
func (c *Coordinator) branchMiss(ctx context.Context, id string, ok bool) {
	if ok {
		_, _ = c.dlog.Decide(ctx, id, true)
	}
	c.deliverDecision(ctx, id, &decided{}) // want `coord\.Coordinator\.deliverDecision is not dominated`
}

// earlyReturn decides on one path and returns on the other: the send is
// only reachable through the durability call, so it is clean.
func (c *Coordinator) earlyReturn(ctx context.Context, id string, ok bool) {
	if !ok {
		return
	}
	_, _ = c.dlog.Decide(ctx, id, true)
	c.deliverDecision(ctx, id, &decided{})
}

// syncOnly waits for durability of nothing: Sync does not establish the
// ordering, so the send is a violation.
func (c *Coordinator) syncOnly(ctx context.Context, id string) {
	_ = c.dlog.Sync(ctx)
	c.deliverDecision(ctx, id, &decided{}) // want `coord\.Coordinator\.deliverDecision is not dominated`
}

// takeoverRedelivery is recovery's shape: the fan-out goroutines inherit
// the flag at their spawn site, which is only reachable through Snapshot's
// majority read. Clean.
func (c *Coordinator) takeoverRedelivery(ctx context.Context) {
	_, decisions, err := c.dlog.Snapshot(ctx)
	if err != nil {
		return
	}
	for id, commit := range decisions {
		id, d := id, &decided{commit: commit}
		go func() {
			c.deliverDecision(ctx, id, d)
		}()
	}
}

// spawnBeforeDurability spawns the send before any durability call: the
// literal inherits a false flag and reports.
func (c *Coordinator) spawnBeforeDurability(ctx context.Context, id string) {
	go func() {
		c.deliverDecision(ctx, id, &decided{}) // want `coord\.Coordinator\.deliverDecision is not dominated`
	}()
	_, _ = c.dlog.Decide(ctx, id, true)
}

// branchBoth makes the decision durable on both branches: clean.
func (c *Coordinator) branchBoth(ctx context.Context, id string, commit bool) {
	if commit {
		_, _ = c.dlog.Decide(ctx, id, true)
	} else {
		_, _ = c.dlog.PresumeAbort(ctx, id)
	}
	c.deliverDecision(ctx, id, &decided{commit: commit})
}

// switchDefault logs in every clause, the default included: clean.
func (c *Coordinator) switchDefault(ctx context.Context, id string, n int) {
	switch n {
	case 0:
		_, _ = c.dlog.PresumeAbort(ctx, id)
	default:
		_, _ = c.dlog.Decide(ctx, id, true)
	}
	c.deliverDecision(ctx, id, &decided{})
}

// switchDefaultMiss only syncs in its default clause.
func (c *Coordinator) switchDefaultMiss(ctx context.Context, id string, n int) {
	switch n {
	case 0:
		_, _ = c.dlog.Decide(ctx, id, true)
	default:
		_ = c.dlog.Sync(ctx)
	}
	c.deliverDecision(ctx, id, &decided{}) // want `coord\.Coordinator\.deliverDecision is not dominated`
}

// typeSwitch checks each clause from the state at the switch.
func (c *Coordinator) typeSwitch(ctx context.Context, id string, x any) {
	switch d := x.(type) {
	case *decided:
		_, _ = c.dlog.Decide(ctx, id, d.commit)
		c.deliverDecision(ctx, id, d)
	case bool:
		c.deliverDecision(ctx, id, &decided{commit: d}) // want `coord\.Coordinator\.deliverDecision is not dominated`
	}
}

// selectComm decides in the one clause that falls through; the other
// returns, so the send after the select is clean.
func (c *Coordinator) selectComm(ctx context.Context, id string, votes chan bool) {
	select {
	case commit := <-votes:
		_, _ = c.dlog.Decide(ctx, id, commit)
	case <-ctx.Done():
		return
	}
	c.deliverDecision(ctx, id, &decided{})
}

// forPost decides before a three-clause loop of sends: clean; the same
// loop before any decision reports.
func (c *Coordinator) forPost(ctx context.Context, ids []string) {
	for i := 0; i < len(ids); i++ {
		c.deliverDecision(ctx, ids[i], &decided{}) // want `coord\.Coordinator\.deliverDecision is not dominated`
	}
	_, _, _ = c.dlog.Snapshot(ctx)
	for i := 0; i < len(ids); i++ {
		c.deliverDecision(ctx, ids[i], &decided{})
	}
}

// labeledBreak decides only inside the loop, which may run zero times or
// leave before the decision.
func (c *Coordinator) labeledBreak(ctx context.Context, ids []string) {
outer:
	for _, id := range ids {
		for {
			if id == "" {
				break outer
			}
			_, _ = c.dlog.Decide(ctx, id, true)
			c.deliverDecision(ctx, id, &decided{})
			break
		}
	}
	c.deliverDecision(ctx, "last", &decided{}) // want `coord\.Coordinator\.deliverDecision is not dominated`
}

// deferInherits delivers from a deferred literal after the decision: the
// literal inherits the flag at its position. Clean.
func (c *Coordinator) deferInherits(ctx context.Context, id string) {
	if _, err := c.dlog.Decide(ctx, id, false); err != nil {
		return
	}
	defer func() {
		c.deliverDecision(ctx, id, &decided{})
	}()
}

// nestedLiteral inherits the flag at its position too, before and after
// the decision.
func (c *Coordinator) nestedLiteral(ctx context.Context, id string) {
	early := func() {
		c.deliverDecision(ctx, id, &decided{}) // want `coord\.Coordinator\.deliverDecision is not dominated`
	}
	_, _ = c.dlog.Decide(ctx, id, true)
	late := func() {
		c.deliverDecision(ctx, id, &decided{})
	}
	early()
	late()
}

// panicStops ends the undecided path with a panic: clean.
func (c *Coordinator) panicStops(ctx context.Context, id string, ok bool) {
	if !ok {
		panic("undecided")
	}
	_, _ = c.dlog.Decide(ctx, id, true)
	c.deliverDecision(ctx, id, &decided{})
}

// switchReturns returns in every case but has no default: a value that
// matches no case reaches the send undecided.
func (c *Coordinator) switchReturns(ctx context.Context, id string, n int) {
	switch n {
	case 0:
		return
	case 1:
		return
	}
	c.deliverDecision(ctx, id, &decided{}) // want `coord\.Coordinator\.deliverDecision is not dominated`
}

// switchDecides decides in every case but has no default, so the path
// that skips every case skips the decision too.
func (c *Coordinator) switchDecides(ctx context.Context, id string, n int) {
	switch n {
	case 0:
		_, _ = c.dlog.Decide(ctx, id, true)
	case 1:
		_, _ = c.dlog.PresumeAbort(ctx, id)
	}
	c.deliverDecision(ctx, id, &decided{}) // want `coord\.Coordinator\.deliverDecision is not dominated`
}

// postSends delivers in a for loop's post statement, which runs after
// every iteration and is checked like the body.
func (c *Coordinator) postSends(ctx context.Context, ids []string) {
	for i := 0; i < len(ids); c.deliverDecision(ctx, ids[i], &decided{}) { // want `coord\.Coordinator\.deliverDecision is not dominated`
		i++
	}
}
