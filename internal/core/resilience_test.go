package core

import (
	"context"
	"testing"
	"time"

	"o2pc/internal/coord"
	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/sim"
)

// TestLossyNetworkEventuallyConsistent drives transfers over a network
// that drops 10% of messages. Exec failures abort transactions cleanly,
// decision delivery retries until acked, so the system settles with money
// conserved. The run is entirely in virtual time: the retry backoffs and
// delivery timeouts that used to make this test slow are simulated.
func TestLossyNetworkEventuallyConsistent(t *testing.T) {
	clock := sim.NewVirtualClock()
	cl := NewCluster(Config{
		Sites: 2,
		Clock: clock,
		Network: rpc.Config{
			DropProb:   0.10,
			Seed:       99,
			MinLatency: 100 * time.Microsecond,
			MaxLatency: 2 * time.Millisecond,
		},
	})
	cl.SeedInt64("acct", 1000)
	ctx, cancel := clock.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	committed := 0
	for i := 0; i < 40; i++ {
		res := cl.Run(ctx, coord.TxnSpec{
			Protocol: proto.O2PC,
			Marking:  proto.MarkP1,
			Subtxns: []coord.SubtxnSpec{
				{Site: "s0", Ops: []proto.Operation{proto.AddMin("acct", -5, 0)}, Comp: proto.CompSemantic},
				{Site: "s1", Ops: []proto.Operation{proto.Add("acct", 5)}, Comp: proto.CompSemantic},
			},
		})
		if res.Committed() {
			committed++
		}
	}
	if committed == 0 {
		t.Fatalf("nothing committed through the lossy network")
	}
	qctx, qcancel := clock.WithTimeout(context.Background(), 20*time.Second)
	defer qcancel()
	if err := cl.Quiesce(qctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	total := cl.Site(0).ReadInt64("acct") + cl.Site(1).ReadInt64("acct")
	if total != 2000 {
		t.Fatalf("money not conserved over lossy network: %d (committed=%d)", total, committed)
	}
	t.Logf("lossy network: %d/40 committed, money conserved", committed)
}

// TestDecisionRetriesThroughSiteOutage commits a transaction whose
// decision cannot initially be delivered to one O2PC participant; the
// coordinator keeps retrying and the site learns its fate after healing.
func TestDecisionRetriesThroughSiteOutage(t *testing.T) {
	clock := sim.NewVirtualClock()
	cl := NewCluster(Config{
		Sites:   2,
		Clock:   clock,
		Network: rpc.Config{MinLatency: 3 * time.Millisecond, MaxLatency: 5 * time.Millisecond},
	})
	cl.SeedInt64("x", 0)
	ctx, cancel := clock.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Sever only the c0 -> s1 direction as soon as s1 has voted YES: the
	// in-flight vote reply still reaches the coordinator, but the decision
	// cannot be delivered and must be retried.
	cl.Site(1).SetVoteAbortInjector(func(id string) bool {
		if id == "Tout" {
			cl.Network().SetOneWayPartition("c0", "s1", true)
		}
		return false
	})
	var res coord.Result
	g := sim.NewGroup(clock)
	g.Go(func() {
		res = cl.Run(ctx, coord.TxnSpec{
			ID: "Tout", Protocol: proto.O2PC, Marking: proto.MarkNone,
			Subtxns: []coord.SubtxnSpec{
				{Site: "s0", Ops: []proto.Operation{proto.Add("x", 1)}, Comp: proto.CompSemantic},
				{Site: "s1", Ops: []proto.Operation{proto.Add("x", 1)}, Comp: proto.CompSemantic},
			},
		})
	})
	// s1 voted YES and locally committed, but can't receive the decision.
	_ = clock.Sleep(ctx, 60*time.Millisecond)
	cl.Network().SetOneWayPartition("c0", "s1", false)
	g.Wait()
	if !res.Committed() {
		t.Fatalf("outcome = %v err=%v", res.Outcome, res.Err)
	}
	// Both sites applied the effects; the retried decision lands within a
	// couple of retry periods of virtual time.
	start := clock.Now()
	for cl.Site(1).ReadInt64("x") != 1 && clock.Since(start) < 2*time.Second {
		_ = clock.Sleep(ctx, time.Millisecond)
	}
	if got := cl.Site(1).ReadInt64("x"); got != 1 {
		t.Fatalf("s1 x = %d", got)
	}
}
