package core

import (
	"context"
	"testing"
	"time"

	"o2pc/internal/history"
	"o2pc/internal/metrics"
	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/sim"
	"o2pc/internal/trace"
	"o2pc/internal/wal"
)

// settled waits, in the cluster's time, until every site is idle and
// coordinator 0 has ended every decided transaction.
func settled(t *testing.T, cl *Cluster, ctx context.Context) {
	t.Helper()
	if err := cl.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	for cl.Coordinator(0).Stats().Decided.Value() > 0 {
		if err := cl.clock.Sleep(ctx, time.Millisecond); err != nil {
			t.Fatalf("waiting for the coordinator to end its transactions: %v", err)
		}
	}
}

// TestPaxosTakeoverSkipsForgottenTransaction: once the acceptors forgot an
// ended transaction, a leader takeover neither re-ballots it nor presumes
// abort for it, and sends nothing about it at all: no site holds it
// undecided and no acceptor holds its instance.
func TestPaxosTakeoverSkipsForgottenTransaction(t *testing.T) {
	clock := sim.NewVirtualClock()
	cl := NewCluster(Config{
		Sites:    2,
		Replicas: 3,
		Record:   true,
		Clock:    clock,
		Tracer:   trace.New(clock, trace.DefaultNodeCapacity),
		Network:  rpc.Config{MinLatency: 100 * time.Microsecond, MaxLatency: time.Millisecond, Seed: 1},
	})
	defer cl.Close()
	cl.SeedInt64("acct", 100)
	ctx, cancel := clock.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, id := range []string{"T1", "T2"} {
		spec := transferSpec(proto.Paxos, proto.MarkP1, 10)
		spec.ID = id
		if res := cl.Run(ctx, spec); !res.Committed() {
			t.Fatalf("%s: %v (%v)", id, res.Outcome, res.Err)
		}
		settled(t, cl, ctx) // T1 ends before T2's accept, which carries its forget
	}
	for _, r := range cl.Replicas() {
		if r.Holds("c0", "T1") {
			t.Fatalf("%s still holds T1 after the next accept", r.Name())
		}
	}

	since := clock.Now().UnixNano()
	cl.CrashCoordinator(0)
	if err := cl.RecoverCoordinator(ctx, 0); err != nil {
		t.Fatalf("recover: %v", err)
	}
	settled(t, cl, ctx)
	for _, ev := range cl.Tracer().Events() {
		if ev.T >= since && ev.Txn == "T1" {
			t.Fatalf("the takeover acted on the forgotten T1: %+v", ev)
		}
	}
	if fate := cl.History().FateOf("T1"); fate != history.FateCommitted {
		t.Fatalf("T1 fate = %v, want committed", fate)
	}
	requireBalances(t, cl, 80, 120)
}

// TestPaxosStateBounded: a Paxos cluster keeps no table that grows by an
// entry per transaction. After N and after 2N transactions, the sites'
// fences and the acceptors' logs stay under one checkpoint threshold
// (which one entry per transaction would pass by 2N), the acceptors hold
// only the instances whose forget has not ridden an accept yet, and the
// histograms grow by a small fraction of what keeping every sample would
// take.
func TestPaxosStateBounded(t *testing.T) {
	const n = 3000
	bound := int64(wal.CheckpointThreshold(0))
	if 2*n <= bound {
		t.Fatalf("2N = %d does not pass the checkpoint threshold %d: the test cannot see growth", 2*n, bound)
	}
	cl := NewCluster(Config{Sites: 2, Replicas: 3})
	defer cl.Close()
	cl.SeedInt64("acct", 1<<40)
	ctx := context.Background()
	type state struct{ fence, instances, records, histBytes, samples int64 }
	measure := func() state {
		var s state
		for _, site := range cl.Sites() {
			s.fence = max(s.fence, site.Stats().FenceTxns.Value())
		}
		for _, r := range cl.Replicas() {
			s.instances = max(s.instances, r.Stats().Instances.Value())
			s.records = max(s.records, r.Stats().WALRecords.Value())
		}
		reg := metrics.NewRegistry()
		cl.PublishMetrics(reg)
		for _, name := range reg.HistogramNames() {
			h := reg.Histogram(name)
			s.histBytes += int64(h.Bytes())
			s.samples += int64(h.Count())
		}
		return s
	}
	run := func(count int) state {
		for i := 0; i < count; i++ {
			if res := cl.Run(ctx, transferSpec(proto.Paxos, proto.MarkNone, 1)); !res.Committed() {
				t.Fatalf("transfer: %v (%v)", res.Outcome, res.Err)
			}
		}
		settled(t, cl, ctxWithTimeout(t))
		return measure()
	}
	first := run(n)
	second := run(n)
	t.Logf("after N=%d: %+v; after 2N: %+v", n, first, second)
	for _, s := range []state{first, second} {
		// A site fences the decisions of two checkpoint intervals; each
		// transaction logs at least two records there.
		if s.fence > bound {
			t.Errorf("a site fences %d transactions", s.fence)
		}
		// Only the last transaction's forget has not ridden an accept.
		if s.instances > 2 {
			t.Errorf("an acceptor holds %d instances", s.instances)
		}
		// Two records per transaction (ACCEPT, END) until a checkpoint
		// keeps only the term and the instances held.
		if s.records > bound+s.instances+2 {
			t.Errorf("an acceptor's log holds %d records", s.records)
		}
	}
	// New octaves appear only for latencies never seen before; keeping
	// the samples would have taken 8 bytes each.
	grown, exact := second.histBytes-first.histBytes, 8*(second.samples-first.samples)
	if 16*grown > exact {
		t.Errorf("histograms grew by %d bytes over the second N transactions; their samples take %d", grown, exact)
	}
}
