package core

import (
	"context"
	"testing"
	"time"

	"o2pc/internal/coord"
	"o2pc/internal/lock"
	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/sim"
	"o2pc/internal/storage"
	"o2pc/internal/trace"
)

// quiesced waits for every site to finish its transactions.
func quiesced(t *testing.T, cl *Cluster) {
	t.Helper()
	if err := cl.Quiesce(ctxWithTimeout(t)); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
}

// requireBalances checks each site's "acct".
func requireBalances(t *testing.T, cl *Cluster, want ...int64) {
	t.Helper()
	for i, w := range want {
		if got := cl.Site(i).ReadInt64("acct"); got != w {
			t.Errorf("s%d acct = %d, want %d", i, got, w)
		}
	}
}

// TestExecVoteNoAtFirstSite: under 2PC the vote rides the exec, so a NO at
// the first site ends the run before the second subtransaction ships.
func TestExecVoteNoAtFirstSite(t *testing.T) {
	cl := testCluster(t, Config{Sites: 2})
	cl.SeedInt64("acct", 100)
	spec := transferSpec(proto.TwoPC, proto.MarkNone, 30)
	spec.ID = "Tno"
	cl.DoomAtSite("Tno", "s0")
	res := cl.Run(context.Background(), spec)
	if res.Outcome != coord.AbortedVote {
		t.Fatalf("outcome = %v (%v), want aborted-vote", res.Outcome, res.Err)
	}
	if n := cl.Site(1).Stats().Execs.Value(); n != 0 {
		t.Errorf("s1 received %d ExecRequests after s0 voted NO", n)
	}
	quiesced(t, cl)
	requireBalances(t, cl, 100, 100)
	if n := cl.MessageCounts()["proto.VoteRequest"]; n != 0 {
		t.Errorf("%d stand-alone VoteRequests under one-shot 2PC", n)
	}
	if audit := cl.Audit(); !audit.Correct() {
		t.Errorf("Section 5 criterion violated: %+v", audit)
	}
}

// TestExecVoteNoLeavesNoMarkUnderP1: a 2PC subtransaction rolled back at
// its NO vote rolls back unexposed. Were it marked undone like an O2PC
// roll-back, only the first site would carry the mark (the second never
// executed), every later fixed-order transfer would adopt it there and be
// rejected at the second site, and each of those aborts would mark the
// first site again: no transfer would ever commit.
func TestExecVoteNoLeavesNoMarkUnderP1(t *testing.T) {
	cl := testCluster(t, Config{Sites: 2})
	cl.SeedInt64("acct", 1000)
	ctx := context.Background()
	doomed := transferSpec(proto.TwoPC, proto.MarkP1, 1)
	doomed.ID = "Tdoom"
	cl.DoomAtSite("Tdoom", "s0")
	if res := cl.Run(ctx, doomed); res.Outcome != coord.AbortedVote {
		t.Fatalf("Tdoom outcome = %v (%v), want aborted-vote", res.Outcome, res.Err)
	}
	const transfers = 30
	committed := 0
	for i := 0; i < transfers; i++ {
		if res := cl.Run(ctx, transferSpec(proto.TwoPC, proto.MarkP1, 1)); res.Committed() {
			committed++
		}
	}
	if committed != transfers {
		t.Errorf("%d of %d transfers after the NO committed", committed, transfers)
	}
	quiesced(t, cl)
	for i, s := range cl.Sites() {
		if marks := s.Marks().Snapshot(); len(marks) != 0 {
			t.Errorf("s%d keeps undone marks %v", i, marks)
		}
	}
	requireBalances(t, cl, 1000-transfers, 1000+transfers)
	if audit := cl.Audit(); !audit.Correct() {
		t.Errorf("Section 5 criterion violated: %+v", audit)
	}
}

// TestExecVotePaxos: Paxos Commit participants vote inside the exec reply
// too; a NO at the second site aborts the first, prepared one, which rolls
// back without compensation or mark.
func TestExecVotePaxos(t *testing.T) {
	cl := testCluster(t, Config{Sites: 2, Replicas: 3})
	defer cl.Close()
	cl.SeedInt64("acct", 100)
	ctx := context.Background()
	if res := cl.Run(ctx, transferSpec(proto.Paxos, proto.MarkP1, 10)); !res.Committed() {
		t.Fatalf("commit: %v (%v)", res.Outcome, res.Err)
	}
	doomed := transferSpec(proto.Paxos, proto.MarkP1, 10)
	doomed.ID = "Tdoom"
	cl.DoomAtSite("Tdoom", "s1")
	if res := cl.Run(ctx, doomed); res.Outcome != coord.AbortedVote {
		t.Fatalf("abort: outcome = %v (%v), want aborted-vote", res.Outcome, res.Err)
	}
	quiesced(t, cl)
	requireBalances(t, cl, 90, 110)
	counts := cl.MessageCounts()
	if counts["proto.VoteRequest"] != 0 || counts["proto.ExecRequest"] != 4 || counts["proto.RepAccept"] == 0 {
		t.Errorf("census = %v, want 4 ExecRequests, no VoteRequest, decisions through RepAccept", counts)
	}
	for i, s := range cl.Sites() {
		if n := s.Stats().Compensations.Value(); n != 0 {
			t.Errorf("s%d ran %d compensations under Paxos", i, n)
		}
		if marks := s.Marks().Snapshot(); len(marks) != 0 {
			t.Errorf("s%d keeps undone marks %v", i, marks)
		}
	}
	if audit := cl.Audit(); !audit.Correct() {
		t.Errorf("Section 5 criterion violated: %+v", audit)
	}
}

// TestSessionKeepsVoteRoundUnder2PC: multi-shot sessions do not know which
// round is the last, so even under 2PC their commit point sends the
// stand-alone VOTE-REQ.
func TestSessionKeepsVoteRoundUnder2PC(t *testing.T) {
	cl := testCluster(t, Config{Sites: 2})
	cl.SeedInt64("acct", 100)
	ctx := context.Background()
	sess := openSession(t, cl, 0, coord.SessionSpec{ID: "S2pc", Protocol: proto.TwoPC})
	if _, err := sess.Round(ctx, transferSpec(proto.TwoPC, proto.MarkNone, 5).Subtxns); err != nil {
		t.Fatalf("round: %v", err)
	}
	if res := sess.Commit(ctx); !res.Committed() {
		t.Fatalf("session: %v (%v)", res.Outcome, res.Err)
	}
	if n := cl.MessageCounts()["proto.VoteRequest"]; n != 2 {
		t.Errorf("%d VoteRequests for a two-site 2PC session, want 2", n)
	}
	quiesced(t, cl)
	requireBalances(t, cl, 95, 105)
}

// TestTraceExecVoteTimeline: a vote that rides a 2PC exec keeps the vote
// phase observable — votereq.send and vote.recv at the coordinator,
// votereq.recv at the site after its exec, and the exec+vote round trip in
// the per-site prepare->vote and collect-window histograms.
func TestTraceExecVoteTimeline(t *testing.T) {
	clock := sim.NewVirtualClock()
	cl := NewCluster(Config{
		Sites:   2,
		Clock:   clock,
		Tracer:  trace.New(clock, trace.DefaultNodeCapacity),
		Network: rpc.Config{MinLatency: 100 * time.Microsecond, MaxLatency: time.Millisecond, Seed: 1},
	})
	cl.SeedInt64("acct", 100)
	ctx, cancel := clock.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	spec := transferSpec(proto.TwoPC, proto.MarkNone, 5)
	spec.ID = "Tok"
	if res := cl.Run(ctx, spec); !res.Committed() {
		t.Fatalf("Tok: %v (%v)", res.Outcome, res.Err)
	}
	events := cl.Tracer().Events()
	requireSubsequence(t, "Tok at c0", typesAt(events, "Tok", "c0"), []trace.EventType{
		trace.EvTxnBegin,
		trace.EvExecSend, trace.EvVoteReqSend, trace.EvVoteRecv,
		trace.EvExecSend, trace.EvVoteReqSend, trace.EvVoteRecv,
		trace.EvDecisionReached, trace.EvDecisionSend, trace.EvDecisionAck, trace.EvTxnOutcome,
	})
	for _, site := range []string{"s0", "s1"} {
		requireSubsequence(t, "Tok at "+site, typesAt(events, "Tok", site), []trace.EventType{
			trace.EvExecRecv, trace.EvExecDone, trace.EvVoteReqRecv,
			trace.EvPrepared, trace.EvVoteYes, trace.EvDecisionRecv,
		})
		if n := cl.Coordinator(0).Stats().VoteRTT(site).Count(); n != 1 {
			t.Errorf("prepare->vote histogram for %s has %d samples, want 1", site, n)
		}
	}
	if n := cl.Coordinator(0).Stats().PhaseCollect.Count(); n != 1 {
		t.Errorf("collect-window histogram has %d samples, want 1", n)
	}
}

// TestExecVoteEarlyReleaseOnlyAtLockPoint: the read-only exit keeps a
// transaction two-phase only after its last lock. A vote riding an earlier
// exec therefore keeps its locks until the decision — else the transaction
// would unlock at s0 and then lock at s1, and another transaction could slip
// between the two — while a vote riding the last exec may exit as a
// stand-alone VOTE-REQ does. A participant that wrote keeps every lock, its
// read locks included, through its vote until the decision.
func TestExecVoteEarlyReleaseOnlyAtLockPoint(t *testing.T) {
	cl := testCluster(t, Config{Sites: 2})
	cl.SeedInt64("acct", 100)
	ctx := context.Background()
	spec := coord.TxnSpec{ID: "Tread", Protocol: proto.TwoPC, Subtxns: []coord.SubtxnSpec{
		{Site: "s0", Ops: []proto.Operation{proto.Read("acct")}, Comp: proto.CompSemantic},
		{Site: "s1", Ops: []proto.Operation{proto.Add("acct", 1)}, Comp: proto.CompSemantic},
	}}
	heldAtS0 := false
	cl.Site(1).SetVoteAbortInjector(func(id string) bool {
		heldAtS0 = cl.Site(0).Manager().Locks().HoldsAny(id)
		return false
	})
	if res := cl.Run(ctx, spec); !res.Committed() {
		t.Fatalf("Tread: %v (%v)", res.Outcome, res.Err)
	}
	if !heldAtS0 {
		t.Errorf("Tread: s0 released its read lock before s1 executed")
	}
	// Reversed, the read-only subtransaction is the last one: it exits at
	// its vote and receives no decision.
	spec.ID, spec.Subtxns[0], spec.Subtxns[1] = "Tlast", spec.Subtxns[1], spec.Subtxns[0]
	before := cl.MessageCounts()["proto.Decision"]
	if res := cl.Run(ctx, spec); !res.Committed() {
		t.Fatalf("Tlast: %v (%v)", res.Outcome, res.Err)
	}
	if n := cl.MessageCounts()["proto.Decision"] - before; n != 1 {
		t.Errorf("Tlast: %d decisions, want 1 (the read-only last site left at its vote)", n)
	}
	// The last participant reads one key and writes another: at the lock
	// point it votes, and its S lock stays held until the decision.
	spec = coord.TxnSpec{ID: "Tmixed", Protocol: proto.TwoPC, Subtxns: []coord.SubtxnSpec{
		{Site: "s0", Ops: []proto.Operation{proto.Add("acct", -1)}, Comp: proto.CompSemantic},
		{Site: "s1", Ops: []proto.Operation{proto.Read("seen"), proto.Add("acct", 1)}, Comp: proto.CompSemantic},
	}}
	cl.SeedInt64("seen", 1)
	var heldAtVotes map[storage.Key]lock.Mode
	cl.Coordinator(0).SetCrashInjector(func(id string, phase coord.CrashPhase) bool {
		if id == "Tmixed" && phase == coord.CrashAfterVotes {
			heldAtVotes = cl.Site(1).Manager().Locks().Held(id)
		}
		return false
	})
	if res := cl.Run(ctx, spec); !res.Committed() {
		t.Fatalf("Tmixed: %v (%v)", res.Outcome, res.Err)
	}
	if heldAtVotes["seen"] != lock.Shared || heldAtVotes["acct"] != lock.Exclusive {
		t.Errorf("Tmixed: s1 held %v after every vote, want S on seen and X on acct", heldAtVotes)
	}
	quiesced(t, cl)
	if cl.Site(1).Manager().Locks().HoldsAny("Tmixed") {
		t.Errorf("Tmixed: s1 kept locks after the decision")
	}
}
