package site

import (
	"context"
	"sync"
	"testing"
	"time"

	"o2pc/internal/compensate"
	"o2pc/internal/history"
	"o2pc/internal/proto"
	"o2pc/internal/storage"
	"o2pc/internal/txn"
)

func bg() context.Context { return context.Background() }

func newTestSite(t *testing.T, cfg Config) *Site {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "s0"
	}
	return NewSite(cfg)
}

func exec(t *testing.T, s *Site, req proto.ExecRequest) proto.ExecReply {
	t.Helper()
	raw, err := s.Handle(bg(), "c0", req)
	if err != nil {
		t.Fatalf("exec: %v", err)
	}
	return raw.(proto.ExecReply)
}

func vote(t *testing.T, s *Site, txnID string) proto.VoteReply {
	t.Helper()
	raw, err := s.Handle(bg(), "c0", proto.VoteRequest{TxnID: txnID})
	if err != nil {
		t.Fatalf("vote: %v", err)
	}
	return raw.(proto.VoteReply)
}

func decide(t *testing.T, s *Site, txnID string, commit bool, unmarks ...string) proto.Ack {
	t.Helper()
	raw, err := s.Handle(bg(), "c0", proto.Decision{TxnID: txnID, Commit: commit, Unmarks: unmarks})
	if err != nil {
		t.Fatalf("decide: %v", err)
	}
	return raw.(proto.Ack)
}

func o2pcReq(txnID string, ops ...proto.Operation) proto.ExecRequest {
	return proto.ExecRequest{
		TxnID: txnID, Ops: ops,
		Comp: proto.CompSemantic, Protocol: proto.O2PC, Marking: proto.MarkP1,
	}
}

func TestExecReturnsReads(t *testing.T) {
	s := newTestSite(t, Config{})
	s.SeedInt64("n", 5)
	s.Seed("str", storage.Value("hello"))
	reply := exec(t, s, o2pcReq("T1", proto.Read("str"), proto.Read("missing")))
	if !reply.OK {
		t.Fatalf("reply = %+v", reply)
	}
	if string(reply.Reads["str"]) != "hello" {
		t.Fatalf("reads = %v", reply.Reads)
	}
	if _, ok := reply.Reads["missing"]; ok {
		t.Fatalf("missing key present in reads")
	}
	decide(t, s, "T1", true)
}

func TestO2PCReleasesLocksAtYesVote(t *testing.T) {
	s := newTestSite(t, Config{})
	s.SeedInt64("n", 0)
	reply := exec(t, s, o2pcReq("T1", proto.Add("n", 1)))
	if !reply.OK {
		t.Fatalf("exec failed: %+v", reply)
	}
	if !s.Manager().Locks().HoldsAny("T1") {
		t.Fatalf("locks not held between exec and vote")
	}
	v := vote(t, s, "T1")
	if !v.Commit {
		t.Fatalf("vote = %+v", v)
	}
	if s.Manager().Locks().HoldsAny("T1") {
		t.Fatalf("O2PC site held locks after YES vote")
	}
	// The update is locally committed (exposed) before any decision.
	if got := s.ReadInt64("n"); got != 1 {
		t.Fatalf("n = %d, want 1 (exposed)", got)
	}
	decide(t, s, "T1", true)
}

func TestTwoPCHoldsLocksUntilDecision(t *testing.T) {
	s := newTestSite(t, Config{})
	s.SeedInt64("n", 0)
	req := o2pcReq("T1", proto.Add("n", 1))
	req.Protocol = proto.TwoPC
	req.Marking = proto.MarkNone
	exec(t, s, req)
	v := vote(t, s, "T1")
	if !v.Commit {
		t.Fatalf("vote = %+v", v)
	}
	if !s.Manager().Locks().HoldsAny("T1") {
		t.Fatalf("2PC site released locks at vote — that's the bug O2PC fixes, not 2PC behavior")
	}
	decide(t, s, "T1", true)
	if s.Manager().Locks().HoldsAny("T1") {
		t.Fatalf("locks held after commit decision")
	}
	if got := s.ReadInt64("n"); got != 1 {
		t.Fatalf("n = %d", got)
	}
}

func TestRealActionHoldsLocksUnderO2PC(t *testing.T) {
	s := newTestSite(t, Config{})
	s.SeedInt64("n", 0)
	req := o2pcReq("T1", proto.Add("n", 1))
	req.Comp = proto.CompNone // real action
	exec(t, s, req)
	vote(t, s, "T1")
	if !s.Manager().Locks().HoldsAny("T1") {
		t.Fatalf("real-action site must retain locks until the decision")
	}
	decide(t, s, "T1", false)
	if s.Manager().Locks().HoldsAny("T1") {
		t.Fatalf("locks held after abort decision")
	}
	if got := s.ReadInt64("n"); got != 0 {
		t.Fatalf("n = %d, want 0 (rolled back)", got)
	}
}

func TestAbortDecisionTriggersCompensation(t *testing.T) {
	rec := history.NewRecorder()
	s := newTestSite(t, Config{Recorder: rec})
	s.SeedInt64("n", 10)
	exec(t, s, o2pcReq("T1", proto.Add("n", 5)))
	vote(t, s, "T1")
	if got := s.ReadInt64("n"); got != 15 {
		t.Fatalf("n = %d before abort", got)
	}
	ack := decide(t, s, "T1", false)
	if !ack.Marked {
		t.Fatalf("abort ack must report the undone mark")
	}
	if got := s.ReadInt64("n"); got != 10 {
		t.Fatalf("n = %d, want 10 after compensation", got)
	}
	if s.Stats().Compensations.Value() != 1 {
		t.Fatalf("compensations = %d", s.Stats().Compensations.Value())
	}
	if !s.Marks().Contains("T1") {
		t.Fatalf("site not marked undone wrt T1 (rule R2)")
	}
	h := rec.Snapshot()
	if h.KindOf("CTT1") != history.KindCompensating {
		t.Fatalf("CT not in history")
	}
}

func TestVoteAbortInjection(t *testing.T) {
	s := newTestSite(t, Config{})
	s.SeedInt64("n", 10)
	s.SetVoteAbortInjector(func(id string) bool { return id == "T1" })
	exec(t, s, o2pcReq("T1", proto.Add("n", 5)))
	v := vote(t, s, "T1")
	if v.Commit {
		t.Fatalf("injected abort ignored")
	}
	if got := s.ReadInt64("n"); got != 10 {
		t.Fatalf("n = %d after NO vote", got)
	}
	if !s.Marks().Contains("T1") {
		t.Fatalf("NO-voting site must be marked undone")
	}
	// The later abort decision is acknowledged idempotently with the mark.
	ack := decide(t, s, "T1", false)
	if !ack.Marked {
		t.Fatalf("ack.Marked = false for marked site")
	}
}

func TestExecConstraintFailureRollsBackWithoutMark(t *testing.T) {
	s := newTestSite(t, Config{})
	s.SeedInt64("n", 3)
	reply := exec(t, s, o2pcReq("T1", proto.AddMin("n", -5, 0)))
	if reply.OK || reply.Err == "" {
		t.Fatalf("constraint violation not reported: %+v", reply)
	}
	if got := s.ReadInt64("n"); got != 3 {
		t.Fatalf("n = %d", got)
	}
	// Exec-phase failure precedes all votes: no undone mark.
	if s.Marks().Contains("T1") {
		t.Fatalf("exec-phase abort must not mark the site")
	}
	if s.Manager().Locks().HoldsAny("T1") {
		t.Fatalf("locks leaked")
	}
}

func TestVoteUnknownTxnIsNo(t *testing.T) {
	s := newTestSite(t, Config{})
	v := vote(t, s, "ghost")
	if v.Commit {
		t.Fatalf("vote YES for unknown transaction")
	}
}

func TestMarkingRejectRetryable(t *testing.T) {
	s := newTestSite(t, Config{})
	s.SeedInt64("n", 0)
	// Transaction carries a mark this site lacks.
	req := o2pcReq("T2", proto.Add("n", 1))
	req.TransMarks = []string{"T1"}
	req.Visited = true
	reply := exec(t, s, req)
	if !reply.Rejected || reply.Fatal {
		t.Fatalf("reply = %+v, want retryable rejection", reply)
	}
	if s.Stats().RejectsRetry.Value() != 1 {
		t.Fatalf("retry counter = %d", s.Stats().RejectsRetry.Value())
	}
	if s.Manager().Locks().HoldsAny("T2") {
		t.Fatalf("rejected subtransaction leaked locks")
	}
}

func TestMarkingRejectFatal(t *testing.T) {
	s := newTestSite(t, Config{})
	s.SeedInt64("n", 0)
	s.Marks().MarkUndone("T1")
	req := o2pcReq("T2", proto.Add("n", 1))
	req.Visited = true // visited elsewhere without collecting T1
	reply := exec(t, s, req)
	if !reply.Rejected || !reply.Fatal {
		t.Fatalf("reply = %+v, want fatal rejection", reply)
	}
}

func TestMarkingFirstVisitAdoptsAndWitnesses(t *testing.T) {
	s := newTestSite(t, Config{})
	s.SeedInt64("n", 0)
	s.Marks().MarkUndone("T1")
	req := o2pcReq("T2", proto.Add("n", 1))
	reply := exec(t, s, req)
	if !reply.OK {
		t.Fatalf("reply = %+v", reply)
	}
	if len(reply.Marks) != 1 || reply.Marks[0] != "T1" {
		t.Fatalf("merged marks = %v", reply.Marks)
	}
	// The witness piggybacks on this very reply (or the next).
	found := false
	for _, w := range reply.Witnesses {
		if w.Forward == "T1" && w.Site == "s0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("witness not piggybacked: %+v", reply.Witnesses)
	}
	vote(t, s, "T2")
	decide(t, s, "T2", true)
}

func TestDecisionUnmarksRideAlong(t *testing.T) {
	s := newTestSite(t, Config{})
	s.SeedInt64("n", 0)
	s.Marks().MarkUndone("T1")
	exec(t, s, proto.ExecRequest{
		TxnID: "T3", Ops: []proto.Operation{proto.Add("n", 1)},
		Comp: proto.CompSemantic, Protocol: proto.O2PC, Marking: proto.MarkP1,
	})
	vote(t, s, "T3")
	decide(t, s, "T3", true, "T1") // unmark notice piggybacked
	if s.Marks().Contains("T1") {
		t.Fatalf("unmark notice ignored")
	}
}

func TestMarkAfterExecDoesNotFailVote(t *testing.T) {
	// A mark appearing AFTER the subtransaction completed (its validation
	// already ran as its last action) is harmless: the compensating
	// transaction it stands for ran after this transaction's conflicting
	// operations, which is the safe Tj -> CTi direction. The vote must
	// still be YES.
	s := newTestSite(t, Config{})
	s.SeedInt64("n", 0)
	reply := exec(t, s, o2pcReq("T2", proto.Add("n", 1)))
	if !reply.OK {
		t.Fatalf("exec: %+v", reply)
	}
	s.Marks().MarkUndone("T9")
	v := vote(t, s, "T2")
	if !v.Commit {
		t.Fatalf("vote failed for a post-execution mark: %+v", v)
	}
	decide(t, s, "T2", true)
}

func TestDuplicateDecisionIdempotent(t *testing.T) {
	s := newTestSite(t, Config{})
	s.SeedInt64("n", 0)
	exec(t, s, o2pcReq("T1", proto.Add("n", 1)))
	vote(t, s, "T1")
	decide(t, s, "T1", true)
	decide(t, s, "T1", true) // retransmit
	if got := s.ReadInt64("n"); got != 1 {
		t.Fatalf("n = %d after duplicate decision", got)
	}
}

// TestDuplicateAbortAckWaitsForCompensation: a second abort DECISION that
// arrives while the first is still compensating (the coordinator's and the
// resolver's, say) must ack with the undone mark the compensation sets. An
// ack reporting Marked=false would leave the UDUM1 board believing the site
// unmarked, so it would never send the unmark notice.
func TestDuplicateAbortAckWaitsForCompensation(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	reg := compensate.NewRegistry()
	reg.Register("slow", func(ctx context.Context, tx *txn.Txn, f compensate.Forward) error {
		close(entered)
		<-release
		return compensate.SemanticPlan(ctx, tx, f)
	})
	s := newTestSite(t, Config{Compensators: reg})
	s.SeedInt64("n", 10)
	req := o2pcReq("T1", proto.Add("n", 5))
	req.Comp, req.Compensator = proto.CompCustom, "slow"
	exec(t, s, req)
	if v := vote(t, s, "T1"); !v.Commit {
		t.Fatalf("vote = %+v", v)
	}

	abort := func(acks chan<- proto.Ack) {
		raw, err := s.Handle(bg(), "c0", proto.Decision{TxnID: "T1"})
		if err != nil {
			t.Errorf("decision: %v", err)
		}
		ack, _ := raw.(proto.Ack)
		acks <- ack
	}
	first, dup := make(chan proto.Ack, 1), make(chan proto.Ack, 1)
	go abort(first)
	<-entered
	go abort(dup)
	select {
	case ack := <-dup:
		close(release)
		if !ack.Marked {
			t.Fatalf("duplicate ack during compensation: Marked=false")
		}
	case <-time.After(20 * time.Millisecond):
		close(release)
		if ack := <-dup; !ack.Marked {
			t.Fatalf("duplicate ack after compensation: Marked=false")
		}
	}
	if ack := <-first; !ack.Marked {
		t.Fatalf("first ack: Marked=false")
	}
	if got := s.ReadInt64("n"); got != 10 {
		t.Fatalf("n = %d, want 10 after one compensation", got)
	}
}

func TestLocalTxnsUnaffectedByMarks(t *testing.T) {
	s := newTestSite(t, Config{})
	s.SeedInt64("n", 0)
	s.Marks().MarkUndone("T1")
	s.Marks().MarkUndone("T2")
	// Local transactions never consult markings (autonomy).
	if err := s.RunLocal(bg(), func(tx *txn.Txn) error {
		return tx.WriteInt64(bg(), "n", 7)
	}); err != nil {
		t.Fatalf("local txn: %v", err)
	}
	if got := s.ReadInt64("n"); got != 7 {
		t.Fatalf("n = %d", got)
	}
}

func TestCrashedSiteRejectsMessages(t *testing.T) {
	s := newTestSite(t, Config{})
	s.SetCrashed(true)
	if _, err := s.Handle(bg(), "c0", proto.VoteRequest{TxnID: "T1"}); err == nil {
		t.Fatalf("crashed site served a message")
	}
	s.SetCrashed(false)
	if _, err := s.Handle(bg(), "c0", proto.VoteRequest{TxnID: "T1"}); err != nil {
		t.Fatalf("recovered site rejected a message: %v", err)
	}
}

func TestSiteRecoverRebuildsStoreAndInDoubt(t *testing.T) {
	s := newTestSite(t, Config{ResolvePeriod: time.Hour}) // no live resolver
	s.SeedInt64("n", 0)
	req := o2pcReq("T1", proto.Add("n", 1))
	req.Protocol = proto.TwoPC
	req.Marking = proto.MarkNone
	exec(t, s, req)
	vote(t, s, "T1") // prepared, in doubt
	// Committed unrelated data via a local transaction.
	_ = s.RunLocal(bg(), func(tx *txn.Txn) error { return tx.WriteInt64(bg(), "m", 9) })

	// Crash: volatile state gone; recover from WAL.
	s.SetCrashed(true)
	res, err := s.Recover(bg())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(res.InDoubt) != 1 || res.InDoubt[0] != "T1" {
		t.Fatalf("in-doubt = %v", res.InDoubt)
	}
	if got := s.ReadInt64("m"); got != 9 {
		t.Fatalf("m = %d after recovery", got)
	}
	// The in-doubt transaction holds its write lock again: a conflicting
	// local transaction blocks until the decision arrives.
	blocked := make(chan error, 1)
	go func() {
		blocked <- s.RunLocal(bg(), func(tx *txn.Txn) error {
			_, err := tx.ReadInt64(bg(), "n")
			return err
		})
	}()
	select {
	case err := <-blocked:
		t.Fatalf("conflicting local txn not blocked by in-doubt txn: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	decide(t, s, "T1", true)
	if err := <-blocked; err != nil {
		t.Fatalf("local txn after decision: %v", err)
	}
	if got := s.ReadInt64("n"); got != 1 {
		t.Fatalf("n = %d after recovered commit", got)
	}
}

func TestSiteRecoverAbortInDoubt(t *testing.T) {
	s := newTestSite(t, Config{ResolvePeriod: time.Hour})
	s.SeedInt64("n", 0)
	req := o2pcReq("T1", proto.Add("n", 1))
	req.Protocol = proto.TwoPC
	req.Marking = proto.MarkNone
	exec(t, s, req)
	vote(t, s, "T1")
	s.SetCrashed(true)
	if _, err := s.Recover(bg()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	decide(t, s, "T1", false)
	if got := s.ReadInt64("n"); got != 0 {
		t.Fatalf("n = %d after recovered abort", got)
	}
}

// stubCaller answers Resolve requests with a fixed decision.
type stubCaller struct {
	mu     sync.Mutex
	known  bool
	commit bool
	calls  int
}

func (c *stubCaller) Call(ctx context.Context, from, to string, req any) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if _, ok := req.(proto.ResolveRequest); ok {
		return proto.ResolveReply{Known: c.known, Commit: c.commit}, nil
	}
	return nil, nil
}

func TestBlockedParticipantResolves(t *testing.T) {
	s := newTestSite(t, Config{ResolvePeriod: 2 * time.Millisecond})
	caller := &stubCaller{known: true, commit: true}
	s.SetCaller(caller)
	s.SeedInt64("n", 0)
	req := o2pcReq("T1", proto.Add("n", 1))
	req.Protocol = proto.TwoPC
	req.Marking = proto.MarkNone
	exec(t, s, req)
	vote(t, s, "T1")
	// No decision arrives; the resolver must fetch one.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if !s.Manager().Locks().HoldsAny("T1") {
			if got := s.ReadInt64("n"); got != 1 {
				t.Fatalf("n = %d after resolved commit", got)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("blocked participant never resolved (resolver calls: %d)", caller.calls)
}

// TestCheckEarlyStrategyReleasesMarkLock pins Section 6.2's compromise: the
// R1 check gives the marking-set lock back before the subtransaction runs.
func TestCheckEarlyStrategyReleasesMarkLock(t *testing.T) {
	s := newTestSite(t, Config{})
	s.SeedInt64("n", 0)
	reply := exec(t, s, o2pcReq("T1", proto.Add("n", 1)))
	if !reply.OK {
		t.Fatalf("exec: %+v", reply)
	}
	held := s.Manager().Locks().Held("T1")
	if _, ok := held[MarkKey]; ok {
		t.Fatalf("exec kept the marking-set lock: %v", held)
	}
	vote(t, s, "T1")
	decide(t, s, "T1", true)
}

func TestReadOnlyVoteOptimization(t *testing.T) {
	s := newTestSite(t, Config{})
	s.SeedInt64("n", 7)
	req := o2pcReq("Tro", proto.Read("n"))
	req.Protocol = proto.TwoPC // even 2PC readers drop out
	req.Marking = proto.MarkNone
	exec(t, s, req)
	v := vote(t, s, "Tro")
	if !v.Commit || !v.ReadOnly {
		t.Fatalf("vote = %+v, want read-only YES", v)
	}
	if s.Manager().Locks().HoldsAny("Tro") {
		t.Fatalf("read-only participant kept locks after its vote")
	}
	// The participant has left the protocol: a (stray) decision is just
	// acknowledged, and a stale re-exec is fenced.
	decide(t, s, "Tro", true)
	reply := exec(t, s, req)
	if reply.OK {
		t.Fatalf("re-exec after read-only departure accepted")
	}
}

// TestReadOnlyExitCommits: a subtransaction that leaves at its read-only
// vote has committed there — no decision will arrive to count it — so the
// exit counts the commit, leaves nothing pending, and fences a late
// ExecRequest. Under P2 it writes no locally-committed mark, which only a
// decision would clear.
func TestReadOnlyExitCommits(t *testing.T) {
	for _, m := range []proto.MarkProtocol{proto.MarkP1, proto.MarkP2} {
		s := newTestSite(t, Config{})
		s.SeedInt64("n", 7)
		req := o2pcReq("Tro", proto.Read("n"))
		req.Marking = m
		if reply := exec(t, s, req); !reply.OK {
			t.Fatalf("%v: exec = %+v", m, reply)
		}
		if got := s.Stats().PendingGlobal.Value(); got != 1 {
			t.Fatalf("%v: pending = %d after exec, want 1", m, got)
		}
		if v := vote(t, s, "Tro"); !v.Commit || !v.ReadOnly {
			t.Fatalf("%v: vote = %+v, want read-only YES", m, v)
		}
		if got := s.Stats().Commits.Value(); got != 1 {
			t.Errorf("%v: commits = %d, want 1", m, got)
		}
		if got := s.Stats().PendingGlobal.Value(); got != 0 {
			t.Errorf("%v: pending = %d, want 0", m, got)
		}
		if lc := s.LCMarks().Snapshot(); len(lc) != 0 {
			t.Errorf("%v: read-only exit left locally-committed marks %v", m, lc)
		}
		if reply := exec(t, s, req); reply.OK {
			t.Errorf("%v: late ExecRequest after the read-only exit accepted", m)
		}
		// A stray decision is acknowledged without a second commit.
		decide(t, s, "Tro", true)
		if got := s.Stats().Commits.Value(); got != 1 {
			t.Errorf("%v: commits = %d after a stray decision, want 1", m, got)
		}
	}
}

func TestReadOnlyVoteNotUsedForWriters(t *testing.T) {
	s := newTestSite(t, Config{})
	s.SeedInt64("n", 7)
	exec(t, s, o2pcReq("Tw", proto.Add("n", 1)))
	v := vote(t, s, "Tw")
	if v.ReadOnly {
		t.Fatalf("writing participant voted read-only")
	}
	decide(t, s, "Tw", true)
}
