package site

import (
	"reflect"
	"testing"
	"time"

	"o2pc/internal/history"
	"o2pc/internal/proto"
)

// TestStaleExecFenced models an ExecRequest delayed across a coordinator
// crash: the abort decision for the transaction reaches the site first;
// the late request must be refused instead of executing on behalf of a
// dead transaction.
func TestStaleExecFenced(t *testing.T) {
	s := newTestSite(t, Config{})
	s.SeedInt64("n", 0)
	// The (presumed-abort) decision arrives before the site ever saw the
	// transaction.
	decide(t, s, "Tstale", false)
	reply := exec(t, s, o2pcReq("Tstale", proto.Add("n", 1)))
	if reply.OK {
		t.Fatalf("stale subtransaction executed: %+v", reply)
	}
	if got := s.ReadInt64("n"); got != 0 {
		t.Fatalf("n = %d after fenced exec", got)
	}
	if s.Manager().Locks().HoldsAny("Tstale") {
		t.Fatalf("fenced exec leaked locks")
	}
}

// TestUnexposedRollbackVoidsHistory: a subtransaction aborted before any
// vote leaves no trace in the recorded history (committed projection).
func TestUnexposedRollbackVoidsHistory(t *testing.T) {
	rec := history.NewRecorder()
	s := newTestSite(t, Config{Recorder: rec})
	s.SeedInt64("n", 3)
	reply := exec(t, s, o2pcReq("Tf", proto.AddMin("n", -5, 0)))
	if reply.OK {
		t.Fatalf("constraint violation not reported")
	}
	h := rec.Snapshot()
	for _, op := range h.Ops {
		if op.Txn == "Tf" {
			t.Fatalf("unexposed subtransaction left history ops: %+v", op)
		}
		if op.Txn == "CTTf" {
			t.Fatalf("unexposed roll-back modeled as compensation: %+v", op)
		}
	}
}

// TestPostVoteRollbackKeepsCompensationModel: the NO-vote roll-back stays
// in the history as CTik (Section 3.2) because sibling subtransactions may
// already be exposed.
func TestPostVoteRollbackKeepsCompensationModel(t *testing.T) {
	rec := history.NewRecorder()
	s := newTestSite(t, Config{Recorder: rec})
	s.SeedInt64("n", 3)
	s.SetVoteAbortInjector(func(id string) bool { return id == "Tv" })
	exec(t, s, o2pcReq("Tv", proto.Add("n", 1)))
	v := vote(t, s, "Tv")
	if v.Commit {
		t.Fatalf("injected NO vote ignored")
	}
	h := rec.Snapshot()
	sawCT := false
	for _, op := range h.Ops {
		if op.Txn == "CTTv" {
			sawCT = true
		}
	}
	if !sawCT {
		t.Fatalf("post-vote roll-back not modeled as CTik")
	}
}

// scan sends a recovery scan from coordinator from at incarnation inc.
func scan(t *testing.T, s *Site, from string, inc uint64) []proto.ScanTxn {
	t.Helper()
	return scanReply(t, s, from, inc).Txns
}

func scanReply(t *testing.T, s *Site, from string, inc uint64) proto.ScanReply {
	t.Helper()
	raw, err := s.Handle(bg(), from, proto.ScanRequest{Incarnation: inc})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return raw.(proto.ScanReply)
}

// TestExecInLockWaitRefusedAfterScan: an exec of coordinator incarnation 1
// waits for a lock while the coordinator restarts, and the recovery of
// incarnation 2 scans the site. The scan cannot report the exec, which has
// not registered, so no recovery will decide it: once its lock is granted
// it must be refused, not registered as an entry no decision reaches.
func TestExecInLockWaitRefusedAfterScan(t *testing.T) {
	s := newTestSite(t, Config{ResolvePeriod: time.Hour, LockTimeout: time.Minute})
	s.SeedInt64("n", 0)
	holder := o2pcReq("T1", proto.Add("n", 1))
	holder.Incarnation = 1
	if reply := exec(t, s, holder); !reply.OK {
		t.Fatalf("T1: %+v", reply)
	}
	waiter := o2pcReq("T2", proto.Add("n", 1))
	waiter.Incarnation = 1
	done := make(chan proto.ExecReply, 1)
	go func() {
		raw, err := s.Handle(bg(), "c0", waiter)
		if err != nil {
			t.Errorf("T2: %v", err)
		}
		reply, _ := raw.(proto.ExecReply)
		done <- reply
	}()
	for deadline := time.Now().Add(5 * time.Second); len(s.Manager().Locks().WaitsFor()["T2"]) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("T2 never waited for T1's lock")
		}
		time.Sleep(time.Millisecond)
	}
	got := scan(t, s, "c0", 2)
	want := []proto.ScanTxn{{TxnID: "T1", Marking: proto.MarkP1, Incarnation: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan = %+v, want %+v", got, want)
	}
	// The recovery presumes abort for what it was told of, and T1's lock
	// passes to T2.
	decide(t, s, "T1", false)
	if reply := <-done; reply.OK {
		t.Fatalf("T2 of the scanned-past incarnation registered: %+v", reply)
	}
	if s.Manager().Locks().HoldsAny("T2") {
		t.Fatal("refused T2 holds locks")
	}
	if n := s.Stats().PendingGlobal.Value(); n != 0 {
		t.Fatalf("%d subtransactions pending after the refusal", n)
	}
	// An exec of the scanning incarnation runs.
	fresh := o2pcReq("T3", proto.Add("n", 1))
	fresh.Incarnation = 2
	if reply := exec(t, s, fresh); !reply.OK {
		t.Fatalf("T3 of the current incarnation refused: %+v", reply)
	}
}

// TestScanReportsOwnUndecided: a scan reports only its sender's undecided
// subtransactions, and a prepared one keeps its incarnation and marking
// across a restart of the site.
func TestScanReportsOwnUndecided(t *testing.T) {
	s := newTestSite(t, Config{ResolvePeriod: time.Hour})
	s.SeedInt64("n", 0)
	prepared := o2pcReq("T1", proto.Add("n", 1))
	prepared.Protocol, prepared.Vote, prepared.Last, prepared.Incarnation = proto.TwoPC, true, true, 7
	if reply := exec(t, s, prepared); !reply.Vote.Commit {
		t.Fatalf("T1: %+v", reply)
	}
	other := o2pcReq("T2", proto.Add("m", 1))
	if raw, err := s.Handle(bg(), "c1", other); err != nil || !raw.(proto.ExecReply).OK {
		t.Fatalf("T2 from c1: %v %+v", err, raw)
	}
	want := []proto.ScanTxn{{TxnID: "T1", Marking: proto.MarkP1, Incarnation: 7}}
	if got := scan(t, s, "c0", 8); !reflect.DeepEqual(got, want) {
		t.Fatalf("scan = %+v, want %+v", got, want)
	}
	s.SetCrashed(true)
	if _, err := s.Recover(bg()); err != nil {
		t.Fatal(err)
	}
	if got := scan(t, s, "c0", 8); !reflect.DeepEqual(got, want) {
		t.Fatalf("scan after restart = %+v, want %+v", got, want)
	}
}

// TestScanFloorCoversLaterIncarnations: an earlier life of coordinator c0
// whose clock read later shipped an exec of incarnation 9, which waits for
// a lock another coordinator's transaction holds. A recovery of
// incarnation 2 is told the site has seen 9, although the exec has not
// registered and the scan cannot report it; a scan past 9 fences the exec.
// A restarted site reports its prepared entries' incarnations as seen.
func TestScanFloorCoversLaterIncarnations(t *testing.T) {
	s := newTestSite(t, Config{ResolvePeriod: time.Hour, LockTimeout: time.Minute})
	s.SeedInt64("n", 0)
	if raw, err := s.Handle(bg(), "c1", o2pcReq("T1", proto.Add("n", 1))); err != nil || !raw.(proto.ExecReply).OK {
		t.Fatalf("T1 from c1: %v %+v", err, raw)
	}
	waiter := o2pcReq("T2", proto.Add("n", 1))
	waiter.Incarnation = 9
	done := make(chan proto.ExecReply, 1)
	go func() {
		raw, err := s.Handle(bg(), "c0", waiter)
		if err != nil {
			t.Errorf("T2: %v", err)
		}
		reply, _ := raw.(proto.ExecReply)
		done <- reply
	}()
	for deadline := time.Now().Add(5 * time.Second); len(s.Manager().Locks().WaitsFor()["T2"]) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("T2 never waited for T1's lock")
		}
		time.Sleep(time.Millisecond)
	}
	if got := scanReply(t, s, "c0", 2); len(got.Txns) != 0 || got.Latest != 9 {
		t.Fatalf("scan at 2 = %+v, want no txns and latest 9", got)
	}
	if got := scanReply(t, s, "c0", 10); got.Latest != 10 {
		t.Fatalf("scan at 10 = %+v, want latest 10", got)
	}
	decide(t, s, "T1", false)
	if reply := <-done; reply.OK {
		t.Fatalf("T2 of the scanned-past incarnation registered: %+v", reply)
	}

	prepared := o2pcReq("T3", proto.Add("n", 1))
	prepared.Protocol, prepared.Vote, prepared.Last, prepared.Incarnation = proto.TwoPC, true, true, 12
	if reply := exec(t, s, prepared); !reply.Vote.Commit {
		t.Fatalf("T3: %+v", reply)
	}
	s.SetCrashed(true)
	if _, err := s.Recover(bg()); err != nil {
		t.Fatal(err)
	}
	if got := scanReply(t, s, "c0", 11); len(got.Txns) != 1 || got.Latest != 12 {
		t.Fatalf("scan after restart = %+v, want T3 and latest 12", got)
	}
}

// TestFenceForgetsAfterTwoCheckpoints: the in-memory fence follows the
// log's rule. A decision stays fenced through the checkpoint after it and
// leaves the fence at the one after that; a decision taken between the two
// checkpoints still refuses a late exec.
func TestFenceForgetsAfterTwoCheckpoints(t *testing.T) {
	s := newTestSite(t, Config{})
	s.SeedInt64("n", 0)
	decide(t, s, "Told", false)
	if err := s.Checkpoint(bg()); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if reply := exec(t, s, o2pcReq("Told", proto.Add("n", 1))); reply.OK {
		t.Fatalf("late exec ran one checkpoint after its decision: %+v", reply)
	}
	decide(t, s, "Tnew", false)
	if err := s.Checkpoint(bg()); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if reply := exec(t, s, o2pcReq("Tnew", proto.Add("n", 1))); reply.OK {
		t.Fatalf("late exec of a decision one checkpoint old ran: %+v", reply)
	}
	if got := s.Stats().FenceTxns.Value(); got != 1 {
		t.Fatalf("fence holds %d transactions two checkpoints on, want 1 (Tnew)", got)
	}
	s.mu.Lock()
	fenced := s.fencedLocked("Told")
	s.mu.Unlock()
	if fenced {
		t.Fatal("Told is still fenced two checkpoints after its decision")
	}
}
