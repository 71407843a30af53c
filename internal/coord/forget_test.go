package coord

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"o2pc/internal/proto"
	"o2pc/internal/trace"
	"o2pc/internal/wal"
)

// decisionsSent returns the transactions a traced coordinator sent a
// decision for, sorted.
func decisionsSent(tr *trace.Tracer) []string {
	seen := make(map[string]bool)
	for _, ev := range tr.Events() {
		if ev.Type == trace.EvDecisionSend {
			seen[ev.Txn] = true
		}
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// TestRestartOverCheckpointedLogResendsOnlyPending: after 10 000 commits
// the coordinator's file log has checkpointed and holds no more than the
// threshold plus one checkpoint; one more transaction, whose decision never
// reached a participant, is the only one a restarted coordinator re-sends.
func TestRestartOverCheckpointedLogResendsOnlyPending(t *testing.T) {
	const commits = 10_000
	path := filepath.Join(t.TempDir(), "c0.wal")
	log, err := wal.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	r := newRigResolve(t, 2, time.Hour)
	r.coord = New(Config{Name: "c0", Recorder: r.rec, Log: log}, r.net)
	r.net.Register("c0", r.coord.Handle)
	r.seed("acct", 1_000_000)
	for i := 0; i < commits; i++ {
		if res := r.coord.Run(bg(), transfer(r, proto.TwoPC, proto.MarkNone, fmt.Sprintf("T%d", i), 1)); !res.Committed() {
			t.Fatalf("T%d: %v %v", i, res.Outcome, res.Err)
		}
	}
	if res := runUndelivered(t, r, transfer(r, proto.TwoPC, proto.MarkNone, "Tpending", 1), siteName(1)); !res.Committed() {
		t.Fatalf("Tpending: %v %v", res.Outcome, res.Err)
	}
	r.coord.Close()
	// Wait out a checkpoint still running in the background.
	l := r.coord.dlog.(*LocalLog)
	waitFor(t, 5*time.Second, func() bool { return !l.ckpt.Running() }, "background checkpoint")
	if n := r.coord.Stats().Checkpoints.Value(); n == 0 {
		t.Fatalf("no checkpoint over %d commits", commits)
	}
	if got := r.coord.Stats().Decided.Value(); got != 1 {
		t.Fatalf("decided_txns = %d, want 1 (the pending one)", got)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := wal.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	records, err := reopened.Records()
	if err != nil {
		t.Fatal(err)
	}
	// Three records per transaction since the last checkpoint, which itself
	// carries only the pending transaction.
	if bound := int(wal.CheckpointThreshold(0)) + 3 + 2; len(records) > bound {
		t.Fatalf("log holds %d records after %d commits, bound %d", len(records), commits, bound)
	}

	r.net.SetOneWayPartition("c0", siteName(1), false)
	tr := trace.New(nil, 0)
	restarted := New(Config{Name: "c0", Log: reopened, Tracer: tr}, r.net)
	r.net.Register("c0", restarted.Handle)
	if err := restarted.Recover(bg()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got, want := decisionsSent(tr), []string{"Tpending"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted coordinator re-sent decisions for %v, want %v", got, want)
	}
	if ids := restarted.Unforgotten(); len(ids) != 0 {
		t.Fatalf("restarted coordinator still keeps %v", ids)
	}
	if got := r.sites[1].ReadInt64("acct"); got != 1_000_000+commits+1 {
		t.Fatalf("site 1 acct = %d after re-delivery", got)
	}
}

// TestCrashBetweenDecisionAndEndRedelivers: a coordinator that crashed
// after the last ack but before its END landed finds the decision without
// an END and delivers it again; the participants ack the duplicate and the
// END lands this time.
func TestCrashBetweenDecisionAndEndRedelivers(t *testing.T) {
	log := wal.NewMemoryLog()
	r := newRig(t, 2)
	r.coord = New(Config{Name: "c0", Recorder: r.rec, Log: log}, r.net)
	r.net.Register("c0", r.coord.Handle)
	r.seed("acct", 100)
	if res := r.coord.Run(bg(), transfer(r, proto.O2PC, proto.MarkP1, "Te", 30)); !res.Committed() {
		t.Fatalf("outcome = %v err=%v", res.Outcome, res.Err)
	}
	records, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(records); n != 3 || records[n-1].Type != wal.RecEnd {
		t.Fatalf("log = %v, want BEGIN DECISION END", records)
	}
	crashed := wal.NewMemoryLog()
	for _, rec := range records[:len(records)-1] {
		if _, err := crashed.Append(rec); err != nil {
			t.Fatal(err)
		}
	}

	tr := trace.New(nil, 0)
	restarted := New(Config{Name: "c0", Log: crashed, Tracer: tr}, r.net)
	r.net.Register("c0", restarted.Handle)
	if err := restarted.Recover(bg()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	acks := 0
	for _, ev := range tr.Events() {
		if ev.Type == trace.EvDecisionAck && ev.Txn == "Te" {
			acks++
		}
	}
	if acks != 2 {
		t.Fatalf("%d acks of the re-delivered decision, want 2", acks)
	}
	after, err := crashed.Records()
	if err != nil {
		t.Fatal(err)
	}
	if last := after[len(after)-1]; last.Type != wal.RecEnd || last.TxnID != "Te" {
		t.Fatalf("last record after re-delivery = %v %s, want END Te", last.Type, last.TxnID)
	}
	for i, want := range []int64{70, 130} {
		if got := r.sites[i].ReadInt64("acct"); got != want {
			t.Fatalf("site %d acct = %d, want %d (the duplicate decision applied once)", i, got, want)
		}
	}
}

// callerFunc adapts a function to rpc.Caller.
type callerFunc func(ctx context.Context, from, to string, req any) (any, error)

func (f callerFunc) Call(ctx context.Context, from, to string, req any) (any, error) {
	return f(ctx, from, to, req)
}

// TestRunOvertakenByRecoveryAborts: a recovery that runs while a
// transaction's votes are in flight presumes abort for it, delivers the
// abort and forgets the transaction before the run reaches its commit
// point. The run finds nothing to adopt and must not log a commit over
// the forgotten abort: it reports the abort recovery presumed. The
// recovery runs once both sites have voted, before the last vote reaches
// the run, so its abort cannot overtake a vote at a site.
func TestRunOvertakenByRecoveryAborts(t *testing.T) {
	log := wal.NewMemoryLog()
	r := newRigResolve(t, 2, time.Hour)
	r.seed("acct", 100)
	var votes atomic.Int32
	var recovered bool
	caller := callerFunc(func(ctx context.Context, from, to string, req any) (any, error) {
		reply, err := r.net.Call(ctx, from, to, req)
		if v, ok := req.(proto.VoteRequest); ok && v.TxnID == "To" && votes.Add(1) == 2 {
			recovered = true
			if err := r.coord.Recover(ctx); err != nil {
				t.Errorf("recover: %v", err)
			}
		}
		return reply, err
	})
	r.coord = New(Config{Name: "c0", Recorder: r.rec, Log: log}, caller)
	r.net.Register("c0", r.coord.Handle)

	res := r.coord.Run(bg(), transfer(r, proto.O2PC, proto.MarkNone, "To", 30))
	if !recovered {
		t.Fatal("the recovery never ran")
	}
	if res.Outcome != AbortedCoordinator {
		t.Fatalf("outcome = %v, want %v", res.Outcome, AbortedCoordinator)
	}
	waitQuiesce(t, r)
	for i, s := range r.sites {
		if got := s.ReadInt64("acct"); got != 100 {
			t.Fatalf("site %d acct = %d, want 100 (compensated)", i, got)
		}
	}
	records, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if rec.Type == wal.RecDecision && rec.Aux != wal.DecisionAux(false) {
			t.Fatalf("log holds a %s decision for %s after the presumed abort", rec.Aux, rec.TxnID)
		}
	}
	if ids := r.coord.Unforgotten(); len(ids) != 0 {
		t.Fatalf("coordinator still keeps %v", ids)
	}
}

// recoveringLog is a LocalLog whose Decide for one transaction first runs a
// whole recovery of the coordinator, then decides: the recovery lands
// between the run's incarnation check and its decision.
type recoveringLog struct {
	*LocalLog
	id      string
	recover func() error
	ran     bool
}

func (l *recoveringLog) Decide(ctx context.Context, id string, commit bool) (bool, error) {
	if id == l.id && !l.ran {
		l.ran = true
		if err := l.recover(); err != nil {
			return false, err
		}
	}
	return l.LocalLog.Decide(ctx, id, commit)
}

// TestRecoveryInsideDecideKeepsPresumedAbort: a recovery that runs after a
// run passed its incarnation check, and before it logs its commit,
// presumes abort and delivers it to every participant, but must not forget
// it: the run then adopts the abort instead of logging a commit after an
// END.
func TestRecoveryInsideDecideKeepsPresumedAbort(t *testing.T) {
	log := wal.NewMemoryLog()
	r := newRigResolve(t, 2, time.Hour)
	r.seed("acct", 100)
	dlog := &recoveringLog{LocalLog: NewLocalLog("c0", log), id: "Tw"}
	r.coord = New(Config{Name: "c0", Recorder: r.rec, DecisionLog: dlog}, r.net)
	dlog.recover = func() error { return r.coord.Recover(bg()) }
	r.net.Register("c0", r.coord.Handle)

	res := r.coord.Run(bg(), transfer(r, proto.O2PC, proto.MarkNone, "Tw", 30))
	if !dlog.ran {
		t.Fatal("the recovery never ran")
	}
	if res.Committed() {
		t.Fatalf("outcome = %v, want the presumed abort", res.Outcome)
	}
	waitQuiesce(t, r)
	for i, s := range r.sites {
		if got := s.ReadInt64("acct"); got != 100 {
			t.Fatalf("site %d acct = %d, want 100 (compensated)", i, got)
		}
	}
	records, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, rec := range records {
		if rec.Type == wal.RecDecision && rec.Aux != wal.DecisionAux(false) {
			t.Fatalf("log holds a %s decision for %s after the presumed abort: %v", rec.Aux, rec.TxnID, records)
		}
		types = append(types, rec.Type.String())
	}
	if n := len(records); n == 0 || records[n-1].Type != wal.RecEnd {
		t.Fatalf("log = %v, want it to end with END", types)
	}
	if ids := r.coord.Unforgotten(); len(ids) != 0 {
		t.Fatalf("coordinator still keeps %v", ids)
	}
}

// TestForgetWaitsForDurableRecord: a transaction acked by a site whose
// record of the decision was not yet durable (Ack.LSN) is kept until an
// ack from the same site incarnation reports that record durable. An ack
// from a restarted incarnation does not count, since it may reuse the
// LSN of a lost record; the re-send after decisionConfirm then carries
// the record's LSN (Decision.Sync) and its durable ack lets the
// coordinator forget.
func TestForgetWaitsForDurableRecord(t *testing.T) {
	r := newRigResolve(t, 1, time.Hour)
	r.seed("acct", 100)
	var (
		mu      sync.Mutex
		boot    uint64 = 1
		resent  []proto.Decision
		release = make(chan struct{}) // holds re-sends until closed
	)
	caller := callerFunc(func(ctx context.Context, from, to string, req any) (any, error) {
		d, ok := req.(proto.Decision)
		if ok && d.Sync != 0 {
			<-release
		}
		reply, err := r.net.Call(ctx, from, to, req)
		if !ok || err != nil {
			return reply, err
		}
		mu.Lock()
		defer mu.Unlock()
		ack := reply.(proto.Ack)
		ack.Boot = boot
		switch {
		case d.Sync != 0:
			resent = append(resent, d)
			ack.Synced = d.Sync // the site forced the record
		case d.TxnID == "T1" || d.TxnID == "T3":
			ack.LSN, ack.Synced = 10, 5
		default:
			ack.Synced = 20
		}
		return ack, nil
	})
	r.coord = New(Config{Name: "c0", Recorder: r.rec}, caller)
	r.net.Register("c0", r.coord.Handle)
	run := func(id string) {
		t.Helper()
		spec := TxnSpec{ID: id, Protocol: proto.TwoPC, Subtxns: []SubtxnSpec{
			{Site: siteName(0), Ops: []proto.Operation{proto.Add("acct", 1)}},
		}}
		if res := r.coord.Run(bg(), spec); !res.Committed() {
			t.Fatalf("%s: %v %v", id, res.Outcome, res.Err)
		}
	}
	kept := func(id string) bool {
		r.coord.mu.Lock()
		defer r.coord.mu.Unlock()
		_, ok := r.coord.decided[id]
		return ok
	}

	// The same incarnation reports the record durable: T1 is forgotten
	// while its re-send is held.
	run("T1")
	if !kept("T1") {
		t.Fatal("T1 forgotten although its record was not durable")
	}
	run("T2")
	if kept("T1") {
		t.Fatal("T1 kept after an ack of the same incarnation reported its record durable")
	}

	// A restarted incarnation's durable position does not confirm T3; the
	// re-send does.
	run("T3")
	mu.Lock()
	boot = 2
	mu.Unlock()
	run("T4")
	if !kept("T3") {
		t.Fatal("T3 forgotten on the durable position of another incarnation")
	}
	close(release)
	waitFor(t, 2*time.Second, func() bool { return !kept("T3") }, "T3 forgotten after its re-send")
	mu.Lock()
	defer mu.Unlock()
	var t3 []uint64
	for _, d := range resent {
		if d.TxnID == "T3" {
			t3 = append(t3, d.Sync)
		}
	}
	if len(t3) != 1 || t3[0] != 10 {
		t.Fatalf("T3 re-sent with Sync %v, want once with 10", t3)
	}
}

// TestCloseStopsConfirmResends: an ack whose record was not yet durable
// schedules a re-send of the decision, which must not outlive the
// coordinator. Its run's context may live on, as a benchmark's does
// across the clusters it builds and tears down, and a re-send to a torn
// down site would retry for as long as that context lives.
func TestCloseStopsConfirmResends(t *testing.T) {
	r := newRigResolve(t, 1, time.Hour)
	r.seed("acct", 100)
	var resends atomic.Int32
	caller := callerFunc(func(ctx context.Context, from, to string, req any) (any, error) {
		reply, err := r.net.Call(ctx, from, to, req)
		d, ok := req.(proto.Decision)
		if !ok || err != nil {
			return reply, err
		}
		if d.Sync != 0 {
			resends.Add(1)
		}
		ack := reply.(proto.Ack)
		ack.LSN, ack.Synced = 10, 5
		return ack, nil
	})
	r.coord = New(Config{Name: "c0", Recorder: r.rec}, caller)
	r.net.Register("c0", r.coord.Handle)
	spec := TxnSpec{ID: "T1", Protocol: proto.TwoPC, Subtxns: []SubtxnSpec{
		{Site: siteName(0), Ops: []proto.Operation{proto.Add("acct", 1)}},
	}}
	if res := r.coord.Run(bg(), spec); !res.Committed() {
		t.Fatalf("T1: %v %v", res.Outcome, res.Err)
	}
	r.coord.Close()
	time.Sleep(3 * decisionConfirm)
	if n := resends.Load(); n != 0 {
		t.Fatalf("%d re-sends after Close", n)
	}
}
