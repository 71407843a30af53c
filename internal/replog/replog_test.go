package replog

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"o2pc/internal/coord"
	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/sim"
	"o2pc/internal/wal"
)

// harness wires a leader and N replicas over a simulated network under a
// virtual clock. The test goroutine created the clock, so it is tracked
// and may call leader methods (which sleep and send) directly.
type harness struct {
	clock    *sim.VirtualClock
	net      *rpc.Network
	replicas []*Replica
	names    []string
	logs     []wal.Log
}

func newHarness(t *testing.T, n int) *harness {
	t.Helper()
	h := &harness{clock: sim.NewVirtualClock()}
	h.net = rpc.NewNetwork(rpc.Config{
		Clock:      h.clock,
		MinLatency: time.Millisecond,
		MaxLatency: 5 * time.Millisecond,
		Seed:       42,
	})
	for i := 0; i < n; i++ {
		name := "r" + string(rune('0'+i))
		log := wal.NewMemoryLog()
		r, err := NewReplica(ReplicaConfig{Name: name, Log: log})
		if err != nil {
			t.Fatalf("NewReplica(%s): %v", name, err)
		}
		h.net.Register(name, r.Handle)
		h.replicas = append(h.replicas, r)
		h.names = append(h.names, name)
		h.logs = append(h.logs, log)
	}
	return h
}

func (h *harness) leader(group string) *Leader {
	return NewLeader(Config{
		Group:    group,
		Replicas: h.names,
		Caller:   h.net,
		Clock:    h.clock,
	})
}

func TestDecideReachesMajorityAndSticks(t *testing.T) {
	h := newHarness(t, 3)
	l := h.leader("c0")
	ctx := context.Background()

	if err := l.Begin(ctx, "T1", []string{"s0", "s1"}, proto.MarkP1); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	got, err := l.Decide(ctx, "T1", true)
	if err != nil || !got {
		t.Fatalf("Decide = %v, %v; want true, nil", got, err)
	}
	// A second decide — even proposing the opposite value — adopts the
	// chosen one.
	got, err = l.Decide(ctx, "T1", false)
	if err != nil || !got {
		t.Fatalf("re-Decide = %v, %v; want true (chosen), nil", got, err)
	}
	if v := l.Stats().MajorityAcks.Value(); v != 1 {
		t.Fatalf("MajorityAcks = %d, want 1 (the accept; Begin runs no ballot)", v)
	}
	if v := l.Stats().Leader.Value(); v != 1 {
		t.Fatalf("Leader gauge = %d, want 1", v)
	}
	// Every replica that acked holds a durable accept record.
	accepts := 0
	for i, log := range h.logs {
		recs, err := log.Records()
		if err != nil {
			t.Fatalf("records %d: %v", i, err)
		}
		for _, rec := range recs {
			if rec.Type == wal.RecAccept && rec.TxnID == "T1" {
				accepts++
			}
		}
	}
	if accepts < 2 {
		t.Fatalf("durable accepts = %d, want a majority (>= 2)", accepts)
	}
}

// TestBeginSendsNothing: Begin keeps the participants at the leader, and
// the decision's accept carries them to the replicas.
func TestBeginSendsNothing(t *testing.T) {
	h := newHarness(t, 3)
	l := h.leader("c0")
	ctx := context.Background()
	if err := l.Begin(ctx, "T1", []string{"s0", "s1"}, proto.MarkP1); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if names := h.net.Counts().CounterNames(); len(names) != 0 {
		t.Fatalf("Begin sent messages: %v", names)
	}
	if _, err := l.Decide(ctx, "T1", true); err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if n := h.net.Counts().Counter("proto.RepAccept").Value(); n != 3 {
		t.Fatalf("%d accepts sent, want 3", n)
	}
	for i, log := range h.logs {
		recs, err := log.Records()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.Type != wal.RecAccept {
				continue
			}
			_, acc, _, err := splitAcceptAux(rec.Aux)
			if err != nil || len(acc.sites) != 2 || acc.marking != proto.MarkP1 {
				t.Fatalf("replica %d accept aux %q = %+v, %v; want sites s0,s1 and P1", i, rec.Aux, acc, err)
			}
		}
	}
	l.mu.Lock()
	kept := len(l.begun)
	l.mu.Unlock()
	if kept != 0 {
		t.Fatalf("leader keeps %d begun transactions after the decision", kept)
	}
}

func TestMinorityDownStillDecides(t *testing.T) {
	h := newHarness(t, 3)
	h.net.SetDown("r2", true)
	l := h.leader("c0")
	ctx := context.Background()
	if err := l.Begin(ctx, "T1", []string{"s0"}, proto.MarkNone); err != nil {
		t.Fatalf("Begin with one replica down: %v", err)
	}
	if got, err := l.Decide(ctx, "T1", true); err != nil || !got {
		t.Fatalf("Decide with one replica down = %v, %v; want true, nil", got, err)
	}
}

func TestMajorityDownBlocksThenRecovers(t *testing.T) {
	h := newHarness(t, 3)
	l := h.leader("c0")
	ctx := context.Background()
	if err := l.Sync(ctx); err != nil { // elect while all are up
		t.Fatalf("Sync: %v", err)
	}
	h.net.SetDown("r1", true)
	h.net.SetDown("r2", true)
	if _, err := l.Decide(ctx, "T1", true); err == nil {
		t.Fatal("Decide with a majority down succeeded")
	}
	// The decision was not durable anywhere near a majority; once the
	// replicas return, a retry decides cleanly.
	h.net.SetDown("r1", false)
	h.net.SetDown("r2", false)
	if got, err := l.Decide(ctx, "T1", true); err != nil || !got {
		t.Fatalf("Decide after recovery = %v, %v; want true, nil", got, err)
	}
}

// TestTakeoverFinishesMajorityAckedDecision is the blocking-window pin at
// the decision-log level: leader 1 gets a commit majority-acked and then
// dies before delivering the DECISION. Leader 2's takeover read must find
// and finish the commit — no participant waits on the dead leader.
func TestTakeoverFinishesMajorityAckedDecision(t *testing.T) {
	h := newHarness(t, 3)
	ctx := context.Background()

	l1 := h.leader("c0")
	if err := l1.Begin(ctx, "T1", []string{"s0", "s1"}, proto.MarkP1); err != nil {
		t.Fatalf("Begin T1: %v", err)
	}
	if got, err := l1.Decide(ctx, "T1", true); err != nil || !got {
		t.Fatalf("Decide T1 = %v, %v", got, err)
	}
	// T2 is begun but never decided: no replica hears of it, and the
	// coordinator learns it from the sites.
	if err := l1.Begin(ctx, "T2", []string{"s1"}, proto.MarkNone); err != nil {
		t.Fatalf("Begin T2: %v", err)
	}
	// l1 crashes here (simply never used again).

	l2 := h.leader("c0")
	begun, decisions, err := l2.Snapshot(ctx)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if v, ok := decisions["T1"]; !ok || !v {
		t.Fatalf("decisions[T1] = %v, %v; want true (majority-acked commit finished)", v, ok)
	}
	want := []coord.BeginRecord{{TxnID: "T1", Sites: []string{"s0", "s1"}, Marking: proto.MarkP1}}
	if !reflect.DeepEqual(begun, want) {
		t.Fatalf("begun = %+v, want %+v: T1's delivery set from its accept, and nothing of T2", begun, want)
	}
	if got, err := l2.PresumeAbort(ctx, "T2"); err != nil || got {
		t.Fatalf("PresumeAbort T2 = %v, %v; want false, nil", got, err)
	}
	if l2.Stats().Takeovers.Value() != 1 {
		t.Fatalf("Takeovers = %d, want 1", l2.Stats().Takeovers.Value())
	}

	// The deposed leader can no longer decide anything.
	if _, err := l1.Decide(ctx, "T3", true); !errors.Is(err, ErrDeposed) {
		t.Fatalf("old leader Decide err = %v, want ErrDeposed", err)
	}
	if err := l1.Sync(ctx); !errors.Is(err, ErrDeposed) {
		t.Fatalf("old leader Sync err = %v, want ErrDeposed", err)
	}
}

// TestTakeoverPreservesPossiblyChosenValue plants an accept on a single
// replica — a value that may or may not have been chosen from the old
// leader's point of view — and checks the new leader re-proposes rather
// than presumes abort over it.
func TestTakeoverPreservesPossiblyChosenValue(t *testing.T) {
	h := newHarness(t, 3)
	ctx := context.Background()

	l1 := h.leader("c0")
	if err := l1.Sync(ctx); err != nil { // elect term 1
		t.Fatalf("Sync: %v", err)
	}
	// Hand-deliver an accept to exactly one replica, as if l1 died mid
	// fan-out after one ack.
	if _, err := h.net.Call(ctx, "c0", "r0", proto.RepAccept{
		Group: "c0", Term: 1, TxnID: "T1", Commit: true, Sites: []string{"s0"},
	}); err != nil {
		t.Fatalf("planting accept: %v", err)
	}

	l2 := h.leader("c0")
	begun, decisions, err := l2.Snapshot(ctx)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if v, ok := decisions["T1"]; !ok || !v {
		t.Fatalf("decisions[T1] = %v, %v; want the planted commit preserved", v, ok)
	}
	if len(begun) != 1 || !reflect.DeepEqual(begun[0].Sites, []string{"s0"}) {
		t.Fatalf("begun = %+v, want T1 delivered to s0", begun)
	}
}

func TestReplicaCrashLosesNothingDurable(t *testing.T) {
	h := newHarness(t, 3)
	ctx := context.Background()
	l1 := h.leader("c0")
	if err := l1.Begin(ctx, "T1", []string{"s0"}, proto.MarkP2); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if got, err := l1.Decide(ctx, "T1", false); err != nil || got {
		t.Fatalf("Decide = %v, %v; want false, nil", got, err)
	}

	// Crash and recover every replica: promises and accepts must survive
	// the rebuild, so a takeover still finds the abort.
	for i, r := range h.replicas {
		h.net.SetDown(h.names[i], true)
		r.Crash()
	}
	for i, r := range h.replicas {
		if err := r.Recover(); err != nil {
			t.Fatalf("Recover %s: %v", h.names[i], err)
		}
		h.net.SetDown(h.names[i], false)
	}

	l2 := h.leader("c0")
	begun, decisions, err := l2.Snapshot(ctx)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if v, ok := decisions["T1"]; !ok || v {
		t.Fatalf("decisions[T1] = %v, %v; want abort preserved across replica crashes", v, ok)
	}
	if len(begun) != 1 || begun[0].TxnID != "T1" || begun[0].Marking != proto.MarkP2 {
		t.Fatalf("begun = %+v, want [T1 P2]", begun)
	}
}

func TestCrashedReplicaRefusesService(t *testing.T) {
	r, err := NewReplica(ReplicaConfig{Name: "r0"})
	if err != nil {
		t.Fatal(err)
	}
	r.Crash()
	if _, err := r.Handle(context.Background(), "c0",
		proto.RepNewTerm{Group: "c0", Term: 1}); err == nil {
		t.Fatal("crashed replica granted a term")
	}
	if err := r.Recover(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if _, err := r.Handle(context.Background(), "c0",
		proto.RepNewTerm{Group: "c0", Term: 1}); err != nil {
		t.Fatalf("recovered replica rejected service: %v", err)
	}
}

// TestConcurrentProposersOneValuePerTerm races a Decide(commit) against a
// PresumeAbort for the same transaction: exactly one value may win, and
// both callers must report that same value.
func TestConcurrentProposersOneValuePerTerm(t *testing.T) {
	h := newHarness(t, 3)
	ctx := context.Background()
	l := h.leader("c0")
	if err := l.Begin(ctx, "T1", []string{"s0"}, proto.MarkNone); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	var commitGot, abortGot bool
	g := sim.NewGroup(h.clock)
	g.Go(func() {
		v, err := l.Decide(ctx, "T1", true)
		if err != nil {
			t.Errorf("Decide: %v", err)
		}
		commitGot = v
	})
	g.Go(func() {
		v, err := l.PresumeAbort(ctx, "T1")
		if err != nil {
			t.Errorf("PresumeAbort: %v", err)
		}
		abortGot = v
	})
	g.Wait()
	if commitGot != abortGot {
		t.Fatalf("racing proposers diverged: Decide saw %v, PresumeAbort saw %v", commitGot, abortGot)
	}
	// Whichever won, every durable accept for T1 carries that one value.
	want := "abort"
	if commitGot {
		want = "commit"
	}
	for i, log := range h.logs {
		recs, err := log.Records()
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.Type != wal.RecAccept || rec.TxnID != "T1" {
				continue
			}
			group, acc, _, err := splitAcceptAux(rec.Aux)
			if err != nil || group != "c0" {
				t.Fatalf("replica %d accept aux %q: %v", i, rec.Aux, err)
			}
			if got := map[bool]string{true: "commit", false: "abort"}[acc.commit]; got != want {
				t.Fatalf("replica %d accepted %s, want %s", i, got, want)
			}
		}
	}
}

func TestAuxRoundTrips(t *testing.T) {
	group, term, err := splitTermAux("c0|17")
	if err != nil || group != "c0" || term != 17 {
		t.Fatalf("splitTermAux = %q, %d, %v", group, term, err)
	}
	if _, _, err := splitTermAux("no-separator"); err == nil {
		t.Fatal("malformed TERM aux accepted")
	}
	group, acc, legacy, err := splitAcceptAux("c|1|commit|3|s0,s1|P1")
	want := &acceptorTxn{sites: []string{"s0", "s1"}, marking: proto.MarkP1, accTerm: 3, commit: true}
	if err != nil || legacy || group != "c|1" || !reflect.DeepEqual(acc, want) {
		t.Fatalf("splitAcceptAux = %q, %+v, %v, %v", group, acc, legacy, err)
	}
	if _, acc, _, err := splitAcceptAux("c0|abort|2||none"); err != nil || acc.sites != nil || acc.commit {
		t.Fatalf("empty site list = %+v, %v; want no sites, abort", acc, err)
	}
	group, acc, legacy, err = splitAcceptAux("c0|commit|3")
	if err != nil || !legacy || group != "c0" || !reflect.DeepEqual(acc, &acceptorTxn{accTerm: 3, commit: true}) {
		t.Fatalf("legacy splitAcceptAux = %q, %+v, %v, %v", group, acc, legacy, err)
	}
	for _, aux := range []string{"c0|commit", "c0|3", "no-separator", "c0|commit|x|s0|P1"} {
		if _, _, _, err := splitAcceptAux(aux); err == nil {
			t.Fatalf("malformed ACCEPT aux %q accepted", aux)
		}
	}
	if _, _, err := splitLegacyBeginAux("c0"); err == nil {
		t.Fatal("malformed BEGIN aux accepted")
	}
}

// TestReplicaRecoversLegacyLog: a replica log written while replicas
// logged a BEGIN per transaction, and accepts without the delivery set,
// recovers: each accepted instance takes its sites and marking from its
// BEGIN, and a BEGIN without an accept makes no instance.
func TestReplicaRecoversLegacyLog(t *testing.T) {
	log := wal.NewMemoryLog()
	for _, rec := range []wal.Record{
		{Type: wal.RecTerm, Aux: "c0|1"},
		{Type: wal.RecBegin, TxnID: "T1", Aux: "c0|s0,s1|P1"},
		{Type: wal.RecBegin, TxnID: "T2", Aux: "c0|s0|none"},
		{Type: wal.RecAccept, TxnID: "T1", Aux: "c0|commit|1"},
		{Type: wal.RecAccept, TxnID: "T3", Aux: "c0|abort|1|s1|none"},
	} {
		if _, err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReplica(ReplicaConfig{Name: "r0", Log: log})
	if err != nil {
		t.Fatalf("recovering a legacy log: %v", err)
	}
	want := map[string]*acceptorTxn{
		"T1": {sites: []string{"s0", "s1"}, marking: proto.MarkP1, accTerm: 1, commit: true},
		"T3": {sites: []string{"s1"}, accTerm: 1},
	}
	if got := r.txns["c0"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered instances = %+v, want %+v", got, want)
	}
	if r.terms["c0"] != 1 {
		t.Fatalf("recovered term = %d, want 1", r.terms["c0"])
	}
}
