package replog

import (
	"context"
	"errors"
	"testing"
	"time"

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
	if v := l.Stats().MajorityAcks.Value(); v < 2 {
		t.Fatalf("MajorityAcks = %d, want >= 2 (begin + accept)", v)
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
	// T2 is begun but never decided: takeover must surface it for the
	// coordinator's presumed abort.
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
	var sawT2 bool
	for _, b := range begun {
		if b.TxnID == "T2" {
			sawT2 = true
			if len(b.Sites) != 1 || b.Sites[0] != "s1" {
				t.Fatalf("T2 sites = %v, want [s1]", b.Sites)
			}
		}
	}
	if !sawT2 {
		t.Fatalf("begun = %v, missing undecided T2", begun)
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
	if err := l1.Begin(ctx, "T1", []string{"s0"}, proto.MarkNone); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	// Hand-deliver an accept to exactly one replica, as if l1 died mid
	// fan-out after one ack.
	if _, err := h.net.Call(ctx, "c0", "r0", proto.RepAccept{
		Group: "c0", Term: 1, TxnID: "T1", Commit: true,
	}); err != nil {
		t.Fatalf("planting accept: %v", err)
	}

	l2 := h.leader("c0")
	_, decisions, err := l2.Snapshot(ctx)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if v, ok := decisions["T1"]; !ok || !v {
		t.Fatalf("decisions[T1] = %v, %v; want the planted commit preserved", v, ok)
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
	if len(begun) != 1 || begun[0].TxnID != "T1" || begun[0].Marking != "P2" {
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
			group, commit, _, err := splitAcceptAux(rec.Aux)
			if err != nil || group != "c0" {
				t.Fatalf("replica %d accept aux %q: %v", i, rec.Aux, err)
			}
			if got := map[bool]string{true: "commit", false: "abort"}[commit]; got != want {
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
	group, sites, marking, err := splitRepBeginAux("c1|s0,s1|P1")
	if err != nil || group != "c1" || len(sites) != 2 || marking != proto.MarkP1 {
		t.Fatalf("splitRepBeginAux = %q, %v, %v, %v", group, sites, marking, err)
	}
	if _, sites, _, err := splitRepBeginAux("c1||none"); err != nil || sites != nil {
		t.Fatalf("empty site list = %v, %v; want nil, nil", sites, err)
	}
	group, commit, term, err := splitAcceptAux("c0|commit|3")
	if err != nil || group != "c0" || !commit || term != 3 {
		t.Fatalf("splitAcceptAux = %q, %v, %d, %v", group, commit, term, err)
	}
	if _, _, _, err := splitAcceptAux("c0|3"); err == nil {
		t.Fatal("malformed ACCEPT aux accepted")
	}
}
