package replog

import (
	"context"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"o2pc/internal/proto"
	"o2pc/internal/sim"
	"o2pc/internal/wal"
)

// decideAll begins and decides each transaction at l, failing the test on
// any error.
func decideAll(t *testing.T, l *Leader, commit bool, ids ...string) {
	t.Helper()
	ctx := context.Background()
	for _, id := range ids {
		if err := l.Begin(ctx, id, []string{"s0", "s1"}, proto.MarkP1); err != nil {
			t.Fatalf("Begin %s: %v", id, err)
		}
		if got, err := l.Decide(ctx, id, commit); err != nil || got != commit {
			t.Fatalf("Decide %s = %v, %v; want %v", id, got, err, commit)
		}
	}
}

// endAll ends each transaction at l.
func endAll(t *testing.T, l *Leader, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if err := l.End(context.Background(), id); err != nil {
			t.Fatalf("End %s: %v", id, err)
		}
	}
}

// holders returns the names of the replicas holding group's instance id.
func (h *harness) holders(group, id string) []string {
	var out []string
	for i, r := range h.replicas {
		if r.Holds(group, id) {
			out = append(out, h.names[i])
		}
	}
	return out
}

// TestAcceptorsForgetEndedInstance: an ended transaction every replica
// accepted is dropped by every replica at the next accept, which carries
// the forget list: no extra message is sent.
func TestAcceptorsForgetEndedInstance(t *testing.T) {
	h := newHarness(t, 3)
	l := h.leader("c0")
	decideAll(t, l, true, "T1")
	endAll(t, l, "T1")
	if got := h.holders("c0", "T1"); len(got) != 3 {
		t.Fatalf("T1 held at %v before the next accept, want every replica", got)
	}
	decideAll(t, l, false, "T2")
	if got := h.holders("c0", "T1"); len(got) != 0 {
		t.Fatalf("T1 still held at %v after the next accept", got)
	}
	if n := h.net.Counts().Counter("proto.RepAccept").Value(); n != 6 {
		t.Fatalf("%d accepts sent, want 6: one ballot per decision", n)
	}
	for i, r := range h.replicas {
		if n := r.Stats().Instances.Value(); n != 1 {
			t.Fatalf("%s gauges %d instances, want 1 (T2)", h.names[i], n)
		}
	}
}

// TestTakeoverAfterForgetSkipsEndedTransaction: a takeover over acceptors
// that forgot an ended transaction neither re-ballots it nor reports it,
// so the coordinator has nothing to re-deliver and no site reports it
// undecided (it was ended: every participant holds its decision).
func TestTakeoverAfterForgetSkipsEndedTransaction(t *testing.T) {
	h := newHarness(t, 3)
	l1 := h.leader("c0")
	decideAll(t, l1, true, "T1")
	endAll(t, l1, "T1")
	decideAll(t, l1, true, "T2") // carries T1's forget

	l2 := h.leader("c0")
	begun, decisions, err := l2.Snapshot(context.Background())
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if _, ok := decisions["T1"]; ok {
		t.Fatalf("takeover reports the ended T1: %v", decisions)
	}
	if len(begun) != 1 || begun[0].TxnID != "T2" {
		t.Fatalf("begun = %+v, want only T2", begun)
	}
	if n := l2.Stats().MajorityAcks.Value(); n != 1 {
		t.Fatalf("takeover ran %d ballots, want 1 (T2 only)", n)
	}
	for i, log := range h.logs {
		recs, err := log.Records()
		if err != nil {
			t.Fatal(err)
		}
		accepts := 0
		for _, rec := range recs {
			if rec.Type == wal.RecAccept && rec.TxnID == "T1" {
				accepts++
			}
		}
		if accepts != 1 {
			t.Fatalf("%s logged %d accepts of T1, want 1: the takeover re-balloted it", h.names[i], accepts)
		}
	}
}

// TestPartialForgetRedeliversChosenValue: a majority read that finds an
// ended instance at one acceptor and not at the other re-delivers the
// chosen value, since every acceptor held that value when the leader
// queued the forget.
func TestPartialForgetRedeliversChosenValue(t *testing.T) {
	h := newHarness(t, 3)
	l1 := h.leader("c0")
	decideAll(t, l1, false, "T1")
	endAll(t, l1, "T1")
	h.net.SetDown("r2", true)
	decideAll(t, l1, true, "T2") // r0 and r1 forget T1; r2 misses it
	h.net.SetDown("r2", false)
	if got := h.holders("c0", "T1"); !reflect.DeepEqual(got, []string{"r2"}) {
		t.Fatalf("T1 held at %v, want only r2", got)
	}

	h.net.SetDown("r0", true) // the read is {r1, r2}: T1 at one, not the other
	l2 := h.leader("c0")
	begun, decisions, err := l2.Snapshot(context.Background())
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if v, ok := decisions["T1"]; !ok || v {
		t.Fatalf("decisions[T1] = %v, %v; want the chosen abort", v, ok)
	}
	found := false
	for _, b := range begun {
		found = found || b.TxnID == "T1" && reflect.DeepEqual(b.Sites, []string{"s0", "s1"})
	}
	if !found {
		t.Fatalf("begun = %+v, want T1 re-delivered to s0, s1", begun)
	}
	for _, name := range []string{"r1", "r2"} {
		r := h.replicas[name[1]-'0']
		r.mu.Lock()
		inst := r.txns["c0"]["T1"]
		r.mu.Unlock()
		if inst == nil || inst.commit {
			t.Fatalf("%s holds %+v for T1 after the takeover, want the abort", name, inst)
		}
	}
}

// TestPartialAcceptIsNotForgotten: an instance some replica did not accept
// in the ballot that chose it stays at every acceptor after its End. The
// replica that missed it may hold an older value; were the others to
// forget, a takeover could read that value alone.
func TestPartialAcceptIsNotForgotten(t *testing.T) {
	h := newHarness(t, 3)
	l := h.leader("c0")
	if err := l.Sync(context.Background()); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	h.net.SetDown("r2", true)
	decideAll(t, l, true, "T1")
	h.net.SetDown("r2", false)
	endAll(t, l, "T1")
	decideAll(t, l, true, "T2")
	if got := h.holders("c0", "T1"); !reflect.DeepEqual(got, []string{"r0", "r1"}) {
		t.Fatalf("T1 held at %v, want r0 and r1 still", got)
	}
	// A takeover re-runs its ballot at every replica; its End then lets
	// every acceptor forget it.
	l2 := h.leader("c0")
	if _, _, err := l2.Snapshot(context.Background()); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	endAll(t, l2, "T1", "T2")
	decideAll(t, l2, true, "T3")
	for _, id := range []string{"T1", "T2"} {
		if got := h.holders("c0", id); len(got) != 0 {
			t.Fatalf("%s held at %v after the re-ballot's End", id, got)
		}
	}
}

// TestReplicaRestartsOverCheckpointedLog: a replica restarted over its log
// holds exactly the instances not forgotten, with the group's term, before
// and after a checkpoint, over a memory and over a file log; the
// checkpoint keeps nothing of the forgotten ones.
func TestReplicaRestartsOverCheckpointedLog(t *testing.T) {
	for _, kind := range []string{"memory", "file"} {
		t.Run(kind, func(t *testing.T) {
			h := newHarness(t, 3)
			if kind == "file" {
				fl, err := wal.OpenFileLog(filepath.Join(t.TempDir(), "r0.wal"))
				if err != nil {
					t.Fatal(err)
				}
				defer fl.Close()
				r, err := NewReplica(ReplicaConfig{Name: "r0", Log: fl})
				if err != nil {
					t.Fatal(err)
				}
				h.net.Register("r0", r.Handle)
				h.replicas[0], h.logs[0] = r, fl
			}
			l := h.leader("c0")
			decideAll(t, l, true, "T1", "T2", "T3")
			endAll(t, l, "T1", "T2")
			decideAll(t, l, false, "T4") // carries T1's and T2's forgets
			r := h.replicas[0]
			want := map[string]bool{"T3": true, "T4": false}
			restart := func(when string) {
				t.Helper()
				r.Crash()
				if err := r.Recover(); err != nil {
					t.Fatalf("Recover %s: %v", when, err)
				}
				got := map[string]bool{}
				for id, inst := range r.txns["c0"] {
					got[id] = inst.commit
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("replica restarted %s holds %v, want %v", when, got, want)
				}
				if r.terms["c0"] != 1 {
					t.Fatalf("replica restarted %s has term %d, want 1", when, r.terms["c0"])
				}
				if n := r.Stats().Instances.Value(); n != 2 {
					t.Fatalf("instances gauge = %d after a restart %s, want 2", n, when)
				}
			}
			restart("before the checkpoint")
			before, err := h.logs[0].Records()
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			after, err := h.logs[0].Records()
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range after {
				if rec.TxnID == "T1" || rec.TxnID == "T2" {
					t.Fatalf("checkpoint kept %v of a forgotten instance", rec)
				}
			}
			if len(after) >= len(before) {
				t.Fatalf("checkpoint kept %d of %d records", len(after), len(before))
			}

			restart("over the checkpoint")
			if n := r.Stats().WALRecords.Value(); n != int64(len(after)) {
				t.Fatalf("wal records gauge = %d, want %d", n, len(after))
			}
		})
	}
}

// TestLegacyLogCheckpointsAndRecovers: a replica log with the BEGIN
// records replicas once wrote per transaction recovers, checkpoints and
// recovers again to the same instances.
func TestLegacyLogCheckpointsAndRecovers(t *testing.T) {
	log := wal.NewMemoryLog()
	for _, rec := range []wal.Record{
		{Type: wal.RecTerm, Aux: "c0|1"},
		{Type: wal.RecBegin, TxnID: "T1", Aux: "c0|s0,s1|P1"},
		{Type: wal.RecAccept, TxnID: "T1", Aux: "c0|commit|1"},
		{Type: wal.RecTerm, Aux: "c0|2"},
		{Type: wal.RecAccept, TxnID: "T3", Aux: "c0|abort|2|s1|none"},
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
		"T3": {sites: []string{"s1"}, accTerm: 2},
	}
	if err := r.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	r.Crash()
	if err := r.Recover(); err != nil {
		t.Fatalf("recovering the checkpointed legacy log: %v", err)
	}
	if got := r.txns["c0"]; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered instances = %+v, want %+v", got, want)
	}
	if r.terms["c0"] != 2 {
		t.Fatalf("recovered term = %d, want 2", r.terms["c0"])
	}
}

// TestConcurrentBallotsForget: ballots that run at once share the forget
// queues; every ended instance is forgotten once the queues have ridden
// one more accept, and none is lost or held.
func TestConcurrentBallotsForget(t *testing.T) {
	h := newHarness(t, 3)
	l := h.leader("c0")
	ctx := context.Background()
	if err := l.Sync(ctx); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	var ids []string
	g := sim.NewGroup(h.clock)
	for w := 0; w < 8; w++ {
		for i := 0; i < 10; i++ {
			ids = append(ids, "T"+strconv.Itoa(w)+"-"+strconv.Itoa(i))
		}
		mine := ids[len(ids)-10:]
		g.Go(func() {
			for _, id := range mine {
				if _, err := l.Decide(ctx, id, true); err != nil {
					t.Errorf("Decide %s: %v", id, err)
					return
				}
				if err := l.End(ctx, id); err != nil {
					t.Errorf("End %s: %v", id, err)
				}
			}
		})
	}
	g.Wait()
	decideAll(t, l, true, "Tlast")
	for _, id := range ids {
		if got := h.holders("c0", id); len(got) != 0 {
			t.Fatalf("%s held at %v after the queues rode an accept", id, got)
		}
	}
}
