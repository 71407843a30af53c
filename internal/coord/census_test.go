package coord_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"o2pc/internal/coord"
	"o2pc/internal/core"
	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/sim"
	"o2pc/internal/trace"
	"o2pc/internal/wal"
)

// TestMessageCensus is experiment E6 as a test: for each protocol and N
// participants it pins, per committed one-shot transaction, the messages
// of every type and the sequential round trips on the coordinator's
// critical path. Round trips are read off virtual time: with a fixed
// one-way latency L and zero processing time, a Run lasts 2L × (round
// trips it waits for in sequence), plus at most a few of the 100 µs steps
// in which a fan-out's join polls virtual time — L is large enough for
// rounding to recover the count.
//
// Against the comparison table of Gray & Lamport's *Consensus on
// Transaction Commit*:
//
//   - O2PC and O2PC+P1 are the classic exchange the paper compares
//     against: per participant one exec pair (the work, which Gray &
//     Lamport do not count), a Prepare/Prepared pair and a Commit/Ack
//     pair, with the Prepare round as its own round trip after the last
//     exec. Marking adds no message — "no messages other than the
//     standard 2PC messages".
//   - 2PC is the Two-Phase Commit column: Prepare rides the exec request
//     and Prepared its reply, as the paper's resource managers send
//     Prepared the moment their work is done instead of waiting to be
//     asked. That leaves Commit/Ack per participant — one pair fewer than
//     O2PC, and one round trip fewer. The table's 3N−1 messages and 4
//     message delays count Prepare and Prepared as messages of their own,
//     leave out the acks, and start at the first Prepared.
//   - Paxos is 2PC with the coordinator's log replicated on 2F+1
//     acceptors (F = 1 here), not the Paxos Commit column: the
//     coordinator collects the votes and runs one ballot for the decision
//     (RepAccept), where Paxos Commit runs one Paxos instance per
//     participant's vote; and the BEGIN record is also replicated before
//     the first exec (RepBegin), which costs one more round trip.
//
// Acks are counted because the coordinator waits for them before Run
// returns; the decision itself is durable one round trip earlier.
//
// The read-only rows have no column in Gray & Lamport's table. A
// participant that wrote nothing leaves at its vote (the R* read-only
// exit): with one such participant the Decision/Ack pair goes to the other
// N−1; with all of them read-only there is no decision round and no
// decision record at all — N execs and one vote round.
//
// Forced writes (log syncs, counted as EvWALSync events) are pinned per
// committed and per aborted transaction by forcedWrites; the aborted
// transactions have one participant vote NO:
//
//   - 2PC: N+1 per commit, Gray & Lamport's count — each participant
//     forces PREPARED, the coordinator its decision. An abort costs N: the
//     NO voter rolls back without forcing anything, and the coordinator
//     forces the abort decision too (it presumes nothing).
//   - O2PC, with or without P1: also N+1 per commit, but the participant's
//     forced write is its local COMMIT at the vote — the exposure point of
//     Theorem 2 — not a PREPARED record, and the decision that follows is
//     not forced at the site. An abort costs N, as under 2PC: the
//     compensating transactions and the undone marks force nothing. The
//     table has no O2PC column.
//   - Read-only participants force nothing, and when every participant
//     is read-only the coordinator logs no decision: 0 writes.
//   - Paxos: N + 2(2F+1) per commit, where Paxos Commit has N+F+1, and
//     N−1 + 2(2F+1) per abort. The participants force PREPARED as under
//     2PC, but the leader keeps no log of its own; every one of the 2F+1
//     acceptors forces the replicated BEGIN and then the decision's
//     accept, one ballot per transaction where Paxos Commit runs one per
//     participant and counts only the F+1 acceptors of a majority.
//
// The coordinator's own log takes three appends per committed or aborted
// transaction — BEGIN, the forced DECISION and, once every participant
// has acked, the END that lets it forget the transaction — and two, BEGIN
// and END, when every participant left read-only. END is never forced:
// the forced-write counts above are the same with it as without.
//
// The same counts pin that a WAL checkpoint below its threshold costs no
// forced write per transaction: a checkpoint is a forced write (the traced
// log reports one), and the census stays far below the threshold.
func TestMessageCensus(t *testing.T) {
	const (
		latency  = 10 * time.Millisecond
		replicas = 3 // 2F+1 acceptors, F = 1
		txns     = 3 // measured transactions per cluster, after a warm-up
	)
	for _, tc := range []struct {
		name     string
		protocol proto.Protocol
		marking  proto.MarkProtocol
		replicas int
		// readOnly is how many participants, counted from the last, only
		// read (allReadOnly: every one).
		readOnly int
		// pairs of each request type per participant, and per replica; the
		// read-only participants get no Decision.
		perSite    []string
		perReplica []string
		// rounds is the sequential round trips beyond the N execs.
		rounds int
		// logged is the decision records per transaction in the
		// coordinator's own log (a replicated log's are its RepAccepts),
		// and appended all its records per transaction.
		logged, appended int
	}{
		{name: "O2PC", protocol: proto.O2PC, perSite: []string{"ExecRequest", "VoteRequest", "Decision"}, rounds: 2, logged: 1, appended: 3},
		{name: "O2PC+P1", protocol: proto.O2PC, marking: proto.MarkP1, perSite: []string{"ExecRequest", "VoteRequest", "Decision"}, rounds: 2, logged: 1, appended: 3},
		{name: "O2PC+P1/one-read-only", protocol: proto.O2PC, marking: proto.MarkP1, readOnly: 1,
			perSite: []string{"ExecRequest", "VoteRequest", "Decision"}, rounds: 2, logged: 1, appended: 3},
		{name: "O2PC+P1/all-read-only", protocol: proto.O2PC, marking: proto.MarkP1, readOnly: allReadOnly,
			perSite: []string{"ExecRequest", "VoteRequest", "Decision"}, rounds: 1, logged: 0, appended: 2},
		{name: "2PC", protocol: proto.TwoPC, perSite: []string{"ExecRequest", "Decision"}, rounds: 1, logged: 1, appended: 3},
		{name: "Paxos", protocol: proto.Paxos, replicas: replicas, perSite: []string{"ExecRequest", "Decision"},
			perReplica: []string{"RepBegin", "RepAccept"}, rounds: 3},
	} {
		for _, n := range []int{2, 3} {
			tc, n := tc, n
			t.Run(fmt.Sprintf("%s/N=%d", tc.name, n), func(t *testing.T) {
				readOnly := tc.readOnly
				if readOnly == allReadOnly {
					readOnly = n
				}
				want := make(map[string]int64)
				for _, req := range tc.perSite {
					sites := n
					if req == "Decision" {
						sites -= readOnly
					}
					if sites == 0 {
						continue
					}
					want["proto."+req] += int64(sites * txns)
					want["proto."+replyOf[req]] += int64(sites * txns)
				}
				for _, req := range tc.perReplica {
					want["proto."+req] += int64(tc.replicas * txns)
					want["proto."+replyOf[req]] += int64(tc.replicas * txns)
				}
				c := census(t, tc.protocol, tc.marking, n, readOnly, tc.replicas, txns, latency)
				if !reflect.DeepEqual(c.msgs, want) {
					t.Errorf("messages for %d txns:\n got %v\nwant %v", txns, c.msgs, want)
				}
				for i, rt := range c.rtts {
					if rt != n+tc.rounds {
						t.Errorf("txn %d: %d sequential round trips, want N+%d = %d", i, rt, tc.rounds, n+tc.rounds)
					}
				}
				if c.logged != tc.logged*txns {
					t.Errorf("%d decision records for %d txns, want %d", c.logged, txns, tc.logged*txns)
				}
				if wantEnded := min(tc.appended, 1) * txns; c.appendedCommit != tc.appended*txns || c.ended != wantEnded {
					t.Errorf("coordinator log: %d records, %d of them END, for %d txns; want %d and %d",
						c.appendedCommit, c.ended, txns, tc.appended*txns, wantEnded)
				}
				wantCommit := forcedWrites(tc.protocol, n, readOnly, tc.replicas, true)
				if got := c.forcedCommit; got != wantCommit.times(txns) {
					t.Errorf("forced writes of %d committed txns: got %+v, want %+v each", txns, got, wantCommit)
				}
				if readOnly == 0 {
					wantAbort := forcedWrites(tc.protocol, n, 0, tc.replicas, false)
					if got := c.forcedAbort; got != wantAbort.times(txns) {
						t.Errorf("forced writes of %d aborted txns: got %+v, want %+v each", txns, got, wantAbort)
					}
					if c.appendedAbort != tc.appended*txns {
						t.Errorf("coordinator log: %d records for %d aborted txns, want %d", c.appendedAbort, txns, tc.appended*txns)
					}
				}
			})
		}
	}
}

// allReadOnly makes every participant of a census case read-only.
const allReadOnly = -1

// replyOf names each request type's reply.
var replyOf = map[string]string{
	"ExecRequest": "ExecReply",
	"VoteRequest": "VoteReply",
	"Decision":    "Ack",
	"RepBegin":    "RepReply",
	"RepAccept":   "RepReply",
}

// forced counts forced writes (EvWALSync events) by kind of node.
type forced struct{ sites, coord, replicas int }

// times multiplies one transaction's count by txns.
func (f forced) times(txns int) forced {
	return forced{f.sites * txns, f.coord * txns, f.replicas * txns}
}

// forcedWrites is the forced writes (log syncs) one transaction costs
// over n participants of which readOnly only read, and replicas = 2F+1
// acceptors; commit is the outcome, an abort being a NO vote by one
// participant that wrote.
func forcedWrites(p proto.Protocol, n, readOnly, replicas int, commit bool) forced {
	f := forced{sites: n - readOnly}
	if !commit {
		f.sites = n - 1 // the NO voter rolls back without a sync
	}
	switch {
	case p == proto.Paxos:
		// Each acceptor syncs the BEGIN and the decision's accept; the
		// leader keeps no log of its own.
		f.replicas = 2 * replicas
	case f.sites > 0 || !commit:
		f.coord = 1 // the decision record
	}
	return f
}

// censusResult is what one census cluster measured.
type censusResult struct {
	msgs   map[string]int64 // messages of the committed transactions
	rtts   []int            // each committed transaction's sequential round trips
	logged int              // decision records the coordinator appended
	ended  int              // END records the coordinator appended
	// Records the coordinator appended for the committed transactions, and
	// for the aborted ones.
	appendedCommit, appendedAbort int
	// Forced writes of the committed transactions, and of as many aborted
	// ones run after them.
	forcedCommit, forcedAbort forced
}

// census runs one warm-up and then txns committed transactions over n
// sites in virtual time — transfers, except that the last readOnly sites
// only read — and returns the messages the measured transactions
// exchanged, each one's sequential round trips, the decision records they
// appended to the coordinator's own log and their forced writes. Then the
// last site votes NO on txns more, whose forced writes it also returns.
func census(t *testing.T, p proto.Protocol, m proto.MarkProtocol, n, readOnly, replicas, txns int, latency time.Duration) censusResult {
	t.Helper()
	clock := sim.NewVirtualClock()
	tr := trace.New(clock, 0)
	cl := core.NewCluster(core.Config{
		Sites:    n,
		Replicas: replicas,
		Clock:    clock,
		Tracer:   tr,
		Network:  rpc.Config{MinLatency: latency, MaxLatency: latency},
		// The resolver must not add inquiries to a census of the happy
		// path: under 2PC a site prepares at its first exec, several round
		// trips before the decision lands.
		ResolvePeriod: time.Hour,
	})
	defer cl.Close()
	cl.SeedInt64("acct", 1000)
	ctx, cancel := clock.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	spec := coord.TxnSpec{Protocol: p, Marking: m}
	for i := 0; i < n; i++ {
		op := proto.Add("acct", 1)
		if i >= n-readOnly {
			op = proto.Read("acct")
		}
		spec.Subtxns = append(spec.Subtxns, coord.SubtxnSpec{
			Site: fmt.Sprintf("s%d", i), Ops: []proto.Operation{op}, Comp: proto.CompSemantic,
		})
	}
	// The warm-up absorbs one-time traffic (the Paxos leader's election).
	if res := cl.Run(ctx, spec); !res.Committed() {
		t.Fatalf("warm-up: %v (%v)", res.Outcome, res.Err)
	}
	before := cl.MessageCounts()
	tr.Drain()
	var c censusResult
	for i := 0; i < txns; i++ {
		res := cl.Run(ctx, spec)
		if !res.Committed() {
			t.Fatalf("txn %d: %v (%v)", i, res.Outcome, res.Err)
		}
		c.rtts = append(c.rtts, int((res.Latency+latency)/(2*latency)))
	}
	c.msgs = make(map[string]int64)
	for name, v := range cl.MessageCounts() {
		if d := v - before[name]; d != 0 {
			c.msgs[name] = d
		}
	}
	events := tr.Drain()
	for _, ev := range events {
		if ev.Node != "c0" || ev.Type != trace.EvWALAppend {
			continue
		}
		c.appendedCommit++
		switch {
		case strings.HasPrefix(ev.Detail, wal.RecDecision.String()):
			c.logged++
		case ev.Detail == wal.RecEnd.String():
			c.ended++
		}
	}
	c.forcedCommit = countForced(events)

	cl.Site(n - 1).SetVoteAbortInjector(func(string) bool { return true })
	for i := 0; i < txns; i++ {
		if res := cl.Run(ctx, spec); res.Committed() {
			t.Fatalf("doomed txn %d committed", i)
		}
	}
	if err := cl.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	events = tr.Drain()
	c.forcedAbort = countForced(events)
	for _, ev := range events {
		if ev.Node == "c0" && ev.Type == trace.EvWALAppend {
			c.appendedAbort++
		}
	}
	return c
}

// countForced counts the EvWALSync events by kind of node.
func countForced(events []trace.Event) forced {
	var f forced
	for _, ev := range events {
		if ev.Type != trace.EvWALSync {
			continue
		}
		switch ev.Node[0] {
		case 's':
			f.sites++
		case 'c':
			f.coord++
		case 'r':
			f.replicas++
		}
	}
	return f
}
