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
		// coordinator's own log (a replicated log's are its RepAccepts).
		logged int
	}{
		{name: "O2PC", protocol: proto.O2PC, perSite: []string{"ExecRequest", "VoteRequest", "Decision"}, rounds: 2, logged: 1},
		{name: "O2PC+P1", protocol: proto.O2PC, marking: proto.MarkP1, perSite: []string{"ExecRequest", "VoteRequest", "Decision"}, rounds: 2, logged: 1},
		{name: "O2PC+P1/one-read-only", protocol: proto.O2PC, marking: proto.MarkP1, readOnly: 1,
			perSite: []string{"ExecRequest", "VoteRequest", "Decision"}, rounds: 2, logged: 1},
		{name: "O2PC+P1/all-read-only", protocol: proto.O2PC, marking: proto.MarkP1, readOnly: allReadOnly,
			perSite: []string{"ExecRequest", "VoteRequest", "Decision"}, rounds: 1, logged: 0},
		{name: "2PC", protocol: proto.TwoPC, perSite: []string{"ExecRequest", "Decision"}, rounds: 1, logged: 1},
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
				got, rtts, logged := census(t, tc.protocol, tc.marking, n, readOnly, tc.replicas, txns, latency)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("messages for %d txns:\n got %v\nwant %v", txns, got, want)
				}
				for i, rt := range rtts {
					if rt != n+tc.rounds {
						t.Errorf("txn %d: %d sequential round trips, want N+%d = %d", i, rt, tc.rounds, n+tc.rounds)
					}
				}
				if logged != tc.logged*txns {
					t.Errorf("%d decision records for %d txns, want %d", logged, txns, tc.logged*txns)
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

// census runs one warm-up and then txns committed transactions over n
// sites in virtual time — transfers, except that the last readOnly sites
// only read — and returns the messages the measured transactions
// exchanged, each one's sequential round trips, and the decision records
// they appended to the coordinator's own log.
func census(t *testing.T, p proto.Protocol, m proto.MarkProtocol, n, readOnly, replicas, txns int, latency time.Duration) (map[string]int64, []int, int) {
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
	var rtts []int
	for i := 0; i < txns; i++ {
		res := cl.Run(ctx, spec)
		if !res.Committed() {
			t.Fatalf("txn %d: %v (%v)", i, res.Outcome, res.Err)
		}
		rtts = append(rtts, int((res.Latency+latency)/(2*latency)))
	}
	got := make(map[string]int64)
	for name, v := range cl.MessageCounts() {
		if d := v - before[name]; d != 0 {
			got[name] = d
		}
	}
	logged := 0
	for _, ev := range tr.Drain() {
		if ev.Node == "c0" && ev.Type == trace.EvWALAppend && strings.HasPrefix(ev.Detail, wal.RecDecision.String()) {
			logged++
		}
	}
	return got, rtts, logged
}
