package main

import (
	"testing"
	"time"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps span 2 by ten
		{ID: 4, Parent: 1, Start: 60, End: 70},
		{ID: 5, Parent: 4, Start: 62, End: 64},  // a grandchild is the child's business
		{ID: 6, Parent: 1, Start: 90, End: 130}, // runs past its parent's end
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 40, 2: 20, 3: 30, 4: 8, 5: 2, 6: 40}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestLinkParents(t *testing.T) {
	spans := []span{
		{ID: 1, Proc: "driver", Name: spanRun, Txn: "t1", Start: 0, End: 100},
		// A decision delivered twice: the handlers pair with the calls in
		// start order, whatever order the merged files list them in.
		{ID: 12, Proc: "s0", Name: spanHandle, Kind: "decision", Peer: "s0", Txn: "t1", Start: 62, End: 68},
		{ID: 10, Proc: "driver", Name: spanCall, Kind: "decision", Peer: "s0", Txn: "t1", Start: 40, End: 50},
		{ID: 11, Proc: "driver", Name: spanCall, Kind: "decision", Peer: "s0", Txn: "t1", Start: 60, End: 70},
		{ID: 13, Proc: "s0", Name: spanHandle, Kind: "decision", Peer: "s0", Txn: "t1", Start: 42, End: 48},
		// Same kind and transaction at the other site must not be confused.
		{ID: 14, Proc: "driver", Name: spanCall, Kind: "decision", Peer: "s1", Txn: "t1", Start: 41, End: 51},
		{ID: 15, Proc: "s1", Name: spanHandle, Kind: "decision", Peer: "s1", Txn: "t1", Start: 43, End: 49},
		{ID: 20, Proc: "driver", Name: spanDecide, Txn: "t1", Start: 30, End: 39},
		// A handler whose call was never recorded keeps no parent.
		{ID: 30, Proc: "s0", Name: spanHandle, Kind: "vote", Peer: "s0", Txn: "t2", Start: 5, End: 6},
	}
	linkParents(spans)
	want := map[int64]int64{1: 0, 10: 1, 11: 1, 14: 1, 20: 1, 13: 10, 12: 11, 15: 14, 30: 0}
	for _, s := range spans {
		if s.Parent != want[s.ID] {
			t.Errorf("span %d: parent %d, want %d", s.ID, s.Parent, want[s.ID])
		}
	}
}

// Two vote handlers overlap at one site; wal.Log carries no context, so the
// WAL spans find their handler by time, transaction and append order.
func TestLinkWALSpansToTheirHandler(t *testing.T) {
	spans := []span{
		{ID: 1, Proc: "s0", Name: spanHandle, Kind: "vote", Txn: "a", Start: 0, End: 100},
		{ID: 2, Proc: "s0", Name: spanHandle, Kind: "vote", Txn: "b", Start: 10, End: 120},
		{ID: 3, Proc: "s0", Name: spanAppend, Txn: "a", Start: 20, End: 22},
		{ID: 4, Proc: "s0", Name: spanAppend, Txn: "b", Start: 30, End: 32},
		{ID: 5, Proc: "s0", Name: spanSync, Start: 34, End: 60}, // b appended last: b's sync
		{ID: 6, Proc: "s0", Name: spanAppend, Txn: "a", Start: 62, End: 63},
		{ID: 7, Proc: "s0", Name: spanSync, Start: 64, End: 90},                 // now a appended last
		{ID: 8, Proc: "s0", Name: spanSync, Start: 105, End: 110},               // only b still encloses it
		{ID: 9, Proc: "s0", Name: spanSync, Start: 130, End: 140},               // outside every handler
		{ID: 10, Proc: "s1", Name: spanSync, Start: 40, End: 50},                // another process: not s0's business
		{ID: 11, Proc: "s0", Name: spanAppend, Txn: "CT-a", Start: 92, End: 93}, // names no handler's txn
	}
	linkParents(spans)
	want := map[int64]int64{3: 1, 4: 2, 5: 2, 6: 1, 7: 1, 8: 2, 9: 0, 10: 0, 11: 1}
	for _, s := range spans {
		if w, ok := want[s.ID]; ok && s.Parent != w {
			t.Errorf("span %d (%s): parent %d, want %d", s.ID, s.Name, s.Parent, w)
		}
	}
}

func TestSpanMetricsPhasesSumToRun(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanRun, Txn: "t1", Note: "committed", Start: 1000, End: 2000},
		{ID: 2, Name: spanBegin, Txn: "t1", Start: 1010, End: 1020},
		{ID: 3, Name: spanCall, Kind: "exec", Peer: "s0", Txn: "t1", Start: 1030, End: 1130},
		{ID: 4, Name: spanCall, Kind: "exec", Peer: "s1", Txn: "t1", Start: 1140, End: 1240},
		{ID: 5, Name: spanCall, Kind: "vote", Peer: "s0", Txn: "t1", Start: 1300, End: 1400},
		{ID: 6, Name: spanCall, Kind: "vote", Peer: "s1", Txn: "t1", Start: 1310, End: 1450}, // parallel
		{ID: 7, Name: spanDecide, Txn: "t1", Start: 1500, End: 1600},
		{ID: 8, Name: spanCall, Kind: "decision", Peer: "s0", Txn: "t1", Start: 1700, End: 1900},
		{ID: 9, Name: spanHandle, Kind: "decision", Peer: "s0", Proc: "s0", Txn: "t1", Start: 1750, End: 1850},
		{ID: 10, Name: spanSync, Proc: "s0", Start: 1800, End: 1840},
		// An aborted transaction and one outside the window are not averaged in.
		{ID: 11, Name: spanRun, Txn: "t2", Note: "aborted-vote", Start: 1000, End: 9000},
		{ID: 12, Name: spanRun, Txn: "t3", Note: "committed", Start: 10, End: 20},
	}
	linkParents(spans)
	v := make(map[string]float64)
	spanMetrics(spans, 1000, 5000, v)
	const perMs = 1e6 // the spans above are in nanoseconds
	want := map[string]float64{
		"coord.exec_ms": 200 / perMs, "coord.vote_ms": 150 / perMs, "coord.decide_ms": 110 / perMs,
		"coord.ack_ms": 200 / perMs, "coord.self_ms": 340 / perMs,
		"rpc.wire_decision_us": 0.1, "site.handle_decision_us": 0.06, "wal.syncs": 1, "wal.sync_us": 0.04,
	}
	for name, w := range want {
		if got := v[name]; got < w-1e-12 || got > w+1e-12 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	sum := v["coord.exec_ms"] + v["coord.vote_ms"] + v["coord.decide_ms"] + v["coord.ack_ms"] + v["coord.self_ms"]
	if sum < v["coord.run_ms"]-1e-12 || sum > v["coord.run_ms"]+1e-12 {
		t.Errorf("phases sum to %v, mean run is %v", sum, v["coord.run_ms"])
	}
}
