package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"o2pc/internal/sim"
	"o2pc/internal/wal"
)

func TestEventTypeNamesComplete(t *testing.T) {
	for i := EventType(0); i < numEventTypes; i++ {
		name := eventTypeNames[i]
		if name == "" {
			t.Fatalf("event type %d has no name", i)
		}
		got, ok := TypeByName(name)
		if !ok || got != i {
			t.Fatalf("TypeByName(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := TypeByName("no.such.event"); ok {
		t.Fatalf("unknown name resolved")
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit("s0", EvVoteYes, "T1", "", "")
	if tr.Events() != nil || tr.Dropped() != nil {
		t.Fatalf("nil tracer returned data")
	}
}

func TestEmitAndOrder(t *testing.T) {
	clk := sim.NewVirtualClock()
	tr := New(clk, 16)
	g := sim.NewGroup(clk)
	g.Go(func() {
		tr.Emit("c0", EvTxnBegin, "T1", "", "")
		tr.Emit("s0", EvVoteReqRecv, "T1", "c0", "")
		_ = clk.Sleep(context.Background(), time.Millisecond)
		tr.Emit("s0", EvVoteYes, "T1", "c0", "")
		tr.Emit("c0", EvVoteRecv, "T1", "s0", "yes")
	})
	g.Wait()
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("got %d events, want 4", len(ev))
	}
	// Ordered by (T, Node, Seq): the two time-zero events sort by node
	// name, then the post-sleep pair likewise.
	want := []EventType{EvTxnBegin, EvVoteReqRecv, EvVoteRecv, EvVoteYes}
	for i, e := range ev {
		if e.Type != want[i] {
			t.Errorf("event %d = %v, want %v", i, e.Type, want[i])
		}
	}
	if ev[0].T >= ev[2].T {
		t.Errorf("virtual time did not advance: %d >= %d", ev[0].T, ev[2].T)
	}
}

func TestDrainEmptiesWithoutLosingSequence(t *testing.T) {
	var nilTr *Tracer
	if nilTr.Drain() != nil {
		t.Fatalf("nil tracer drained data")
	}
	tr := New(sim.NewVirtualClock(), 4)
	tr.Emit("s0", EvVoteYes, "T1", "", "")
	tr.Emit("s0", EvVoteNo, "T2", "", "")
	first := tr.Drain()
	if len(first) != 2 || first[0].Seq != 1 || first[1].Seq != 2 {
		t.Fatalf("first drain = %+v", first)
	}
	if ev := tr.Events(); len(ev) != 0 {
		t.Fatalf("drain left %d events behind", len(ev))
	}
	// Sequence numbering continues: an event is reported exactly once and
	// the node-local order across drains stays total.
	tr.Emit("s0", EvExposed, "T3", "", "")
	second := tr.Drain()
	if len(second) != 1 || second[0].Seq != 3 || second[0].Type != EvExposed {
		t.Fatalf("second drain = %+v", second)
	}
	if len(tr.Drain()) != 0 {
		t.Fatalf("third drain not empty")
	}
}

func TestRingDropsOldest(t *testing.T) {
	tr := New(sim.Real(), 4)
	for i := 0; i < 10; i++ {
		tr.Emit("n", EvMsgSend, "", "", "")
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d, want 4", len(ev))
	}
	// The survivors are the newest four emissions (seq 7..10).
	if ev[0].Seq != 7 || ev[3].Seq != 10 {
		t.Fatalf("wrong survivors: seq %d..%d", ev[0].Seq, ev[3].Seq)
	}
	if d := tr.Dropped()["n"]; d != 6 {
		t.Fatalf("dropped = %d, want 6", d)
	}
}

func TestEmitConcurrent(t *testing.T) {
	tr := New(sim.Real(), 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		node := string(rune('a' + g))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Emit(node, EvMsgRecv, "T", "", "")
			}
		}()
	}
	wg.Wait()
	if n := len(tr.Events()); n != 4000 {
		t.Fatalf("got %d events, want 4000", n)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{T: 100, Node: "c0", Seq: 1, Type: EvTxnBegin, Txn: "T1"},
		{T: 200, Node: "s0", Seq: 1, Type: EvVoteYes, Txn: "T1", Peer: "c0", Detail: "o2pc"},
		{T: 300, Node: "net", Seq: 1, Type: EvMsgDrop, Peer: "s0"},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Fatalf("line count = %d", got)
	}
	if !strings.Contains(buf.String(), `"type":"vote.yes"`) {
		t.Fatalf("type not spelled by name: %s", buf.String())
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d != %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("event %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestReadJSONLRejectsUnknownType(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader(`{"t":1,"node":"x","seq":1,"type":"bogus"}`))
	if err == nil {
		t.Fatalf("unknown type accepted")
	}
}

func TestWriteChromeSchema(t *testing.T) {
	events := []Event{
		{T: 1_000_000, Node: "c0", Seq: 1, Type: EvTxnBegin, Txn: "T1"},
		{T: 2_000_000, Node: "s0", Seq: 1, Type: EvVoteYes, Txn: "T1", Peer: "c0"},
		{T: 3_000_000, Node: "c0", Seq: 2, Type: EvCrash},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome output is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for _, e := range f.TraceEvents {
		ph, _ := e["ph"].(string)
		phases[ph]++
		if _, ok := e["pid"].(float64); !ok {
			t.Fatalf("event missing pid: %v", e)
		}
		if _, ok := e["ts"]; !ok && ph != "M" {
			t.Fatalf("non-metadata event missing ts: %v", e)
		}
	}
	if phases["M"] == 0 || phases["X"] == 0 || phases["i"] != 3 {
		t.Fatalf("phase counts = %v", phases)
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Fatalf("empty trace missing envelope: %s", buf.String())
	}
}

func TestWrapLog(t *testing.T) {
	tr := New(sim.Real(), 0)
	l := WrapLog(wal.NewMemoryLog(), tr, "s0")
	if _, err := l.Append(wal.Record{Type: wal.RecBegin, TxnID: "T1", Aux: "sites=s0"}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	ev := tr.Events()
	if len(ev) != 2 {
		t.Fatalf("got %d events, want 2", len(ev))
	}
	if ev[0].Type != EvWALAppend || ev[0].Txn != "T1" || !strings.Contains(ev[0].Detail, "sites=s0") {
		t.Fatalf("append event = %+v", ev[0])
	}
	if ev[1].Type != EvWALSync {
		t.Fatalf("sync event = %+v", ev[1])
	}
}

func TestWrapLogNilPassthrough(t *testing.T) {
	inner := wal.NewMemoryLog()
	if got := WrapLog(inner, nil, "s0"); got != wal.Log(inner) {
		t.Fatalf("nil tracer should return inner unchanged")
	}
	if got := WrapLog(nil, New(sim.Real(), 0), "s0"); got != nil {
		t.Fatalf("nil inner should stay nil")
	}
}

func TestNodesAndTxns(t *testing.T) {
	events := []Event{
		{Node: "s1", Txn: "T2"},
		{Node: "s0", Txn: "T1"},
		{Node: "s1", Txn: ""},
	}
	if got := Nodes(events); len(got) != 2 || got[0] != "s0" || got[1] != "s1" {
		t.Fatalf("nodes = %v", got)
	}
	if got := Txns(events); len(got) != 2 || got[0] != "T1" || got[1] != "T2" {
		t.Fatalf("txns = %v", got)
	}
}
