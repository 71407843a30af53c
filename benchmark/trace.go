package main

import (
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"o2pc/internal/coord"
	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/sim"
	"o2pc/internal/wal"
)

// The traced run wraps the seams the program already has — rpc.Caller and
// coord.DecisionLog in the driver, rpc.Handler and wal.Log in the nodes —
// with the decorators in this file. Nothing inside the program is touched;
// spans inside a layer are a later issue.

// Span names, one per wrapped seam.
const (
	spanRun    = "coord.run"   // one coord.Run, recorded by the client loop
	spanCall   = "rpc.call"    // one Caller.Call, driver side
	spanHandle = "rpc.handle"  // one Handler invocation, node side
	spanAppend = "wal.append"  // one Log.Append
	spanSync   = "wal.sync"    // one Log.Sync
	spanBegin  = "dlog.begin"  // DecisionLog.Begin
	spanDecide = "dlog.decide" // DecisionLog.Decide
)

// span is one timed interval at a layer boundary. Spans of one transaction
// share Txn; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64
	Parent int64
	Proc   string // process that recorded it: "driver", "s0", "s1", "rep"
	Name   string
	Kind   string // message kind for rpc spans: exec, vote, decision, ...
	Peer   string // the node called (rpc.call) or handling (rpc.handle)
	Txn    string
	Note   string // coord.run: the outcome
	Start  int64  // unix nanoseconds
	End    int64
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps one process's spans in memory until the run ends.
type recorder struct {
	proc  string
	clock sim.Clock
	next  atomic.Int64

	mu    sync.Mutex
	spans []span
}

// newRecorder numbers spans from procIndex<<40 so IDs stay unique after the
// driver merges every process's file.
func newRecorder(proc string, procIndex int) *recorder {
	r := &recorder{proc: proc, clock: sim.Real()}
	r.next.Store(int64(procIndex) << 40)
	return r
}

// begin opens a span: it has its ID and start time, and end files it.
func (r *recorder) begin(s span) span {
	s.ID, s.Proc, s.Start = r.next.Add(1), r.proc, r.clock.Now().UnixNano()
	return s
}

func (r *recorder) end(s span) {
	s.End = r.clock.Now().UnixNano()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and empties the recorder.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	return out
}

// msgKind names a request for span grouping.
func msgKind(req any) string {
	switch req.(type) {
	case proto.ExecRequest:
		return "exec"
	case proto.VoteRequest:
		return "vote"
	case proto.Decision:
		return "decision"
	case proto.ResolveRequest:
		return "resolve"
	case proto.RepBegin:
		return "rep-begin"
	case proto.RepAccept:
		return "rep-accept"
	case proto.RepNewTerm:
		return "rep-newterm"
	default:
		return "other"
	}
}

// msgSampleCap bounds the request/reply pairs kept per message kind for the
// isolated codec timing.
const msgSampleCap = 64

// tracedCaller records one span per call and keeps the first few requests
// and replies of each message kind, for timing the codec alone afterwards.
type tracedCaller struct {
	inner rpc.Caller
	rec   *recorder

	mu      sync.Mutex
	samples map[string][]any // kind -> request, reply, request, reply, ...
}

func newTracedCaller(inner rpc.Caller, rec *recorder) *tracedCaller {
	return &tracedCaller{inner: inner, rec: rec, samples: make(map[string][]any)}
}

func (c *tracedCaller) Call(ctx context.Context, from, to string, req any) (any, error) {
	s := c.rec.begin(span{Name: spanCall, Kind: msgKind(req), Peer: to, Txn: proto.TxnIDOf(req)})
	resp, err := c.inner.Call(ctx, from, to, req)
	c.rec.end(s)
	if err == nil {
		c.mu.Lock()
		if len(c.samples[s.Kind]) < 2*msgSampleCap {
			c.samples[s.Kind] = append(c.samples[s.Kind], req, resp)
		}
		c.mu.Unlock()
	}
	return resp, err
}

// tracedHandler records one span per inbound request.
func tracedHandler(node string, h rpc.Handler, rec *recorder) rpc.Handler {
	return func(ctx context.Context, from string, req any) (any, error) {
		s := rec.begin(span{Name: spanHandle, Kind: msgKind(req), Peer: node, Txn: proto.TxnIDOf(req)})
		resp, err := h(ctx, from, req)
		rec.end(s)
		return resp, err
	}
}

// tracedLog records one span per Append and per Sync.
type tracedLog struct {
	wal.Log
	rec *recorder
}

func (l *tracedLog) Append(rec wal.Record) (uint64, error) {
	s := l.rec.begin(span{Name: spanAppend, Txn: rec.TxnID})
	lsn, err := l.Log.Append(rec)
	l.rec.end(s)
	return lsn, err
}

func (l *tracedLog) Sync() error {
	s := l.rec.begin(span{Name: spanSync})
	err := l.Log.Sync()
	l.rec.end(s)
	return err
}

// tracedDecisionLog records Begin and Decide, the two durable steps on a
// transaction's path. The other methods run only in recovery.
type tracedDecisionLog struct {
	coord.DecisionLog
	rec *recorder
}

func (d *tracedDecisionLog) Begin(ctx context.Context, id string, sites []string, marking proto.MarkProtocol) error {
	s := d.rec.begin(span{Name: spanBegin, Txn: id})
	err := d.DecisionLog.Begin(ctx, id, sites, marking)
	d.rec.end(s)
	return err
}

func (d *tracedDecisionLog) Decide(ctx context.Context, id string, commit bool) (bool, error) {
	s := d.rec.begin(span{Name: spanDecide, Txn: id})
	chosen, err := d.DecisionLog.Decide(ctx, id, commit)
	d.rec.end(s)
	return chosen, err
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gob.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("encoding spans to %s: %w", path, err)
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	if err := gob.NewDecoder(f).Decode(&spans); err != nil {
		return nil, fmt.Errorf("decoding spans from %s: %w", path, err)
	}
	return spans, nil
}

// linkParents fills the parent links of a merged span set. Call and
// decision-log spans hang off their transaction's coord.run root. A handler
// span's parent is the call span with the same (txn, kind, node); retries
// make several of each, so the k-th handler pairs with the k-th call in
// start order. A WAL span's parent is the handler or decision-log span of
// its own process that encloses it (see linkWAL). Spans with no match keep
// Parent 0.
func linkParents(spans []span) {
	type key struct{ txn, kind, peer string }
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].Start < spans[order[b]].Start })

	roots := make(map[string]int64)
	calls := make(map[key][]int64)
	byProc := make(map[string][]int) // indices in start order
	for _, i := range order {
		s := &spans[i]
		byProc[s.Proc] = append(byProc[s.Proc], i)
		switch s.Name {
		case spanRun:
			roots[s.Txn] = s.ID
		case spanCall:
			if s.Txn != "" {
				calls[key{s.Txn, s.Kind, s.Peer}] = append(calls[key{s.Txn, s.Kind, s.Peer}], s.ID)
			}
		}
	}
	for _, i := range order {
		s := &spans[i]
		switch s.Name {
		case spanCall, spanBegin, spanDecide:
			s.Parent = roots[s.Txn]
		case spanHandle:
			k := key{s.Txn, s.Kind, s.Peer}
			if q := calls[k]; len(q) > 0 && s.Txn != "" {
				s.Parent, calls[k] = q[0], q[1:]
			}
		}
	}
	for _, idx := range byProc {
		linkWAL(spans, idx)
	}
}

// linkWAL links one process's WAL spans (idx lists that process's spans in
// start order) to the handler or decision-log span that made the call.
// wal.Log carries no context, so the link is inferred: the caller is a span
// that encloses the WAL span in time. Usually one does. When several
// handlers run at once, an Append goes to the one working on the Append's
// transaction, and a Sync — which names no transaction — to the one that
// appended last: a handler syncs right after its own appends.
func linkWAL(spans []span, idx []int) {
	var open []int                      // enclosing candidates still running
	lastAppend := make(map[int64]int64) // candidate span ID -> end of its latest append
	for _, i := range idx {
		s := &spans[i]
		switch s.Name {
		case spanHandle, spanBegin, spanDecide:
			open = append(open, i)
			continue
		case spanAppend, spanSync:
		default:
			continue
		}
		live := open[:0]
		var encl []int
		for _, c := range open {
			if spans[c].End < s.Start {
				continue // finished: never a candidate again, spans come in start order
			}
			live = append(live, c)
			if spans[c].End >= s.End {
				encl = append(encl, c)
			}
		}
		open = live
		pick := -1
		for _, c := range encl {
			if s.Txn != "" && spans[c].Txn == s.Txn {
				pick = c
				break
			}
			if pick == -1 || lastAppend[spans[c].ID] > lastAppend[spans[pick].ID] {
				pick = c
			}
		}
		if pick == -1 {
			continue
		}
		s.Parent = spans[pick].ID
		if s.Name == spanAppend {
			lastAppend[s.Parent] = s.End
		}
	}
}

// covered returns how much of [start, end) the intervals cover, counting
// overlaps once.
func covered(start, end int64, intervals [][2]int64) int64 {
	sort.Slice(intervals, func(a, b int) bool { return intervals[a][0] < intervals[b][0] })
	var total int64
	at := start
	for _, iv := range intervals {
		lo, hi := max(iv[0], at), min(iv[1], end)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// its child spans cover.
func selfTimes(spans []span) map[int64]time.Duration {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - time.Duration(covered(s.Start, s.End, children[s.ID]))
	}
	return out
}
