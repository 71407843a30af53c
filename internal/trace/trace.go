// Package trace is a structured, deterministic tracing layer for the
// commit protocols in this repository. Every protocol step — vote
// requests, YES/NO votes, local commits and lock releases, decisions,
// WAL appends and syncs, compensation runs, recovery inquiries — is
// recorded as an Event timestamped from sim.Clock virtual time.
//
// Under the deterministic virtual clock a given seed and fault schedule
// produce a byte-identical event stream, so traces are golden-testable:
// the JSONL export of a run is a stable artifact. The same events also
// export as Chrome trace-event JSON loadable in Perfetto or
// chrome://tracing for a visual per-transaction timeline.
//
// Events land in a bounded per-node ring buffer; when a node's ring
// overflows, the oldest events are dropped and the drop is counted, so
// a tracer never grows without bound on long runs.
//
// The package is stdlib-only and contains no wall-clock reads or global
// randomness (the o2pcvet walltime and randdet analyzers apply to it
// like to every other internal package).
package trace

import (
	"fmt"
	"sort"
	"sync"

	"o2pc/internal/sim"
)

// EventType classifies a protocol trace event.
type EventType int

// The event vocabulary. Names map onto the paper's protocol messages
// (Levy/Korth/Silberschatz 1991): VoteReq* are VOTE-REQ, VoteYes/VoteNo
// the YES/NO votes, Decision* the DECISION message, Comp* the
// compensating subtransaction CTik, and Resolve* the decision inquiry a
// blocked or recovering participant sends. WAL* mark the stable-storage
// write-ahead points of Theorem 2.
const (
	EvTxnBegin EventType = iota
	EvExecSend
	EvExecRecv
	EvExecDone
	EvVoteReqSend
	EvVoteReqRecv
	EvVoteYes
	EvVoteNo
	EvVoteRecv
	EvPrepared
	EvLocalCommit
	EvLockRelease
	EvDecisionReached
	EvDecisionSend
	EvDecisionRecv
	EvDecisionAck
	EvTxnOutcome
	EvResolveSend
	EvResolveRecv
	EvCompBegin
	EvCompRetry
	EvCompEnd
	EvWALAppend
	EvWALSync
	EvMsgSend
	EvMsgRecv
	EvMsgDrop
	EvCrash
	EvRecover
	EvExposed
	EvRecoverPending
	EvRecoverComp
	EvRecoverMarks
	EvSessionOpen
	EvSessionRound
	EvRepBegin
	EvRepAccept
	EvRepTakeover

	numEventTypes // sentinel; keep last
)

// eventTypeNames is the canonical wire spelling of each EventType. A map
// keyed by the full enum (rather than a switch) keeps the exhaustive
// analyzer trivially satisfied and makes the name set greppable.
var eventTypeNames = [numEventTypes]string{
	EvTxnBegin:        "txn.begin",
	EvExecSend:        "exec.send",
	EvExecRecv:        "exec.recv",
	EvExecDone:        "exec.done",
	EvVoteReqSend:     "votereq.send",
	EvVoteReqRecv:     "votereq.recv",
	EvVoteYes:         "vote.yes",
	EvVoteNo:          "vote.no",
	EvVoteRecv:        "vote.recv",
	EvPrepared:        "prepared",
	EvLocalCommit:     "local.commit",
	EvLockRelease:     "lock.release",
	EvDecisionReached: "decision.reached",
	EvDecisionSend:    "decision.send",
	EvDecisionRecv:    "decision.recv",
	EvDecisionAck:     "decision.ack",
	EvTxnOutcome:      "txn.outcome",
	EvResolveSend:     "resolve.send",
	EvResolveRecv:     "resolve.recv",
	EvCompBegin:       "comp.begin",
	EvCompRetry:       "comp.retry",
	EvCompEnd:         "comp.end",
	EvWALAppend:       "wal.append",
	EvWALSync:         "wal.sync",
	EvMsgSend:         "msg.send",
	EvMsgRecv:         "msg.recv",
	EvMsgDrop:         "msg.drop",
	EvCrash:           "crash",
	EvRecover:         "recover",
	EvExposed:         "exposed",
	EvRecoverPending:  "recover.pending",
	EvRecoverComp:     "recover.comp",
	EvRecoverMarks:    "recover.marks",
	EvSessionOpen:     "session.open",
	EvSessionRound:    "session.round",
	EvRepBegin:        "replog.begin",
	EvRepAccept:       "replog.accept",
	EvRepTakeover:     "replog.takeover",
}

// eventTypeByName is the inverse of eventTypeNames, for JSONL decoding.
var eventTypeByName = func() map[string]EventType {
	m := make(map[string]EventType, len(eventTypeNames))
	for i, n := range eventTypeNames {
		m[n] = EventType(i)
	}
	return m
}()

// String returns the canonical name, or a numeric form for unknown values.
func (t EventType) String() string {
	if t >= 0 && int(t) < len(eventTypeNames) {
		return eventTypeNames[t]
	}
	return fmt.Sprintf("eventtype(%d)", int(t))
}

// TypeByName resolves a canonical event-type name (e.g. "vote.yes").
func TypeByName(name string) (EventType, bool) {
	t, ok := eventTypeByName[name]
	return t, ok
}

// Event is one timestamped protocol step observed at a node.
type Event struct {
	// T is virtual time as nanoseconds since the Unix epoch
	// (clock.Now().UnixNano()); under a VirtualClock two runs with the
	// same seed produce identical values.
	T int64 `json:"t"`
	// Node names where the event was observed ("c0", "s1", "net", ...).
	Node string `json:"node"`
	// Seq is the node-local emission index; (T, Node, Seq) totally
	// orders a trace even when many events share a virtual timestamp.
	Seq uint64 `json:"seq"`
	// Type classifies the event.
	Type EventType `json:"-"`
	// Txn is the global transaction this event belongs to, "" for
	// node-scoped events such as crash/recover.
	Txn string `json:"txn,omitempty"`
	// Peer is the other endpoint for message events, "" otherwise.
	Peer string `json:"peer,omitempty"`
	// Detail carries event-specific context ("commit", "rec=update", ...).
	Detail string `json:"detail,omitempty"`
}

// ring is a fixed-capacity event buffer that drops the oldest entries.
type ring struct {
	buf     []Event
	start   int // index of the oldest event
	n       int // events currently held
	seq     uint64
	dropped uint64
}

func (r *ring) push(e Event) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = e
		r.n++
		return
	}
	r.buf[r.start] = e
	r.start = (r.start + 1) % len(r.buf)
	r.dropped++
}

func (r *ring) events() []Event {
	out := make([]Event, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.start+i)%len(r.buf)])
	}
	return out
}

// DefaultNodeCapacity bounds each node's ring when New is given cap <= 0.
const DefaultNodeCapacity = 8192

// Tracer collects events from every node of a cluster. A nil *Tracer is
// valid and discards everything, so call sites never need a guard.
type Tracer struct {
	clock sim.Clock
	cap   int

	mu    sync.Mutex
	rings map[string]*ring
}

// New returns a Tracer stamping events from clock (sim.Real() if nil)
// with at most perNodeCap events retained per node (DefaultNodeCapacity
// if <= 0).
func New(clock sim.Clock, perNodeCap int) *Tracer {
	if perNodeCap <= 0 {
		perNodeCap = DefaultNodeCapacity
	}
	return &Tracer{clock: sim.OrReal(clock), cap: perNodeCap}
}

// Emit records one event observed at node. It is safe on a nil Tracer.
// The virtual-clock read happens before the tracer lock is taken so the
// tracer never blocks on virtual time while holding its mutex.
func (tr *Tracer) Emit(node string, typ EventType, txn, peer, detail string) {
	if tr == nil {
		return
	}
	now := tr.clock.Now().UnixNano()
	tr.mu.Lock()
	if tr.rings == nil {
		tr.rings = make(map[string]*ring)
	}
	r, ok := tr.rings[node]
	if !ok {
		r = &ring{buf: make([]Event, tr.cap)}
		tr.rings[node] = r
	}
	r.seq++
	r.push(Event{T: now, Node: node, Seq: r.seq, Type: typ, Txn: txn, Peer: peer, Detail: detail})
	tr.mu.Unlock()
}

// Events returns every retained event merged across nodes, ordered by
// (T, Node, Seq). The result is a copy; the tracer keeps collecting.
func (tr *Tracer) Events() []Event {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	var out []Event
	for _, r := range tr.rings {
		out = append(out, r.events()...)
	}
	tr.mu.Unlock()
	SortEvents(out)
	return out
}

// Drain atomically returns every retained event (ordered like Events)
// and empties the rings. Per-node sequence numbers and drop counts carry
// on, so interleaved Emit calls are never double-reported or lost: an
// event is returned by exactly one Drain (or a final Events call). The
// ops server's /trace/recent?drain=1 live tail is built on this.
func (tr *Tracer) Drain() []Event {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	var out []Event
	for _, r := range tr.rings {
		out = append(out, r.events()...)
		r.start = 0
		r.n = 0
	}
	tr.mu.Unlock()
	SortEvents(out)
	return out
}

// Dropped reports, per node, how many events the ring discarded.
func (tr *Tracer) Dropped() map[string]uint64 {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make(map[string]uint64)
	for node, r := range tr.rings {
		if r.dropped > 0 {
			out[node] = r.dropped
		}
	}
	return out
}

// SortEvents orders events by (T, Node, Seq) — the canonical trace order.
func SortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
}

// Nodes returns the sorted set of node names appearing in events.
func Nodes(events []Event) []string {
	seen := make(map[string]bool)
	var out []string
	for _, e := range events {
		if !seen[e.Node] {
			seen[e.Node] = true
			out = append(out, e.Node)
		}
	}
	sort.Strings(out)
	return out
}

// Txns returns the sorted set of non-empty transaction ids in events.
func Txns(events []Event) []string {
	seen := make(map[string]bool)
	var out []string
	for _, e := range events {
		if e.Txn != "" && !seen[e.Txn] {
			seen[e.Txn] = true
			out = append(out, e.Txn)
		}
	}
	sort.Strings(out)
	return out
}
