// Package history records executions for offline verification.
//
// The serialization-graph theory of the paper's Section 5 is stated over
// complete histories: per-site sequences of read/write operations tagged
// with the transaction that issued them, together with each transaction's
// classification (regular global transaction Ti, compensating transaction
// CTi, or local transaction Li) and fate. The Recorder captures exactly
// that evidence from live executions; package sg consumes it to build local
// and global serialization graphs, detect regular cycles, check the
// stratification properties, and check atomicity of compensation
// (Theorem 2) via reads-from tracking.
package history

import (
	"fmt"
	"sort"
	"sync"

	"o2pc/internal/storage"
)

// Kind classifies a transaction node in the serialization graph.
type Kind uint8

const (
	// KindGlobal is a regular global transaction (a Ti in the paper).
	KindGlobal Kind = iota + 1
	// KindCompensating is a compensating transaction (a CTi). Standard
	// roll-backs at sites that voted NO are also recorded with this kind,
	// per the paper's Section 3.2 modeling.
	KindCompensating
	// KindLocal is an independent local transaction (an Li).
	KindLocal
)

// String returns the kind mnemonic.
func (k Kind) String() string {
	switch k {
	case KindGlobal:
		return "T"
	case KindCompensating:
		return "CT"
	case KindLocal:
		return "L"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// OpType is the operation type.
type OpType uint8

const (
	// OpRead is a read of one key.
	OpRead OpType = iota + 1
	// OpWrite is a write (including delete) of one key.
	OpWrite
)

// String returns "r" or "w".
func (t OpType) String() string {
	if t == OpRead {
		return "r"
	}
	return "w"
}

// Op is one recorded operation.
type Op struct {
	Site string      // site identifier
	Txn  string      // transaction node ID (e.g. "T1", "CT1", "L5")
	Type OpType      // read or write
	Key  storage.Key // data item
	Seq  uint64      // per-site total order position
	// ReadFrom is, for reads, the transaction node that wrote the version
	// observed ("" if the initial database state was read). It drives the
	// atomicity-of-compensation check.
	ReadFrom string
}

// Fate is a transaction's terminal status in the recorded history.
type Fate uint8

const (
	// FateUnknown means no terminal event was recorded.
	FateUnknown Fate = iota
	// FateCommitted means the transaction (globally) committed.
	FateCommitted
	// FateAborted means the transaction was (globally) aborted; for global
	// transactions under O2PC this implies compensation ran.
	FateAborted
)

// String returns the fate mnemonic.
func (f Fate) String() string {
	switch f {
	case FateCommitted:
		return "committed"
	case FateAborted:
		return "aborted"
	default:
		return "unknown"
	}
}

// TxnInfo is the recorded metadata of one transaction node.
type TxnInfo struct {
	ID      string
	Kind    Kind
	Fate    Fate
	Forward string // for compensating transactions: the forward txn ID
}

// Recorder accumulates a history. It is safe for concurrent use and is
// designed to be cheap enough to leave enabled during benchmarks (a mutex
// and two appends per operation).
type Recorder struct {
	mu   sync.Mutex
	ops  []Op
	seq  map[string]uint64 // per-site sequence counters
	txns map[string]*TxnInfo
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		seq:  make(map[string]uint64),
		txns: make(map[string]*TxnInfo),
	}
}

// Declare registers (or updates) a transaction node's classification.
// Declaring an existing node updates its kind/forward link but preserves an
// already-recorded fate.
func (r *Recorder) Declare(id string, kind Kind, forward string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	info, ok := r.txns[id]
	if !ok {
		info = &TxnInfo{ID: id}
		r.txns[id] = info
	}
	info.Kind = kind
	info.Forward = forward
}

// SetFate records the terminal status of a transaction node.
func (r *Recorder) SetFate(id string, fate Fate) {
	r.mu.Lock()
	defer r.mu.Unlock()
	info, ok := r.txns[id]
	if !ok {
		info = &TxnInfo{ID: id}
		r.txns[id] = info
	}
	info.Fate = fate
}

// Record appends one operation. The per-site sequence number is assigned
// here, so callers must invoke Record in the site's real execution order
// (in this repository that order is enforced by the site's lock manager:
// conflicting operations are serialized by locks before they reach the
// recorder).
func (r *Recorder) Record(site, txn string, typ OpType, key storage.Key, readFrom string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq[site]++
	r.ops = append(r.ops, Op{
		Site:     site,
		Txn:      txn,
		Type:     typ,
		Key:      key,
		Seq:      r.seq[site],
		ReadFrom: readFrom,
	})
	if _, ok := r.txns[txn]; !ok {
		// Unclassified nodes default to local; Declare can upgrade later.
		r.txns[txn] = &TxnInfo{ID: txn, Kind: KindLocal}
	}
}

// VoidSiteOps removes every operation txn recorded at site. It supports
// the committed-projection treatment of subtransactions rolled back before
// any vote: such a roll-back happens atomically under the subtransaction's
// own locks — no other transaction observed anything — so the equivalent
// history is the one where the subtransaction never ran. (Roll-backs after
// a vote are different: they are modeled as compensating subtransactions
// and stay, per Section 3.2.)
func (r *Recorder) VoidSiteOps(site, txn string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := r.ops[:0]
	for _, op := range r.ops {
		if op.Site == site && op.Txn == txn {
			continue
		}
		kept = append(kept, op)
	}
	r.ops = kept
}

// History is an immutable snapshot of a recorded execution.
type History struct {
	Ops  []Op
	Txns map[string]TxnInfo
}

// Snapshot returns a copy of everything recorded so far.
func (r *Recorder) Snapshot() *History {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := &History{
		Ops:  make([]Op, len(r.ops)),
		Txns: make(map[string]TxnInfo, len(r.txns)),
	}
	copy(h.Ops, r.ops)
	for id, info := range r.txns {
		h.Txns[id] = *info
	}
	return h
}

// Sites returns the sorted list of sites appearing in the history.
func (h *History) Sites() []string {
	set := make(map[string]bool)
	for _, op := range h.Ops {
		set[op.Site] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// OpsAt returns the operations of one site in execution order.
func (h *History) OpsAt(site string) []Op {
	var out []Op
	for _, op := range h.Ops {
		if op.Site == site {
			out = append(out, op)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// KindOf returns the recorded kind of a transaction node (KindLocal for
// unknown nodes).
func (h *History) KindOf(txn string) Kind {
	if info, ok := h.Txns[txn]; ok {
		return info.Kind
	}
	return KindLocal
}

// FateOf returns the recorded fate of a transaction node.
func (h *History) FateOf(txn string) Fate {
	if info, ok := h.Txns[txn]; ok {
		return info.Fate
	}
	return FateUnknown
}

// CompensationOf returns the ID of the compensating transaction recorded for
// forward transaction txn, or "" if none exists.
func (h *History) CompensationOf(txn string) string {
	for id, info := range h.Txns {
		if info.Kind == KindCompensating && info.Forward == txn {
			return id
		}
	}
	return ""
}

// Conflicts reports whether two operations conflict: same key, same site,
// different transactions, and at least one write.
func Conflicts(a, b Op) bool {
	return a.Site == b.Site &&
		a.Key == b.Key &&
		a.Txn != b.Txn &&
		(a.Type == OpWrite || b.Type == OpWrite)
}
