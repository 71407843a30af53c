// Package wal implements a write-ahead log with undo/redo recovery for the
// per-site transaction managers.
//
// The log is the substrate behind "standard roll-back recovery" in the
// paper's terminology: a site that votes NO on a global transaction undoes
// the local subtransaction from the log (Section 3.2 models this roll-back
// as a degenerate compensating subtransaction). The log also persists the
// participant's 2PC state transitions (PREPARED, COMMIT, ABORT decisions) so
// that in-doubt transactions survive a site crash in the baseline protocol.
//
// Records are encoded in a simple length-prefixed binary format built on
// encoding/binary; both an in-memory log (for simulations) and a file-backed
// log (for the multi-process deployment) are provided.
package wal

import (
	"errors"
	"fmt"
	"sync"

	"o2pc/internal/storage"
)

// RecordType enumerates log record kinds.
type RecordType uint8

const (
	// RecBegin marks the start of a transaction.
	RecBegin RecordType = iota + 1
	// RecUpdate carries a before-image and an after-image of one key.
	RecUpdate
	// RecCommit marks a locally committed transaction.
	RecCommit
	// RecAbort marks an aborted (and already undone) transaction.
	RecAbort
	// RecPrepared marks a participant's YES vote in a commit protocol.
	RecPrepared
	// RecDecision records the coordinator's final decision as observed by
	// the participant ("commit" or "abort" payload in Aux).
	RecDecision
	// RecCompBegin marks the start of a compensating transaction for the
	// forward transaction named in TxnID.
	RecCompBegin
	// RecCompEnd marks the completion of a compensating transaction.
	RecCompEnd
	// RecCheckpoint carries a serialized snapshot boundary marker.
	RecCheckpoint
	// RecExposed marks an O2PC subtransaction that locally committed and
	// released its locks before the global decision (the paper's "exposure"
	// point). Aux carries the compensation context the restarted site needs
	// to resume the decision inquiry and, on ABORT, run the compensating
	// subtransaction: the coordinator name and the original request
	// (operations, compensation mode, marking protocol). Per Theorem 2 the
	// record must be durable before the locks are released.
	RecExposed
	// RecMark records the addition of a transaction to a marking set
	// (MarkSetUndone or MarkSetLC in Aux). Written write-ahead of the
	// in-memory mutation so the sitemarks.k sets survive a site crash.
	RecMark
	// RecUnmark records the removal of a transaction from a marking set.
	RecUnmark
	// RecTerm records a decision-log replica's promised term for one
	// coordinator group (Aux "group|term"). A replica nacks every ballot
	// below its promised term, so the record must be durable before the
	// promise is answered.
	RecTerm
	// RecAccept records a decision value accepted by a decision-log replica
	// at a ballot (Aux "group|decision|term|sites|marking" for the
	// transaction in TxnID). Durable before the accept is acked: a majority
	// of these records IS the replicated decision.
	RecAccept
	// RecEnd marks a transaction as forgotten: at a coordinator, every
	// participant has acknowledged the decision, so recovery neither
	// presumes abort for it nor re-delivers its decision; at a decision-log
	// replica (Aux the group), the leader told it to drop the instance. A
	// checkpoint drops the transaction's records. Unforced: a lost END only
	// costs one idempotent re-delivery, or one instance kept, after a
	// restart.
	RecEnd
)

// Marking-set labels carried in the Aux field of RecMark/RecUnmark records.
// They name the paper's two per-site sets: the undone marks of marking
// protocols P1/P2/Simple, and the locally-committed-undecided (lc) marks of
// P2/Simple.
const (
	MarkSetUndone = "undone"
	MarkSetLC     = "lc"
)

// DecisionAux spells a commit decision as the Aux of a RecDecision record
// ("commit" or "abort"), the decision field of a replica's RecAccept, and
// the decision detail of trace events.
func DecisionAux(commit bool) string {
	if commit {
		return "commit"
	}
	return "abort"
}

// ParseDecision inverts DecisionAux; ok is false for any other spelling.
func ParseDecision(aux string) (commit, ok bool) {
	switch aux {
	case "commit":
		return true, true
	case "abort":
		return false, true
	}
	return false, false
}

// String returns the record type mnemonic.
func (t RecordType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecUpdate:
		return "UPDATE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecPrepared:
		return "PREPARED"
	case RecDecision:
		return "DECISION"
	case RecCompBegin:
		return "COMP-BEGIN"
	case RecCompEnd:
		return "COMP-END"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecExposed:
		return "EXPOSED"
	case RecMark:
		return "MARK"
	case RecUnmark:
		return "UNMARK"
	case RecTerm:
		return "TERM"
	case RecAccept:
		return "ACCEPT"
	case RecEnd:
		return "END"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// Image captures the state of one key at a point in time, including whether
// the key existed at all (Existed=false means "absent before this write").
type Image struct {
	Key     storage.Key
	Value   storage.Value
	Deleted bool
	Existed bool
	// Writer is the transaction that installed this version; undo uses it
	// to preserve reads-from attribution when restoring before-images.
	Writer string
}

// ImageOf converts a storage lookup result into an Image.
func ImageOf(rec storage.Record, existed bool) Image {
	return Image{
		Key:     rec.Key,
		Value:   append(storage.Value(nil), rec.Value...),
		Deleted: rec.Deleted,
		Existed: existed,
		Writer:  rec.Writer,
	}
}

// Record is a single WAL entry.
type Record struct {
	LSN    uint64
	Type   RecordType
	TxnID  string
	Before Image  // valid for RecUpdate
	After  Image  // valid for RecUpdate
	Aux    string // free-form payload (decision outcome, checkpoint tag, ...)
}

// Log is the append-only record sink.
type Log interface {
	// Append writes rec (assigning its LSN) and returns the assigned LSN.
	Append(rec Record) (uint64, error)
	// Records returns a copy of all records in LSN order.
	Records() ([]Record, error)
	// Sync flushes buffered records to stable storage (no-op in memory).
	Sync() error
	// Synced returns the LSN through which the log is on stable storage:
	// those records survive a crash of the machine, not only of the
	// process. Records become durable at a Sync or a Checkpoint.
	Synced() uint64
	// Close releases resources held by the log.
	Close() error
	// Checkpoint atomically replaces every record with a checkpoint of
	// store (see CarryRecords for what the checkpoint keeps), and returns
	// the LSNs of the checkpoint's first and last records. No append
	// interleaves with it, and the checkpoint is durable when it returns.
	Checkpoint(store *storage.Store) (begin, end uint64, err error)
}

// memSegmentSize is the record capacity of one MemoryLog segment. Segments
// keep Append at a bounded allocation cost: a flat []Record doubles its
// backing array as the log grows, and on a long run the allocator spends
// more time zeroing and copying multi-megabyte slabs (and the GC rescanning
// them) than the rest of the commit path combined. With fixed-size segments
// nothing is ever copied and no allocation exceeds one segment.
const memSegmentSize = 1024

// MemoryLog is an in-memory Log used by simulations and tests.
type MemoryLog struct {
	mu      sync.Mutex
	segs    [][]Record // all but the last are exactly memSegmentSize long
	count   int
	nextLSN uint64
	closed  bool
}

// NewMemoryLog returns an empty in-memory log.
func NewMemoryLog() *MemoryLog { return &MemoryLog{nextLSN: 1} }

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Append implements Log.
func (l *MemoryLog) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	rec.LSN = l.nextLSN
	l.nextLSN++
	l.push(rec)
	return rec.LSN, nil
}

// push stores rec, LSN assigned, at the end of the log. Callers hold mu.
func (l *MemoryLog) push(rec Record) {
	if n := len(l.segs); n == 0 || len(l.segs[n-1]) == memSegmentSize {
		l.segs = append(l.segs, make([]Record, 0, memSegmentSize))
	}
	last := len(l.segs) - 1
	l.segs[last] = append(l.segs[last], rec)
	l.count++
}

// Records implements Log.
func (l *MemoryLog) Records() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	return l.records(), nil
}

// records returns a copy of the log. Callers hold mu.
func (l *MemoryLog) records() []Record {
	out := make([]Record, 0, l.count)
	for _, seg := range l.segs {
		out = append(out, seg...)
	}
	return out
}

// Checkpoint implements Log: the checkpoint replaces the log's segments.
func (l *MemoryLog) Checkpoint(store *storage.Store) (begin, end uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, 0, ErrClosed
	}
	ckpt := bracket(l.records(), store, l.nextLSN)
	l.segs, l.count = nil, 0
	for _, rec := range ckpt {
		l.push(rec)
	}
	l.nextLSN += uint64(len(ckpt))
	return ckpt[0].LSN, ckpt[len(ckpt)-1].LSN, nil
}

// Sync implements Log (a no-op for memory logs).
func (l *MemoryLog) Sync() error { return nil }

// Synced implements Log: a memory log is the simulations' stable storage,
// so every appended record is durable.
func (l *MemoryLog) Synced() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Close implements Log.
func (l *MemoryLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

// Len returns the number of records currently in the log.
func (l *MemoryLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// TxnStatus summarizes one transaction's fate as recorded in a log.
type TxnStatus uint8

const (
	// StatusActive means the transaction began but has no terminal record.
	StatusActive TxnStatus = iota
	// StatusPrepared means the participant voted YES and awaits a decision.
	StatusPrepared
	// StatusCommitted means a COMMIT record exists.
	StatusCommitted
	// StatusAborted means an ABORT record exists.
	StatusAborted
	// StatusEnded means an END record exists: the transaction is decided,
	// delivered and forgotten.
	StatusEnded
)

// String returns the status mnemonic.
func (s TxnStatus) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusPrepared:
		return "prepared"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	case StatusEnded:
		return "ended"
	default:
		return fmt.Sprintf("TxnStatus(%d)", uint8(s))
	}
}

// Analysis is the result of scanning a log.
type Analysis struct {
	// Status maps transaction ID to its last observed status.
	Status map[string]TxnStatus
	// Updates maps transaction ID to its update records in log order.
	Updates map[string][]Record
	// Decisions maps transaction ID to the recorded coordinator outcome
	// (true for commit), if a RecDecision record exists.
	Decisions map[string]bool
	// Exposed maps transaction ID to the Aux payload of its RecExposed
	// record: the subtransaction locally committed and released its locks
	// before the global decision. Whether it is still undecided is read off
	// Decisions.
	Exposed map[string]string
	// Marks replays RecMark/RecUnmark in log order per marking set: for
	// each set label (MarkSetUndone, MarkSetLC) the transactions currently
	// marked.
	Marks map[string]map[string]bool
	// CompForward maps a compensating transaction's ID to the forward
	// transaction it compensates (the Aux of its RecCompBegin record).
	CompForward map[string]string
}

// CompensationComplete reports whether a compensating transaction for
// forward ran to completion in this analysis (COMP-BEGIN naming forward,
// with the compensating transaction's own status committed via COMP-END).
func (a Analysis) CompensationComplete(forward string) bool {
	for ct, f := range a.CompForward {
		if f == forward && a.Status[ct] == StatusCommitted {
			return true
		}
	}
	return false
}

// Analyze scans all records and classifies every transaction that appears.
func Analyze(records []Record) Analysis {
	a := Analysis{
		Status:      make(map[string]TxnStatus),
		Updates:     make(map[string][]Record),
		Decisions:   make(map[string]bool),
		Exposed:     make(map[string]string),
		Marks:       make(map[string]map[string]bool),
		CompForward: make(map[string]string),
	}
	for i := range records {
		rec := &records[i]
		switch rec.Type {
		case RecBegin:
			a.Status[rec.TxnID] = StatusActive
		case RecCompBegin:
			a.Status[rec.TxnID] = StatusActive
			if rec.Aux != "" {
				a.CompForward[rec.TxnID] = rec.Aux
			}
		case RecUpdate:
			a.Updates[rec.TxnID] = append(a.Updates[rec.TxnID], *rec)
			if _, ok := a.Status[rec.TxnID]; !ok {
				a.Status[rec.TxnID] = StatusActive
			}
		case RecPrepared:
			a.Status[rec.TxnID] = StatusPrepared
		case RecCommit, RecCompEnd:
			a.Status[rec.TxnID] = StatusCommitted
		case RecAbort:
			a.Status[rec.TxnID] = StatusAborted
		case RecDecision:
			if commit, ok := ParseDecision(rec.Aux); ok {
				a.Decisions[rec.TxnID] = commit
			}
			if a.Status[rec.TxnID] == StatusEnded {
				// A coordinator decided an ended transaction again; it is
				// live until the next END.
				a.Status[rec.TxnID] = StatusActive
			}
		case RecAccept:
			// A replica's instance is live from its (latest) accept until
			// an END.
			a.Status[rec.TxnID] = StatusActive
		case RecExposed:
			a.Exposed[rec.TxnID] = rec.Aux
		case RecMark:
			set := a.Marks[rec.Aux]
			if set == nil {
				set = make(map[string]bool)
				a.Marks[rec.Aux] = set
			}
			set[rec.TxnID] = true
		case RecUnmark:
			delete(a.Marks[rec.Aux], rec.TxnID)
		case RecCheckpoint:
			// Checkpoint brackets carry no transaction state; Recover
			// consumes them via lastCheckpoint before analysis.
		case RecEnd:
			a.Status[rec.TxnID] = StatusEnded
		case RecTerm:
			// A replica's promise belongs to a group, not a transaction.
		}
	}
	return a
}

// ApplyUndo reverts txn's updates against store by re-installing before
// images in reverse log order. If undoneBy is non-empty the restored
// versions are attributed to that writer (conventionally "CT<txn>", per the
// paper's modeling of roll-back as a compensating transaction, so that
// later readers read-from the compensation); if undoneBy is empty each
// before-image's original writer is preserved (aborted local transactions
// simply vanish from the committed projection).
func ApplyUndo(store *storage.Store, updates []Record, undoneBy string) {
	for i := len(updates) - 1; i >= 0; i-- {
		img := updates[i].Before
		if !img.Existed {
			store.Remove(img.Key)
			continue
		}
		writer := undoneBy
		if writer == "" {
			writer = img.Writer
		}
		store.Restore(storage.Record{Key: img.Key, Value: img.Value, Deleted: img.Deleted}, writer)
	}
}

// ApplyRedo re-applies txn's updates against store in log order, installing
// after-images. Used when rebuilding a store from the log after a crash.
func ApplyRedo(store *storage.Store, updates []Record, txnID string) {
	for _, rec := range updates {
		img := rec.After
		if img.Deleted {
			store.Delete(img.Key, txnID)
			continue
		}
		store.Put(img.Key, img.Value, txnID)
	}
}

// RecoverResult reports the outcome of crash recovery.
type RecoverResult struct {
	Redone  []string // committed transactions whose effects were re-applied
	Undone  []string // active transactions rolled back
	InDoubt []string // prepared transactions awaiting a coordinator decision
}

// Recover rebuilds store from the log: effects of committed transactions are
// redone in log order, loser (active) transactions are undone, and prepared
// transactions with a recorded decision are resolved accordingly. Prepared
// transactions without a decision are left applied and reported as in-doubt;
// the caller (the participant's recovery handler) must hold their locks and
// re-contact the coordinator — this is precisely the blocking window the
// O2PC protocol removes.
//
// When the log contains a complete checkpoint (Log.Checkpoint), recovery
// starts from the last one: its images load directly, carried protocol
// records inside the bracket (exposed-but-undecided subtransactions, marks,
// in-doubt preparations — see CarryRecords) replay first, and then the tail.
func Recover(store *storage.Store, log Log) (RecoverResult, error) {
	records, err := log.Records()
	if err != nil {
		return RecoverResult{}, err
	}
	images, carried, tail := splitCheckpoint(records)
	for _, rec := range images {
		store.Restore(storage.Record{
			Key:   rec.After.Key,
			Value: rec.After.Value,
		}, rec.After.Writer)
	}
	return recoverRecords(store, append(withoutCommittedUpdates(carried), tail...))
}

// withoutCommittedUpdates drops from carried the UPDATE records of
// transactions whose COMMIT is carried too: exposed subtransactions the
// checkpoint still had to track. The checkpoint's images already hold
// their effects, and because an exposed subtransaction released its locks
// at that commit, a later writer of the same keys may have committed
// before the checkpoint as well; redoing the carried after-images would
// put them back over that later write. The records stay in the log for
// site recovery (Replay), which compensates from their before-images.
func withoutCommittedUpdates(carried []Record) []Record {
	committed := make(map[string]bool)
	for _, rec := range carried {
		if rec.Type == RecCommit {
			committed[rec.TxnID] = true
		}
	}
	out := carried[:0]
	for _, rec := range carried {
		if rec.Type != RecUpdate || !committed[rec.TxnID] {
			out = append(out, rec)
		}
	}
	return out
}

// Replay returns the records recovery analysis runs over: the protocol
// records carried inside the last complete checkpoint bracket plus the tail
// after it, or the whole log when no checkpoint exists. Site-level recovery
// uses this view to rebuild its pending tables and marking sets.
func Replay(records []Record) []Record {
	_, carried, tail := splitCheckpoint(records)
	return append(carried, tail...)
}

// recoverRecords runs redo/undo resolution over an already-loaded record
// slice (everything after the last checkpoint, or the whole log).
func recoverRecords(store *storage.Store, records []Record) (RecoverResult, error) {
	a := Analyze(records)
	var res RecoverResult

	// Redo phase: replay every update in log order; committed and prepared
	// transactions keep their effects, losers are undone afterwards.
	// Image records inside an incomplete checkpoint bracket restate live
	// values — redo would be harmless but the loser-undo below would remove
	// the keys, so skip them entirely.
	//
	// An ABORT record is appended only after the live roll-back restored
	// the before-images and while the transaction's locks were still held,
	// so its undo belongs at the record's log position — replaying it here
	// (with the logged attribution) keeps it ordered before any later
	// writer that locked the same keys after the live release. Undoing such
	// a transaction at the end instead would re-install its stale
	// before-images on top of later committed writes.
	for _, rec := range records {
		switch {
		case rec.Type == RecUpdate && rec.TxnID != ckptTxnID:
			ApplyRedo(store, []Record{rec}, rec.TxnID)
		case rec.Type == RecAbort:
			ApplyUndo(store, a.Updates[rec.TxnID], rec.Aux)
		}
	}

	// Resolve each transaction.
	for txn, st := range a.Status {
		if txn == ckptTxnID {
			continue
		}
		switch st {
		case StatusCommitted:
			res.Redone = append(res.Redone, txn)
		case StatusActive:
			ApplyUndo(store, a.Updates[txn], "recovery:"+txn)
			res.Undone = append(res.Undone, txn)
		case StatusPrepared:
			commit, decided := a.Decisions[txn]
			switch {
			case !decided:
				res.InDoubt = append(res.InDoubt, txn)
			case commit:
				res.Redone = append(res.Redone, txn)
			default:
				ApplyUndo(store, a.Updates[txn], "recovery:"+txn)
				res.Undone = append(res.Undone, txn)
			}
		case StatusAborted:
			// The log-order pass above already replayed the undo at the
			// ABORT record's position; re-undoing here would clobber later
			// committed writes to the same keys.
			res.Undone = append(res.Undone, txn)
		case StatusEnded:
			// Only a coordinator's log holds END records, and it holds no
			// updates.
		}
	}
	return res, nil
}
