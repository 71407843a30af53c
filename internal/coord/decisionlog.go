package coord

// The decision-durability seam. The coordinator's protocol logic never
// touches a wal.Log directly: every durable step of a global transaction's
// fate — the BEGIN intent, the decision, recovery's presumed aborts —
// goes through a DecisionLog. Two implementations exist:
//
//   - LocalLog (here): the classic single-coordinator decision log, a thin
//     veneer over one wal.Log. Byte-for-byte the pre-seam behavior: same
//     records, same append/sync sequence, same trace events.
//   - replog.Leader: Paxos Commit (Gray & Lamport, PAPERS.md) — the record
//     is chosen by a majority of decision-log replicas before Decide
//     returns, so no single coordinator crash blocks a YES-voting
//     participant once a majority of replicas is up.
//
// The contract that makes the seam safe: Decide and PresumeAbort return
// the decision that actually TOOK EFFECT, which may differ from the one
// proposed. A local log resolves races by first-writer-wins under its own
// mutex; the replicated log resolves them by consensus. Either way the
// coordinator adopts the returned value, so two racing writers (an
// in-flight run vs a recovery pass) can never announce divergent outcomes.

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"o2pc/internal/proto"
	"o2pc/internal/wal"
)

// BeginRecord is one begun transaction recovered from a decision log.
type BeginRecord struct {
	TxnID string
	// Sites is the participant list recorded at BEGIN (the presumed-abort
	// delivery set).
	Sites []string
	// Marking is the marking-protocol mnemonic recorded at BEGIN ("" for
	// records predating marking).
	Marking string
}

// DecisionLog stores global-transaction fates durably. Implementations
// must be safe for concurrent use and must not be called with internal
// coordinator locks held: a replicated implementation performs network
// rounds inside these methods.
type DecisionLog interface {
	// Begin durably records the transaction's intent (participants and
	// marking protocol) before any subtransaction ships — the write-ahead
	// point recovery's presumed abort depends on.
	Begin(ctx context.Context, id string, sites []string, marking proto.MarkProtocol) error
	// Decide durably records the decision and returns the decision that
	// took effect: a prior decision for the same transaction (a recovery
	// race, or consensus choosing an earlier proposal) wins over the
	// proposed one.
	Decide(ctx context.Context, id string, commit bool) (bool, error)
	// PresumeAbort records abort for a transaction recovery found begun
	// but undecided. Like Decide it returns the effective decision — if a
	// racing run decided commit first, commit is returned. Durability may
	// be deferred to the next Sync (the local log batches recovery's
	// presumed aborts under one sync).
	PresumeAbort(ctx context.Context, id string) (bool, error)
	// Snapshot returns every begun transaction and every decision in the
	// log. The replicated implementation performs leader takeover here:
	// it claims a fresh term, reads a majority of replicas, and finishes
	// any decision that was majority-acked but possibly undelivered.
	Snapshot(ctx context.Context) ([]BeginRecord, map[string]bool, error)
	// Sync flushes deferred durability and reports writability. The
	// replicated implementation reports leadership: a deposed leader's
	// Sync fails, which is what wires /readyz to leader status.
	Sync(ctx context.Context) error
	// Close releases implementation resources. It does not close an
	// underlying wal.Log the implementation does not own.
	Close() error
}

// LocalLog is the single-coordinator DecisionLog over one wal.Log.
type LocalLog struct {
	name string
	wal  wal.Log

	mu        sync.Mutex
	decisions map[string]bool
}

// NewLocalLog wraps log as a DecisionLog for the named coordinator. The
// log is used as given — callers wanting WAL trace events pass a
// trace.WrapLog-decorated log. Ownership of log stays with the caller.
func NewLocalLog(name string, log wal.Log) *LocalLog {
	return &LocalLog{name: name, wal: log, decisions: make(map[string]bool)}
}

// Begin appends the BEGIN record ("sites|marking" Aux). Durability is
// deferred to the decision's sync, exactly as before the seam: losing a
// BEGIN to a crash costs nothing (no decision record implies abort).
func (l *LocalLog) Begin(ctx context.Context, id string, sites []string, marking proto.MarkProtocol) error {
	_, err := l.wal.Append(wal.Record{
		Type:  wal.RecBegin,
		TxnID: id,
		Aux:   strings.Join(sites, ",") + "|" + marking.String(),
	})
	return err
}

// Decide appends and syncs the decision record. First writer wins: a
// decision already recorded for id is returned unchanged, with no second
// append — the interlock that keeps a racing run and recovery pass from
// logging contradictory records.
func (l *LocalLog) Decide(ctx context.Context, id string, commit bool) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if prior, ok := l.decisions[id]; ok {
		return prior, nil
	}
	_, err := l.wal.Append(wal.Record{Type: wal.RecDecision, TxnID: id, Aux: wal.DecisionAux(commit)})
	if err == nil {
		err = l.wal.Sync()
	}
	if err != nil {
		return false, err
	}
	l.decisions[id] = commit
	return commit, nil
}

// PresumeAbort appends an abort decision without syncing (recovery batches
// its presumed aborts under the final Sync). First writer wins, as in
// Decide.
func (l *LocalLog) PresumeAbort(ctx context.Context, id string) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if prior, ok := l.decisions[id]; ok {
		return prior, nil
	}
	if _, err := l.wal.Append(wal.Record{Type: wal.RecDecision, TxnID: id, Aux: wal.DecisionAux(false)}); err != nil {
		return false, err
	}
	l.decisions[id] = false
	return false, nil
}

// Snapshot reads the whole log back. Only BEGIN and DECISION records are
// legal in a coordinator log; anything else means this is a site's log or
// a corrupt one, and recovering from it would presume-abort transactions
// that were never ours.
func (l *LocalLog) Snapshot(ctx context.Context) ([]BeginRecord, map[string]bool, error) {
	records, err := l.wal.Records()
	if err != nil {
		return nil, nil, err
	}
	var begun []BeginRecord
	decisions := make(map[string]bool)
	for _, rec := range records {
		switch rec.Type {
		case wal.RecBegin:
			sites, marking := splitBeginAux(rec.Aux)
			begun = append(begun, BeginRecord{TxnID: rec.TxnID, Sites: sites, Marking: marking})
		case wal.RecDecision:
			decisions[rec.TxnID], _ = wal.ParseDecision(rec.Aux) // anything else reads as abort
		default:
			return nil, nil, fmt.Errorf("coord %s: unexpected %v record (LSN %d) in coordinator log",
				l.name, rec.Type, rec.LSN)
		}
	}
	// Seed the first-writer-wins map so post-recovery Decide calls for
	// already-logged transactions adopt rather than duplicate.
	l.mu.Lock()
	for id, commit := range decisions {
		if _, ok := l.decisions[id]; !ok {
			l.decisions[id] = commit
		}
	}
	l.mu.Unlock()
	return begun, decisions, nil
}

// Sync flushes the underlying log.
func (l *LocalLog) Sync(ctx context.Context) error { return l.wal.Sync() }

// Close is a no-op: the wal.Log belongs to whoever constructed it.
func (l *LocalLog) Close() error { return nil }

var _ DecisionLog = (*LocalLog)(nil)
