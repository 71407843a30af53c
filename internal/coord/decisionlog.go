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

	"o2pc/internal/metrics"
	"o2pc/internal/proto"
	"o2pc/internal/sim"
	"o2pc/internal/storage"
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
	// End records that every participant has acknowledged the decision, so
	// the transaction can be forgotten: Snapshot reports it neither begun
	// nor decided, and the implementation drops whatever it kept for it.
	// Unforced — a lost END only costs one idempotent re-delivery after a
	// restart.
	End(ctx context.Context, id string) error
	// Snapshot returns every begun transaction and every decision in the
	// log, leaving out the ended ones. The replicated implementation
	// performs leader takeover here: it claims a fresh term, reads a
	// majority of replicas, and finishes any decision that was
	// majority-acked but possibly undelivered.
	Snapshot(ctx context.Context) ([]BeginRecord, map[string]bool, error)
	// Sync flushes deferred durability and reports writability. The
	// replicated implementation reports leadership: a deposed leader's
	// Sync fails, which is what wires /readyz to leader status.
	Sync(ctx context.Context) error
	// Close releases implementation resources. It does not close an
	// underlying wal.Log the implementation does not own.
	Close() error
}

// LocalLog is the single-coordinator DecisionLog over one wal.Log. It
// checkpoints the log itself, by the sites' rule (wal.CheckpointThreshold):
// the checkpoint keeps the records of the transactions not yet ended, so
// the log holds what recovery needs and not every transaction ever run.
type LocalLog struct {
	name  string
	wal   wal.Log
	clock sim.Clock

	mu        sync.Mutex
	decisions map[string]bool // logged and not yet ended

	// ended collects the IDs End logged since mu last dropped them from
	// decisions (dropEnded). End does not take mu: Decide holds it across
	// its forced write, and an END is on the path of a run.
	endMu sync.Mutex
	ended []string

	ckpt wal.Trigger // when the log is due for a checkpoint

	records     *metrics.Gauge   // records since the log's start
	checkpoints *metrics.Counter // checkpoints taken
}

// NewLocalLog wraps log as a DecisionLog for the named coordinator. The
// log is used as given — callers wanting WAL trace events pass a
// trace.WrapLog-decorated log. Ownership of log stays with the caller.
func NewLocalLog(name string, log wal.Log) *LocalLog {
	return &LocalLog{
		name:        name,
		wal:         log,
		clock:       sim.Real(),
		decisions:   make(map[string]bool),
		records:     &metrics.Gauge{},
		checkpoints: &metrics.Counter{},
	}
}

// Begin appends the BEGIN record ("sites|marking" Aux). Durability is
// deferred to the decision's sync, exactly as before the seam: losing a
// BEGIN to a crash costs nothing (no decision record implies abort).
func (l *LocalLog) Begin(ctx context.Context, id string, sites []string, marking proto.MarkProtocol) error {
	lsn, err := l.wal.Append(wal.Record{
		Type:  wal.RecBegin,
		TxnID: id,
		Aux:   strings.Join(sites, ",") + "|" + marking.String(),
	})
	if err != nil {
		return err
	}
	l.maybeCheckpoint(lsn)
	return nil
}

// Decide appends and syncs the decision record. First writer wins: a
// decision already recorded for id is returned unchanged, with no second
// append — the interlock that keeps a racing run and recovery pass from
// logging contradictory records.
func (l *LocalLog) Decide(ctx context.Context, id string, commit bool) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dropEnded()
	if prior, ok := l.decisions[id]; ok {
		return prior, nil
	}
	lsn, err := l.wal.Append(wal.Record{Type: wal.RecDecision, TxnID: id, Aux: wal.DecisionAux(commit)})
	if err == nil {
		err = l.wal.Sync()
	}
	if err != nil {
		return false, err
	}
	l.decisions[id] = commit
	l.maybeCheckpoint(lsn)
	return commit, nil
}

// PresumeAbort appends an abort decision without syncing (recovery batches
// its presumed aborts under the final Sync). First writer wins, as in
// Decide.
func (l *LocalLog) PresumeAbort(ctx context.Context, id string) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dropEnded()
	if prior, ok := l.decisions[id]; ok {
		return prior, nil
	}
	lsn, err := l.wal.Append(wal.Record{Type: wal.RecDecision, TxnID: id, Aux: wal.DecisionAux(false)})
	if err != nil {
		return false, err
	}
	l.decisions[id] = false
	l.maybeCheckpoint(lsn)
	return false, nil
}

// End appends the END record, unforced, and forgets the decision.
func (l *LocalLog) End(ctx context.Context, id string) error {
	lsn, err := l.wal.Append(wal.Record{Type: wal.RecEnd, TxnID: id})
	if err != nil {
		return err
	}
	l.endMu.Lock()
	l.ended = append(l.ended, id)
	l.endMu.Unlock()
	l.maybeCheckpoint(lsn)
	return nil
}

// dropEnded deletes the decisions End has logged since the last call.
// Callers hold mu. A decision is only ended once no run or recovery can
// decide it again (see Coordinator.decide), so dropping it late changes no
// first-writer-wins answer.
func (l *LocalLog) dropEnded() {
	l.endMu.Lock()
	for _, id := range l.ended {
		delete(l.decisions, id)
	}
	l.ended = l.ended[:0]
	l.endMu.Unlock()
}

// Snapshot reads the whole log back, leaving out ended transactions. Only
// BEGIN, DECISION and END records and checkpoint markers are legal in a
// coordinator log; anything else means this is a site's log or a corrupt
// one, and recovering from it would presume-abort transactions that were
// never ours.
func (l *LocalLog) Snapshot(ctx context.Context) ([]BeginRecord, map[string]bool, error) {
	records, err := l.wal.Records()
	if err != nil {
		return nil, nil, err
	}
	var begun []BeginRecord
	decisions := make(map[string]bool)
	ended := make(map[string]bool)
	for _, rec := range records {
		switch rec.Type {
		case wal.RecBegin:
			sites, marking := splitBeginAux(rec.Aux)
			begun = append(begun, BeginRecord{TxnID: rec.TxnID, Sites: sites, Marking: marking})
			delete(ended, rec.TxnID)
		case wal.RecDecision:
			decisions[rec.TxnID], _ = wal.ParseDecision(rec.Aux) // anything else reads as abort
			// A decision after an END (a run that a recovery overtook, see
			// Coordinator.decide) is delivered again, to the BEGIN's sites.
			delete(ended, rec.TxnID)
		case wal.RecEnd:
			delete(decisions, rec.TxnID)
			ended[rec.TxnID] = true
		case wal.RecCheckpoint:
			// The bracket of LocalLog's own checkpoints: it holds no image
			// (the checkpointed store is empty), only carried records.
		default:
			return nil, nil, fmt.Errorf("coord %s: unexpected %v record (LSN %d) in coordinator log",
				l.name, rec.Type, rec.LSN)
		}
	}
	if len(ended) > 0 {
		live := begun[:0]
		for _, b := range begun {
			if !ended[b.TxnID] {
				live = append(live, b)
			}
		}
		begun = live
	}
	// Seed the first-writer-wins map so post-recovery Decide calls for
	// already-logged transactions adopt rather than duplicate.
	l.mu.Lock()
	for id, commit := range decisions {
		if _, ok := l.decisions[id]; !ok {
			l.decisions[id] = commit
		}
	}
	l.dropEnded()
	l.mu.Unlock()
	// The trigger restarts from the log as read: all of it counts as growth.
	var first uint64
	if len(records) > 0 {
		first = records[0].LSN
	}
	l.ckpt.Reset(first)
	l.records.Set(int64(len(records)))
	return begun, decisions, nil
}

// maybeCheckpoint evaluates the trigger (wal.Trigger) after every append;
// lsn is the appended record's. A due checkpoint runs in the background,
// off the caller's path.
func (l *LocalLog) maybeCheckpoint(lsn uint64) {
	records, due := l.ckpt.Due(lsn, 0)
	if records > 0 {
		l.records.Set(int64(records))
	}
	if !due {
		return
	}
	//o2pcvet:ignore goleak -- the checkpoint only takes the log's own mutex and returns; it never waits on the clock
	l.clock.Go(func() {
		// A failed checkpoint leaves the log as it was; a later append
		// triggers another attempt.
		//o2pcvet:ignore errflow -- see above: the log is unchanged and the next append retries
		_ = l.checkpoint()
		l.ckpt.Finish()
	})
}

// checkpoint takes one checkpoint of the log now: wal.Log.Checkpoint over
// an empty store, so the log keeps only the BEGIN and DECISION records of
// transactions without an END.
func (l *LocalLog) checkpoint() error {
	begin, end, err := l.wal.Checkpoint(storage.NewStore())
	if err != nil {
		return err
	}
	l.checkpoints.Inc()
	if records, moved := l.ckpt.Advance(begin, end); moved {
		l.records.Set(int64(records))
	}
	return nil
}

// unended returns the transactions with a logged decision and no END yet.
func (l *LocalLog) unended() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dropEnded()
	ids := make([]string, 0, len(l.decisions))
	for id := range l.decisions {
		ids = append(ids, id)
	}
	return ids
}

// Sync flushes the underlying log.
func (l *LocalLog) Sync(ctx context.Context) error { return l.wal.Sync() }

// Close is a no-op: the wal.Log belongs to whoever constructed it.
func (l *LocalLog) Close() error { return nil }

var _ DecisionLog = (*LocalLog)(nil)
