package site

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"o2pc/internal/history"
	"o2pc/internal/lock"
	"o2pc/internal/proto"
	"o2pc/internal/storage"
	"o2pc/internal/trace"
	"o2pc/internal/txn"
	"o2pc/internal/wal"
)

// RunLocal executes fn as an independent local transaction. Local
// transactions are entirely outside the global protocols — they see no
// marking checks and no commit protocol, preserving the site's autonomy —
// and run under the site's ordinary strict 2PL with deadlock retry.
func (s *Site) RunLocal(ctx context.Context, fn func(t *txn.Txn) error) error {
	s.mu.Lock()
	s.localSeq++
	id := fmt.Sprintf("L%d@%s", s.localSeq, s.cfg.Name)
	s.mu.Unlock()
	s.stats.LocalTxns.Inc()
	return s.mgr.RunLocal(ctx, id, 5, fn)
}

// ReadKey returns a key's current value outside any transaction (test and
// example inspection only; real readers use transactions).
func (s *Site) ReadKey(key storage.Key) (storage.Value, error) {
	rec, err := s.mgr.Store().Get(key)
	if err != nil {
		return nil, err
	}
	return rec.Value, nil
}

// ReadInt64 returns a key's current int64 value (0 when absent), outside
// any transaction.
func (s *Site) ReadInt64(key storage.Key) int64 {
	v, err := s.ReadKey(key)
	if err != nil {
		return 0
	}
	n, err := storage.DecodeInt64(v)
	if err != nil {
		return 0
	}
	return n
}

// SeedTxnID is the transaction ID under which bootstrap seed writes are
// logged. Each Seed call is its own committed mini-transaction in the WAL,
// so a recovered site replays its seed data instead of forgetting it.
const SeedTxnID = "init"

// Seed installs initial data without locking (bootstrap only). The write
// is logged ahead of the store mutation — an unlogged seed would vanish on
// the first crash recovery, silently breaking every invariant that assumed
// the seeded balance existed (the SeedInt64 WAL bypass).
func (s *Site) Seed(key storage.Key, value storage.Value) {
	store := s.mgr.Store()
	prev, existed := store.GetAny(key)
	after := wal.Image{
		Key:     key,
		Value:   append(storage.Value(nil), value...),
		Existed: true,
		Writer:  SeedTxnID,
	}
	log := s.mgr.Log()
	if _, err := log.Append(wal.Record{
		Type:   wal.RecUpdate,
		TxnID:  SeedTxnID,
		Before: wal.ImageOf(prev, existed),
		After:  after,
	}); err != nil {
		// Bootstrap precedes all traffic; an unloggable seed would silently
		// vanish on the first crash recovery, so it is a setup bug.
		panic(fmt.Sprintf("site %s: seeding %s: %v", s.cfg.Name, key, err))
	}
	// Installed before the COMMIT record, as a transaction's writes are.
	// Seeding precedes all traffic, and traffic is what triggers the site's
	// checkpoints, so none runs between these steps.
	store.Put(key, value, SeedTxnID)
	if _, err := log.Append(wal.Record{Type: wal.RecCommit, TxnID: SeedTxnID}); err != nil {
		panic(fmt.Sprintf("site %s: seeding %s: %v", s.cfg.Name, key, err))
	}
}

// SeedInt64 installs an initial int64 value.
func (s *Site) SeedInt64(key storage.Key, v int64) {
	s.Seed(key, storage.EncodeInt64(v))
}

// Recover rebuilds the site's volatile state from its WAL after a crash:
// the store is reconstructed, loser transactions are rolled back, the
// marking sets are replayed from their RecMark/RecUnmark records, in-doubt
// (prepared, undecided) transactions re-acquire exclusive locks on their
// written keys and resume the decision inquiry — the participant stays
// blocked exactly as the 2PC protocol requires — and exposed-but-undecided
// subtransactions (RecExposed without a decision) re-enter the pending
// table lock-free and resume their inquiry too, which is the window O2PC
// opens: the restarted site can still honour an eventual ABORT by
// compensation, driven entirely by its own log. A compensation the crash
// interrupted (RecCompBegin without RecCompEnd, or an ABORT decision the
// crash preempted) is re-run before the site reopens.
func (s *Site) Recover(ctx context.Context) (wal.RecoverResult, error) {
	s.tracer.Emit(s.cfg.Name, trace.EvRecover, "", "", "")

	// Health reports ErrRecovering until the site reopens for traffic —
	// the ops server's /healthz shows 503 for exactly this window. The
	// flag is cleared where crashed is (the reopen below), not by defer:
	// the post-reopen compensation re-runs happen on a healthy site.
	s.mu.Lock()
	s.recovering = true
	s.mu.Unlock()
	defer func() {
		// Error paths leave crashed as-is but must drop the recovering
		// flag so Health falls back to reporting the crash.
		s.mu.Lock()
		s.recovering = false
		s.mu.Unlock()
	}()

	// Drain handlers that were mid-flight when the crash hit: a real crash
	// kills the process's threads, and by restart time they are gone. The
	// in-process analogue is waiting for them to return (they observe the
	// crashed flag at their next fence and cannot install new state).
	for {
		s.mu.Lock()
		n := s.inflight
		s.mu.Unlock()
		if n == 0 {
			break
		}
		if err := s.clock.Sleep(ctx, 200*time.Microsecond); err != nil {
			return wal.RecoverResult{}, err
		}
	}

	// Volatile state is lost: pending and resolved tables, the incarnation
	// floors, the in-memory marking sets, and the kernel's live
	// transactions with their locks.
	s.mu.Lock()
	s.pend = make(map[string]*pending)
	s.applying = make(map[string]bool)
	s.resolved = make(map[string]bool)
	s.floors = make(map[string]incarnations)
	s.mu.Unlock()
	s.boot.Add(1)
	s.stats.PendingGlobal.Set(0)
	s.mgr.CrashReset()

	store := storage.NewStore()
	res, err := wal.Recover(store, s.mgr.Log())
	if err != nil {
		return res, err
	}
	s.mgr.Store().LoadSnapshot(store.Snapshot())

	records, err := s.mgr.Log().Records()
	if err != nil {
		return res, err
	}
	// The checkpoint trigger restarts from the recovered log. Its size is
	// not split into checkpoint and tail: the whole log counts as growth,
	// measured against the store's size.
	var first uint64
	if len(records) > 0 {
		first = records[0].LSN
	}
	s.ckpt.Reset(first)
	s.stats.WALRecords.Set(int64(len(records)))
	// Analyze the records recovery replays: carried checkpoint state plus
	// the tail (image records of the checkpoint itself carry no protocol
	// state).
	replay := wal.Replay(records)
	analysis := wal.Analyze(replay)
	prepared := make(map[string]string)
	for _, rec := range replay {
		if rec.Type == wal.RecPrepared {
			prepared[rec.TxnID] = rec.Aux
		}
	}

	// The resolved table fences stale subtransactions; rebuild it from the
	// logged decisions. Checkpoints keep every decision for at least one
	// full checkpoint interval (wal.CarryRecords).
	s.mu.Lock()
	for txnID := range analysis.Decisions {
		s.resolved[txnID] = true
	}
	s.mu.Unlock()

	// Marking sets: replay the RecMark/RecUnmark history. Witness state is
	// volatile UDUM1 bookkeeping and restarts empty (the marks it would
	// have reported are still present and will be witnessed again).
	s.marks.Restore(analysis.Marks[wal.MarkSetUndone])
	s.lc.Restore(analysis.Marks[wal.MarkSetLC])
	s.tracer.Emit(s.cfg.Name, trace.EvRecoverMarks, "", "",
		"undone="+strconv.Itoa(s.marks.Len())+" lc="+strconv.Itoa(s.lc.Len()))

	// Loser transactions (began, no terminal record) were undone by the
	// store rebuild; void their recorded operations so the history shows
	// the committed projection — exactly what rollbackUnexposed does for a
	// live unexposed roll-back. Compensating transactions are excluded:
	// interrupted compensation re-runs below and re-records.
	if rec := s.cfg.Recorder; rec != nil {
		for _, txnID := range sortedActives(analysis) {
			rec.VoidSiteOps(s.cfg.Name, txnID)
		}
	}

	// In-doubt transactions can only arise under 2PC (or O2PC real-action
	// subtransactions): O2PC participants never enter the prepared-and-
	// waiting state, which is the entire point of the protocol. Each one
	// re-acquires exclusive locks on its write set and resumes the
	// decision inquiry — the participant is blocked again, as 2PC demands.
	sort.Strings(res.InDoubt)
	for _, txnID := range res.InDoubt {
		coord, inc, marking := splitPrepareAux(prepared[txnID])
		p := &pending{
			req:     proto.ExecRequest{TxnID: txnID, Protocol: proto.TwoPC, Marking: marking, Incarnation: inc},
			state:   statePrepared,
			coord:   coord,
			updates: analysis.Updates[txnID],
		}
		for _, u := range analysis.Updates[txnID] {
			if err := s.mgr.Locks().Acquire(ctx, txnID, u.Before.Key, lock.Exclusive); err != nil {
				return res, err
			}
		}
		s.mu.Lock()
		s.pend[txnID] = p
		s.mu.Unlock()
		s.stats.PendingGlobal.Inc()
		s.stats.RecoveredInDoubt.Inc()
		s.tracer.Emit(s.cfg.Name, trace.EvRecoverPending, txnID, p.coord, "in-doubt")
	}

	// Exposed subtransactions: locally committed and lock-free before the
	// crash. Undecided ones re-enter the pending table (still lock-free)
	// and resume the inquiry; ones whose ABORT decision was logged but not
	// fully compensated re-run the compensating subtransaction now.
	var resumeComp []*pending
	for _, txnID := range sortedExposed(analysis) {
		info, err := decodeExposure(analysis.Exposed[txnID])
		if err != nil {
			return res, fmt.Errorf("site %s: recovering %s: %w", s.cfg.Name, txnID, err)
		}
		p := &pending{
			req:     info.Req,
			state:   stateLocallyCommitted,
			coord:   info.Coord,
			updates: analysis.Updates[txnID],
		}
		if commit, decided := analysis.Decisions[txnID]; decided && !commit {
			p.decided = true
			resumeComp = append(resumeComp, p)
		} else {
			s.mu.Lock()
			s.pend[txnID] = p
			s.mu.Unlock()
			s.stats.PendingGlobal.Inc()
			s.stats.RecoveredExposed.Inc()
			s.tracer.Emit(s.cfg.Name, trace.EvRecoverPending, txnID, p.coord, "exposed")
		}
	}

	// Reopen for traffic before re-running interrupted compensations: they
	// acquire data locks like any compensating transaction, and marking
	// keeps concurrent readers safe exactly as it does outside recovery.
	// The fresh epoch scopes the new up period's background work (the
	// crash cancelled the previous one).
	s.mu.Lock()
	s.epoch, s.epochCancel = context.WithCancel(context.Background())
	s.crashed = false
	s.recovering = false
	s.mu.Unlock()
	s.stats.Recoveries.Inc()
	s.armResolver()

	for _, p := range resumeComp {
		s.stats.ResumedCompensations.Inc()
		s.tracer.Emit(s.cfg.Name, trace.EvRecoverComp, p.req.TxnID, "", "")
		if rec := s.cfg.Recorder; rec != nil {
			rec.SetFate(p.req.TxnID, history.FateAborted)
		}
		s.compensateExposed(ctx, p)
		if err := ctx.Err(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// sortedActives lists the still-active (loser) non-compensating
// transactions of an analysis in sorted order, for deterministic replay.
func sortedActives(a wal.Analysis) []string {
	var out []string
	for txnID, st := range a.Status {
		if st != wal.StatusActive {
			continue
		}
		if _, isCT := a.CompForward[txnID]; isCT {
			continue
		}
		out = append(out, txnID)
	}
	sort.Strings(out)
	return out
}

// sortedExposed lists, in sorted order, the exposed subtransactions that
// actually locally committed (the exposure record lands just before the
// commit record; if the commit failed the vote handler rolled the
// subtransaction back and the exposure is void) and still need attention:
// either undecided, or abort-decided with the compensation incomplete.
func sortedExposed(a wal.Analysis) []string {
	var out []string
	for txnID := range a.Exposed {
		if a.Status[txnID] != wal.StatusCommitted {
			continue
		}
		if commit, decided := a.Decisions[txnID]; decided && (commit || a.CompensationComplete(txnID)) {
			continue
		}
		out = append(out, txnID)
	}
	sort.Strings(out)
	return out
}
