package site

import (
	"context"
	"fmt"
	"sort"

	"o2pc/internal/compensate"
	"o2pc/internal/history"
	"o2pc/internal/lock"
	"o2pc/internal/proto"
	"o2pc/internal/trace"
	"o2pc/internal/txn"
	"o2pc/internal/wal"
)

// handleVote answers a stand-alone VOTE-REQ (O2PC, multi-shot sessions).
// The reply carries the site's pending UDUM1 witness facts, drained before
// the vote.
func (s *Site) handleVote(ctx context.Context, from string, req proto.VoteRequest) proto.VoteReply {
	witnesses := s.drainWitnesses()
	reply := s.vote(ctx, from, req.TxnID, true)
	reply.Witnesses = witnesses
	return reply
}

// vote casts the site's vote on an executed subtransaction, for a VOTE-REQ
// on its own or one riding the ExecRequest. This is where the protocols
// diverge:
//
//   - 2PC and Paxos Commit (and O2PC subtransactions flagged CompNone, i.e.
//     real actions): the participant logs PREPARED and retains its
//     locks, shared and exclusive, to the decision — the blocking window
//     begins;
//   - O2PC: the participant locally commits the subtransaction and
//     releases every lock at once; the transaction is now exposed and an
//     eventual abort decision will be honoured by compensation.
//
// lockPoint reports that the global transaction has taken its last lock:
// true for a stand-alone VOTE-REQ, which follows every exec, and for a vote
// riding the last exec. Only then may a held-locks vote release anything
// early (the read-only exit): releasing a lock at an earlier site and then locking at a later one would break two-phase
// locking across sites.
func (s *Site) vote(ctx context.Context, from, txnID string, lockPoint bool) proto.VoteReply {
	s.tracer.Emit(s.cfg.Name, trace.EvVoteReqRecv, txnID, from, "")

	s.mu.Lock()
	p, ok := s.pend[txnID]
	injector := s.injector
	s.mu.Unlock()
	if !ok {
		// Exec failed or never arrived: the site has already rolled back.
		return s.refuseVote(txnID, from, "unknown txn", "unknown or already rolled-back transaction")
	}
	// Serialize against a concurrently-arriving decision for this
	// transaction (see the pending type's comment).
	s.lockPending(p)
	defer p.mu.Unlock()
	if p.decided {
		return s.refuseVote(txnID, from, "already decided", "transaction already decided")
	}
	if p.t == nil {
		// A pending entry rebuilt by Recover has no live transaction: its
		// vote already happened in a previous incarnation, so a duplicate
		// VOTE-REQ (delayed in the network across the crash) answers NO
		// without touching anything — the resolver is already inquiring.
		return s.refuseVote(txnID, from, "recovered entry", "subtransaction recovered from WAL; awaiting decision")
	}

	// Site autonomy: the site may abort any subtransaction before it
	// terminates (vote-abort injection models a local decision to do so).
	if injector != nil && injector(txnID) {
		return s.voteNo(ctx, p, from, "unilateral abort", "site unilaterally aborted")
	}

	// Multi-shot sessions re-validate R1 at the vote. Each round validated
	// as its own last action, but the think-time gaps between rounds leave
	// a much longer window in which compensating transactions can mark the
	// site than a one-shot subtransaction ever sees. The check is
	// conservative: a failure only converts a YES into a unilateral NO, so
	// it can cause extra aborts but never admit a dangerous reader.
	if p.req.Round > 0 && p.req.Marking != proto.MarkNone {
		if !s.validateMarks(ctx, p.t.ID(), p.req.Marking, p.marks) {
			s.stats.RevalidateFail.Inc()
			s.stats.ReadmitRejects.Inc()
			return s.voteNo(ctx, p, from, "session revalidation", "marking validation failed at vote")
		}
	}

	// The read-only exit (R*, which the paper builds on): a subtransaction
	// that wrote nothing has nothing to make durable and nothing to
	// compensate, so it commits here, releases everything and leaves the
	// protocol — the coordinator sends it no decision. Its locks are what
	// serialized it, so it may leave only at the transaction's lock point.
	// It leaves before P2's locally-committed mark below: it exposes
	// nothing, and no decision would ever arrive to clear the mark.
	if lockPoint && !p.t.Wrote() {
		if err := p.t.Commit(); err != nil {
			return s.voteNo(ctx, p, from, "read-only commit failed", err.Error())
		}
		s.mu.Lock()
		delete(s.pend, p.req.TxnID)
		s.resolved[p.req.TxnID] = true // fence late ExecRequests, as a decision does
		s.mu.Unlock()
		s.stats.PendingGlobal.Dec()
		s.maybeCheckpoint(p.t.EndLSN())
		s.stats.VotesYes.Inc()
		s.stats.Commits.Inc()
		s.tracer.Emit(s.cfg.Name, trace.EvLockRelease, txnID, "", "read-only")
		s.tracer.Emit(s.cfg.Name, trace.EvVoteYes, txnID, from, "read-only")
		return proto.VoteReply{Commit: true, ReadOnly: true}
	}

	// Under the dual protocol P2 the site's mark set tracks transactions
	// the site is locally-committed with respect to: the mark is written
	// at the YES vote — inside the voting transaction itself, under an
	// exclusive lock on the marking set, so it becomes visible atomically
	// with the lock release — and cleared when the decision arrives (both
	// purely local transitions, so P2 needs no UDUM machinery).
	if p.req.Marking == proto.MarkP2 || p.req.Marking == proto.MarkSimple {
		if err := s.mgr.Locks().Acquire(ctx, p.t.ID(), MarkKey, lock.Exclusive); err != nil {
			return s.voteNo(ctx, p, from, "marking-set lock", "marking-set lock: "+err.Error())
		}
		if err := s.lc.MarkUndone(p.req.TxnID); err != nil {
			return s.voteNo(ctx, p, from, "marking-set log", "marking-set log: "+err.Error())
		}
	}

	// Paxos Commit participants behave exactly like 2PC participants at
	// the sites (Gray & Lamport): what the replicated decision log removes
	// is the wait-on-a-dead-coordinator, not the prepared state.
	holdLocks := p.req.Protocol.KeepsLocksAtVote() || p.req.Comp == proto.CompNone
	if holdLocks {
		if err := p.t.Prepare(s.prepareAux(from, p.req)); err != nil {
			return s.voteNo(ctx, p, from, "prepare failed", err.Error())
		}
		s.setState(p, statePrepared)
		s.tracer.Emit(s.cfg.Name, trace.EvPrepared, txnID, from, "locks retained")
		s.armResolver()
	} else {
		// O2PC: locally commit durably and release everything now. The
		// durable sync before the release is Theorem 2's write-ahead point:
		// the exposure record must survive a crash once other transactions
		// can read the exposed state. The RecExposed record lands before the
		// commit record so the CommitDurable sync covers both: a restarted
		// site finds everything it needs — the coordinator to ask, the
		// operations to compensate — in its own log.
		p.updates = p.t.Updates()
		if _, err := s.mgr.Log().Append(wal.Record{
			Type:  wal.RecExposed,
			TxnID: p.req.TxnID,
			Aux:   encodeExposure(exposure{Coord: from, Req: p.req}),
		}); err != nil {
			return s.voteNo(ctx, p, from, "exposure log failed", err.Error())
		}
		if err := p.t.CommitDurable(); err != nil {
			return s.voteNo(ctx, p, from, "local commit failed", err.Error())
		}
		s.setState(p, stateLocallyCommitted)
		p.exposedAt = s.clock.Now()
		s.tracer.Emit(s.cfg.Name, trace.EvExposed, txnID, from, "")
		s.tracer.Emit(s.cfg.Name, trace.EvLocalCommit, txnID, "", "")
		s.tracer.Emit(s.cfg.Name, trace.EvLockRelease, txnID, "", "")
		// The site still carries on with the second phase of the protocol
		// (Section 2): if the decision is lost to a coordinator failure it
		// inquires — without holding any locks meanwhile.
		s.armResolver()
	}
	s.stats.VotesYes.Inc()
	s.tracer.Emit(s.cfg.Name, trace.EvVoteYes, txnID, from, "")
	return proto.VoteReply{Commit: true}
}

// setState publishes a YES vote's outcome under s.mu as well as p.mu, for
// the resolver's scan (see pending).
func (s *Site) setState(p *pending, st pendingState) {
	s.mu.Lock()
	p.state = st
	s.mu.Unlock()
}

// voteNo rolls the subtransaction back, forgets it, and votes NO.
func (s *Site) voteNo(ctx context.Context, p *pending, from, detail, reason string) proto.VoteReply {
	s.rollbackVoted(ctx, p)
	s.mu.Lock()
	delete(s.pend, p.req.TxnID)
	s.mu.Unlock()
	s.stats.PendingGlobal.Dec()
	s.maybeCheckpoint(p.t.EndLSN())
	return s.refuseVote(p.req.TxnID, from, detail, reason)
}

// refuseVote votes NO (detail is the trace's, reason the reply's).
func (s *Site) refuseVote(txnID, from, detail, reason string) proto.VoteReply {
	s.stats.VotesNo.Inc()
	s.tracer.Emit(s.cfg.Name, trace.EvVoteNo, txnID, from, detail)
	return proto.VoteReply{Reason: reason}
}

// rollbackVoted rolls back a live subtransaction that reached its vote
// with its locks held: a NO vote, or an abort decision after a YES that
// retained the locks. Under 2PC and Paxos Commit no sibling subtransaction
// ever exposes — every one keeps its locks until the decision — so nothing
// could have observed the effects and the roll-back is unexposed: no
// undone mark, which would otherwise reject later transactions that can
// never witness the sibling sites. Under O2PC (a NO vote, or a real action
// flagged CompNone) siblings may already have exposed, so the roll-back is
// the degenerate CTik and carries the mark.
func (s *Site) rollbackVoted(ctx context.Context, p *pending) {
	if p.req.Protocol.KeepsLocksAtVote() {
		s.rollbackUnexposed(p.t)
		return
	}
	s.rollbackAsCompensation(ctx, p.t, p.req.Marking)
}

// drainWitnesses converts pending local witness facts into the piggyback
// form carried on VOTE replies.
func (s *Site) drainWitnesses() []proto.WitnessDelta {
	tis := s.marks.DrainWitnesses()
	if len(tis) == 0 {
		return nil
	}
	out := make([]proto.WitnessDelta, 0, len(tis))
	for _, ti := range tis {
		out = append(out, proto.WitnessDelta{Forward: ti, Site: s.cfg.Name})
	}
	return out
}

// handleDecision applies a coordinator DECISION, including any piggybacked
// undone-to-unmarked notices (rule R3). Decisions are idempotent: a
// re-sent decision for a forgotten transaction is acknowledged again. A
// WAL failure surfaces as an error (no ack), so the coordinator keeps
// retrying rather than treating the decision as applied.
func (s *Site) handleDecision(ctx context.Context, d proto.Decision) (proto.Ack, error) {
	// The resolver loop calls in directly (not through Handle), so a crashed
	// site must refuse here too: volatile state mutated "while down" would
	// not survive the Recover replay.
	s.mu.Lock()
	crashed := s.crashed
	s.mu.Unlock()
	if crashed {
		return proto.Ack{}, ErrCrashed
	}
	s.tracer.Emit(s.cfg.Name, trace.EvDecisionRecv, d.TxnID, "", wal.DecisionAux(d.Commit))
	for _, ti := range d.Unmarks {
		s.writeMark(ctx, ti, false, s.marks)
	}

	s.mu.Lock()
	p, ok := s.pend[d.TxnID]
	applying := s.applying[d.TxnID]
	if ok {
		delete(s.pend, d.TxnID)
		s.applying[d.TxnID] = true
	}
	wasResolved := s.resolved[d.TxnID]
	s.resolved[d.TxnID] = true // fence late ExecRequests for this txn
	s.mu.Unlock()
	if !ok {
		// Already resolved (e.g. the site voted NO and rolled back, or a
		// duplicate decision): still report mark state for UDUM1. A
		// duplicate of a decision still being applied waits for it first,
		// or it would report the site unmarked while compensation runs.
		if applying {
			s.awaitApplied(d.TxnID)
		}
		// A decision re-sent because no ack has reported its record durable
		// yet names the record (Decision.Sync): the site may be idle, so it
		// forces its log now.
		log := s.mgr.Log()
		if d.Sync > log.Synced() {
			if err := log.Sync(); err != nil {
				return proto.Ack{}, fmt.Errorf("site %s: syncing decisions for %s: %w", s.cfg.Name, d.TxnID, err)
			}
		}
		// Whatever record this site logged for the decision is at or below
		// the latest decision record.
		return s.ack(d.TxnID, s.lastDecision.Load()), nil
	}
	s.stats.PendingGlobal.Dec()
	// Serialize against a concurrently-running vote handler for this
	// transaction: the decision must observe the post-vote state (e.g.
	// stateLocallyCommitted, which needs compensation) and never treat an
	// exposed subtransaction as unexposed.
	s.lockPending(p)
	defer p.mu.Unlock()
	defer s.doneApplying(d.TxnID)
	p.decided = true
	if p.state == stateLocallyCommitted && !p.exposedAt.IsZero() {
		// The exposure window closes when the decision arrives (commit or
		// abort — compensation for an abort starts now). Recovered entries
		// have a zero stamp and are skipped. The per-outcome split feeds
		// the ops plane: an aborted window is the interval during which
		// effects leaked to other transactions and must be compensated.
		window := s.clock.Since(p.exposedAt)
		s.stats.ExposureDuration.ObserveDuration(window)
		if d.Commit {
			s.stats.ExposureCommit.ObserveDuration(window)
		} else {
			s.stats.ExposureAbort.ObserveDuration(window)
		}
	}

	// Write-ahead: the decision record lands before the decision's effects.
	// If the log refuses it, undo the bookkeeping and report the failure —
	// the transaction stays pending and the coordinator's retry (or the
	// resolver) delivers the decision again once the site can log it.
	lsn, err := s.mgr.Log().Append(wal.Record{
		Type:  wal.RecDecision,
		TxnID: d.TxnID,
		Aux:   wal.DecisionAux(d.Commit),
	})
	if err != nil {
		p.decided = false
		s.mu.Lock()
		s.pend[d.TxnID] = p
		if !wasResolved {
			delete(s.resolved, d.TxnID)
		}
		s.mu.Unlock()
		s.stats.PendingGlobal.Inc()
		return proto.Ack{}, fmt.Errorf("site %s: logging decision for %s: %w", s.cfg.Name, d.TxnID, err)
	}
	s.maybeCheckpoint(lsn)
	for last := s.lastDecision.Load(); lsn > last; last = s.lastDecision.Load() {
		if s.lastDecision.CompareAndSwap(last, lsn) {
			break
		}
	}

	var applyErr error
	if d.Commit {
		applyErr = s.applyCommit(p)
	} else {
		s.applyAbort(ctx, p)
	}
	if p.req.Marking == proto.MarkP2 || p.req.Marking == proto.MarkSimple {
		// Figure 2 dual: locally-committed -> unmarked at the decision
		// (for the check's purposes aborts clear the lc mark too; under
		// the simple protocol the abort path separately sets the undone
		// mark via compensation/rollback).
		s.writeMark(ctx, d.TxnID, false, s.lc)
	}
	return s.ack(d.TxnID, lsn), applyErr
}

// ack acknowledges id's decision, whose record is at lsn or below it. The
// ack does not wait for a forced write: it reports that position while it
// is not yet durable, and the log's durable position, so that the
// coordinator forgets the transaction only once some ack has reported the
// record durable (proto.Ack).
func (s *Site) ack(id string, lsn uint64) proto.Ack {
	synced := s.mgr.Log().Synced()
	a := proto.Ack{TxnID: id, Marked: s.marks.Contains(id), Synced: synced, Boot: s.boot.Load()}
	if lsn > synced {
		a.LSN = lsn
	}
	return a
}

func (s *Site) applyCommit(p *pending) error {
	var err error
	switch p.state {
	case statePrepared:
		if p.t == nil {
			// Recovered in-doubt transaction: effects are already in the
			// store; just release the re-acquired locks.
			s.mgr.Locks().ReleaseAll(p.req.TxnID)
			break
		}
		err = p.t.Commit() // releases the retained locks
	case stateLocallyCommitted:
		// Already committed locally; nothing to release.
	case stateExecuted:
		// A commit decision without a vote round cannot happen for this
		// site (the coordinator only commits after unanimous YES votes);
		// commit defensively.
		err = p.t.Commit()
	}
	s.stats.Commits.Inc()
	if rec := s.cfg.Recorder; rec != nil {
		rec.SetFate(p.req.TxnID, history.FateCommitted)
	}
	return err
}

func (s *Site) applyAbort(ctx context.Context, p *pending) {
	s.stats.Aborts.Inc()
	if rec := s.cfg.Recorder; rec != nil {
		rec.SetFate(p.req.TxnID, history.FateAborted)
	}
	switch p.state {
	case statePrepared, stateExecuted:
		if p.t == nil {
			// Recovered in-doubt transaction: undo from the log. The ABORT
			// record follows the restore and precedes the lock release —
			// Txn.Abort's ordering — so a later crash replays this undo at
			// its position in the log, before any later writer of the same
			// keys. (A failed append leaves a log that the next Sync-ing
			// committer will surface; the undo itself is already justified
			// by the logged before-images.)
			ctID := compensate.CTID(p.req.TxnID)
			wal.ApplyUndo(s.mgr.Store(), p.updates, ctID)
			//o2pcvet:ignore errflow -- a failed append leaves a broken log the next Sync-ing committer surfaces; the undo is justified by the logged before-images
			_, _ = s.mgr.Log().Append(wal.Record{Type: wal.RecAbort, TxnID: p.req.TxnID, Aux: ctID})
			s.mgr.Locks().ReleaseAll(p.req.TxnID)
			s.stats.Rollbacks.Inc()
			break
		}
		if p.state == stateExecuted {
			// An abort during execution precedes every vote: nothing was
			// exposed anywhere, so the subtransaction is rolled back
			// unexposed (voided from the history, no mark) rather than
			// modeled as a compensating subtransaction.
			s.rollbackUnexposed(p.t)
			break
		}
		// Locks still held after a YES vote (2PC, Paxos or a real action).
		s.rollbackVoted(ctx, p)
	case stateLocallyCommitted:
		// Epoch scope, not the delivery context: compensation is the
		// site's own obligation once the abort decision is logged — it
		// must outlive the triggering request, and it must die with the
		// up period (a crash mid-retry unwinds here; Recover re-runs the
		// compensation from the WAL).
		s.compensateExposed(s.upCtx(), p)
	}
}

// compensateExposed runs the real compensating subtransaction for a
// locally-committed, exposed subtransaction. Persistence of compensation:
// the run retries until it succeeds.
func (s *Site) compensateExposed(ctx context.Context, p *pending) {
	s.stats.Compensations.Inc()
	compStart := s.clock.Now()
	defer func() {
		if ctx.Err() == nil {
			// Only completed compensations count toward the duration
			// histogram; a crash-interrupted run is resumed (and measured)
			// by recovery.
			s.stats.CompensationDuration.ObserveDuration(s.clock.Since(compStart))
		}
	}()
	plan, err := compensate.PlanFor(p.req.Comp, p.req.Compensator, s.cfg.Compensators)
	if err != nil {
		// Unreachable for well-formed requests: CompNone subtransactions
		// hold locks and never take this path.
		panic(fmt.Sprintf("site %s: no compensation plan for %s: %v", s.cfg.Name, p.req.TxnID, err))
	}
	forward := compensate.Forward{TxnID: p.req.TxnID, Ops: p.req.Ops, Updates: p.updates}
	opts := compensate.Options{
		Clock:     s.clock,
		Tracer:    s.tracer,
		TraceNode: s.cfg.Name,
	}
	if p.req.Marking != proto.MarkNone && len(p.updates) > 0 {
		// Rule R2: the last operation of CTik marks the site undone with
		// respect to the forward transaction, under the marking-set lock,
		// atomically with the compensation's local commit. Read-only
		// subtransactions restore nothing and need no mark.
		opts.Finalize = func(fctx context.Context, t *txn.Txn) error {
			if err := s.mgr.Locks().Acquire(fctx, t.ID(), MarkKey, lock.Exclusive); err != nil {
				return err
			}
			return s.marks.MarkUndone(p.req.TxnID)
		}
	}
	if err := compensate.Run(ctx, s.mgr, forward, plan, opts); err != nil {
		// Only context cancellation can get here; persistence of
		// compensation absorbs every transient failure.
		if ctx.Err() == nil {
			panic(fmt.Sprintf("site %s: compensation for %s failed: %v", s.cfg.Name, p.req.TxnID, err))
		}
	}
}

// armResolver ensures the site's decision-inquiry scanner is running: if no
// decision arrives for a voted transaction, the site periodically asks the
// coordinator to resolve it — the classic in-doubt inquiry. A prepared
// participant stays blocked (locks held) until an answer arrives; this is
// the unbounded window O2PC exists to remove. (An O2PC participant runs the
// same inquiry loop without holding any locks.)
//
// One scanner serves every pending transaction of the site: decisions
// normally arrive within a round trip, so a per-transaction watchdog
// goroutine (plus its cancel context and timer) is pure overhead on the
// commit path — the scanner costs one timer per ResolvePeriod for the whole
// site and exits as soon as nothing is pending.
func (s *Site) armResolver() {
	if s.caller == nil {
		return
	}
	s.mu.Lock()
	armed := s.resolverOn
	s.resolverOn = true
	s.mu.Unlock()
	if armed {
		return
	}
	s.clock.Go(s.resolverLoop)
}

// resolverLoop periodically scans the pending table for voted, undecided
// transactions and inquires about each. Targets are visited in transaction
// ID order so virtual-time runs stay deterministic. The loop exits (and
// disarms) when a scan finds nothing to resolve, or when the site crashes
// (the crash kills the process's threads; Recover re-arms the inquiry for
// the entries it rebuilds); the next vote or recovery re-arms it.
func (s *Site) resolverLoop() {
	// Scope the scanner to the site's current up period: a crash cancels
	// the epoch, the sleep returns early, and the loop disarms instead of
	// ticking on as an undrainable goroutine.
	ep := s.upCtx()
	for {
		if s.clock.Sleep(ep, s.cfg.ResolvePeriod) != nil {
			s.mu.Lock()
			s.resolverOn = false
			s.mu.Unlock()
			return
		}
		s.mu.Lock()
		if s.crashed {
			s.resolverOn = false
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		targets := s.resolveTargets()
		if targets == nil {
			return
		}
		for _, tg := range targets {
			s.resolveOnce(tg)
		}
	}
}

// resolveTarget is one voted, undecided transaction and the coordinator
// to ask about it, copied out under s.mu.
type resolveTarget struct{ txnID, coord string }

// resolveTargets snapshots the voted, undecided pending transactions in ID
// order. A nil return means the scanner disarmed itself (under the same
// mutex armResolver checks, so no vote can slip between the empty scan and
// the disarm).
func (s *Site) resolveTargets() []resolveTarget {
	s.mu.Lock()
	defer s.mu.Unlock()
	var targets []resolveTarget
	for _, p := range s.pend {
		if p.coord == "" || (p.state != statePrepared && p.state != stateLocallyCommitted) {
			continue
		}
		targets = append(targets, resolveTarget{txnID: p.req.TxnID, coord: p.coord})
	}
	if len(targets) == 0 {
		s.resolverOn = false
		return nil
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].txnID < targets[j].txnID })
	return targets
}

// resolveOnce sends one decision inquiry for tg and applies the answer, if
// the coordinator knows one. handleDecision is idempotent, so racing a
// concurrently-arriving decision is harmless.
func (s *Site) resolveOnce(tg resolveTarget) {
	cctx, cancel := s.clock.WithTimeout(context.Background(), s.cfg.ResolvePeriod*4)
	s.tracer.Emit(s.cfg.Name, trace.EvResolveSend, tg.txnID, tg.coord, "")
	resp, err := s.caller.Call(cctx, s.cfg.Name, tg.coord, proto.ResolveRequest{TxnID: tg.txnID})
	cancel()
	if err != nil {
		return
	}
	rr, ok := resp.(proto.ResolveReply)
	if !ok || !rr.Known {
		return
	}
	// A WAL failure leaves the transaction pending; the next scan retries.
	//o2pcvet:ignore errflow -- see above: failure leaves the txn pending and the next resolver scan retries
	_, _ = s.handleDecision(context.Background(), proto.Decision{TxnID: tg.txnID, Commit: rr.Commit})
}
