package coord

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"o2pc/internal/history"
	"o2pc/internal/proto"
	"o2pc/internal/sim"
	"o2pc/internal/trace"
	"o2pc/internal/wal"
)

// Run executes one global transaction end to end and reports its result.
// Run blocks until the transaction is resolved at the coordinator (the
// decision is logged and delivery has been attempted); decision delivery
// to unreachable participants continues in the background.
func (c *Coordinator) Run(ctx context.Context, spec TxnSpec) Result {
	start := c.clock.Now()
	c.stats.InFlight.Inc()
	res := c.run(ctx, spec)
	c.settle(start, &res)
	return res
}

// settle closes a global transaction's accounting, for a one-shot run and a
// session alike: the in-flight gauge, the latency and outcome counters, and
// the outcome trace event.
func (c *Coordinator) settle(start time.Time, res *Result) {
	c.stats.InFlight.Dec()
	res.Latency = c.clock.Since(start)
	c.stats.Latency.ObserveDuration(res.Latency)
	switch res.Outcome {
	case Committed:
		c.stats.Commits.Inc()
		c.stats.CommitLatency.ObserveDuration(res.Latency)
	case AbortedMarking:
		c.stats.MarkingAborts.Inc()
		c.stats.Aborts.Inc()
	default:
		c.stats.Aborts.Inc()
	}
	c.tracer.Emit(c.cfg.Name, trace.EvTxnOutcome, res.ID, "", res.Outcome.String())
}

func (c *Coordinator) run(ctx context.Context, spec TxnSpec) Result {
	if len(spec.Subtxns) == 0 {
		return Result{Err: fmt.Errorf("coord: empty transaction spec")}
	}
	id := spec.ID
	if id == "" {
		id = c.nextID()
	}
	res := Result{ID: id}
	if rec := c.cfg.Recorder; rec != nil {
		rec.Declare(id, history.KindGlobal, "")
	}
	inc, crashed := c.start()
	if crashed {
		res.Outcome = AbortedCoordinator
		res.Err = ErrCrashed
		return res
	}
	// The spec's site list is also the executed prefix handed to the abort
	// and commit paths; every consumer treats it as read-only.
	sites := execSites(spec)
	c.tracer.Emit(c.cfg.Name, trace.EvTxnBegin, id, "",
		spec.Protocol.String()+"/"+spec.Marking.String()+" sites="+strings.Join(sites, ","))
	// The BEGIN records the participants, the decision's delivery set. It
	// is not a write-ahead point: LocalLog does not force it, and a
	// replicated log keeps it in memory until the decision. A recovery
	// that finds no record of this transaction learns it from the sites
	// instead, by the incarnation every exec carries (Recover).
	if err := c.dlog.Begin(ctx, id, sites, spec.Marking); err != nil {
		res.Outcome = AbortedCoordinator
		res.Err = fmt.Errorf("coord: logging begin for %s: %w", id, err)
		return res
	}

	// A one-shot run is round 0 of the exec loop. When the protocol keeps
	// locks at the YES vote, every subtransaction also carries the
	// VOTE-REQ: the site votes as the exec's last action and the reply
	// carries the vote, so the vote round costs no round trip (and no X-lock
	// hold time) of its own. O2PC cannot do this: its YES exposes the
	// subtransaction, which must wait until every sibling has executed.
	req := proto.ExecRequest{
		TxnID:       id,
		Protocol:    spec.Protocol,
		Marking:     spec.Marking,
		Vote:        spec.Protocol.KeepsLocksAtVote(),
		Incarnation: inc,
	}
	var collectStart time.Time
	if req.Vote {
		collectStart = c.clock.Now()
	}
	var marks execMarks
	var v votes
	n, err := c.execSubtxns(ctx, req, spec.Subtxns, markingRetries(spec.MarkingRetries), &marks, &v, &res)
	if err != nil {
		// Site unreachable, subtransaction failed, or fatal marking
		// rejection: abort whatever already executed. The failing site is
		// included in the abort delivery — it may have executed the
		// subtransaction even though its reply was lost (decisions are
		// idempotent, so a site that never saw the request just acks).
		c.decide(ctx, id, false, inc, sites[:n+1], spec.Marking)
		return res
	}
	if req.Vote {
		c.stats.PhaseCollect.ObserveDuration(c.clock.Since(collectStart))
	} else {
		v = c.collectVotes(ctx, id, sites)
	}
	c.commitPoint(ctx, id, inc, sites[:n], v, spec.Marking, &res)
	return res
}

// execMarks is the rule R1 state a global transaction threads through its
// subtransactions, in order: the accumulated transmarks, and whether any
// site has admitted it yet.
type execMarks struct {
	transmarks []string
	visited    bool
}

// votes tallies a transaction's votes: whether any participant voted NO
// (or could not be reached), and — only when some participant answered
// READ-ONLY — a slice aligned with the executed sites marking those that
// have left the protocol and receive no decision (nil when none did, the
// common case).
type votes struct {
	no       bool
	readOnly []bool
}

// execSubtxns is the exec loop of one-shot runs and session rounds alike.
// It ships subtxns site by site, in order, each as req with that
// subtransaction's work filled in, threading the R1 marking state through
// marks; the fixed order is also the lock acquisition order across sites.
// OpRead results land in res.Reads by site. When req carries the VOTE-REQ,
// each reply's vote is tallied into v and a NO ends the loop: the later
// subtransactions never ship.
//
// It returns how many subtransactions executed (a NO voter included). On an
// exec failure it returns the failing subtransaction's index with the
// error, which it also sets in res.Err, with res.Outcome AbortedExec unless
// a marking abort set it.
func (c *Coordinator) execSubtxns(ctx context.Context, req proto.ExecRequest, subtxns []SubtxnSpec, retries int, marks *execMarks, v *votes, res *Result) (int, error) {
	for i, st := range subtxns {
		req.Ops, req.Comp, req.Compensator = st.Ops, st.Comp, st.Compensator
		req.TransMarks, req.Visited = marks.transmarks, marks.visited
		req.Last = req.Vote && i == len(subtxns)-1
		reply, err := c.execWithRetry(ctx, st.Site, req, retries, res)
		if err != nil {
			res.Err = err
			if res.Outcome == 0 {
				res.Outcome = AbortedExec
			}
			return i, err
		}
		if len(reply.Reads) > 0 {
			if res.Reads == nil {
				res.Reads = make(map[string]map[string][]byte)
			}
			res.Reads[st.Site] = reply.Reads
		}
		marks.transmarks, marks.visited = reply.Marks, true
		if !req.Vote {
			continue
		}
		if reply.Vote.ReadOnly {
			if v.readOnly == nil {
				v.readOnly = make([]bool, len(subtxns))
			}
			v.readOnly[i] = true
		}
		if !reply.Vote.Commit {
			v.no = true
			return i + 1, nil
		}
	}
	return len(subtxns), nil
}

// commitPoint decides a transaction whose votes are in: it drops the
// read-only participants, fires the after-votes crash point, and logs and
// delivers the decision. It fills res.Outcome (and res.Err on coordinator
// failure). inc is the incarnation the transaction began in.
func (c *Coordinator) commitPoint(ctx context.Context, id string, inc uint64, executed []string, v votes, marking proto.MarkProtocol, res *Result) {
	// Read-only participants have left the protocol; decisions go only to
	// the rest. The filtered list is a fresh slice: executed may alias the
	// run's site list.
	if v.readOnly != nil {
		var rest []string
		for i, s := range executed {
			if !v.readOnly[i] {
				rest = append(rest, s)
			}
		}
		executed = rest
	}

	if c.checkCrash(id, CrashAfterVotes) {
		// Crash before the decision is durable: participants are left
		// prepared (2PC: blocked; O2PC: locally committed, awaiting the
		// decision). Recovery will presume abort.
		res.Outcome = AbortedCoordinator
		res.Err = ErrCrashed
		return
	}

	if v.no {
		res.Outcome = AbortedVote
		c.decide(ctx, id, false, inc, executed, marking)
		return
	}
	if c.decide(ctx, id, true, inc, executed, marking) {
		res.Outcome = Committed
	} else {
		// A recovery ran while this transaction was still in flight and
		// presumed abort; that durable decision supersedes the commit.
		res.Outcome = AbortedCoordinator
		res.Err = ErrCrashed
	}
}

// execWithRetry ships one subtransaction, absorbing retryable marking
// rejections up to the retry budget. An attempt that carries the VOTE-REQ
// is also observed as a vote round trip, as collectVotes observes a
// stand-alone one.
func (c *Coordinator) execWithRetry(ctx context.Context, site string, req proto.ExecRequest, retries int, res *Result) (proto.ExecReply, error) {
	id := req.TxnID
	for attempt := 0; ; attempt++ {
		c.tracer.Emit(c.cfg.Name, trace.EvExecSend, id, site, "")
		var sent time.Time
		if req.Vote {
			c.tracer.Emit(c.cfg.Name, trace.EvVoteReqSend, id, site, "")
			sent = c.clock.Now()
		}
		raw, err := c.caller.Call(ctx, c.cfg.Name, site, req)
		reply, ok := raw.(proto.ExecReply)
		if req.Vote {
			c.voteReceived(id, site, sent, reply.Vote, err)
		}
		if err != nil {
			return proto.ExecReply{}, fmt.Errorf("coord: exec %s at %s: %w", id, site, err)
		}
		if !ok {
			return proto.ExecReply{}, fmt.Errorf("coord: exec %s at %s: unexpected reply %T", id, site, raw)
		}
		for _, w := range reply.Witnesses {
			c.board.AddWitness(w.Forward, w.Site)
		}
		switch {
		case reply.OK:
			return reply, nil
		case reply.Rejected && !reply.Fatal && attempt < retries:
			res.MarkRetries++
			c.stats.MarkingRetries.Inc()
			if err := c.clock.Sleep(ctx, markingRetryDelay); err != nil {
				return proto.ExecReply{}, err
			}
			continue
		case reply.Rejected:
			res.Outcome = AbortedMarking
			return proto.ExecReply{}, fmt.Errorf("coord: exec %s at %s rejected by marking protocol: %s", id, site, reply.Reason)
		default:
			return proto.ExecReply{}, fmt.Errorf("coord: exec %s at %s failed: %s", id, site, reply.Err)
		}
	}
}

// collectVotes runs the stand-alone vote round in parallel, feeding witness
// deltas to the board. Unreachable participants count as NO votes. (The
// vote phase used to allocate two maps and lock a mutex per vote here,
// which showed up in the contended profile.)
func (c *Coordinator) collectVotes(ctx context.Context, id string, sites []string) votes {
	yes := make([]bool, len(sites))
	ro := make([]bool, len(sites))
	collectStart := c.clock.Now()
	vote := func(i int, site string) {
		c.tracer.Emit(c.cfg.Name, trace.EvVoteReqSend, id, site, "")
		sent := c.clock.Now()
		raw, err := c.caller.Call(ctx, c.cfg.Name, site, proto.VoteRequest{TxnID: id})
		reply, _ := raw.(proto.VoteReply) // anything else counts as NO
		if err != nil {
			reply = proto.VoteReply{}
		}
		for _, w := range reply.Witnesses {
			c.board.AddWitness(w.Forward, w.Site)
		}
		c.voteReceived(id, site, sent, reply, err)
		// Each task owns its index; no lock needed.
		yes[i], ro[i] = reply.Commit, reply.ReadOnly
	}
	// Fan out all but the first site, which runs inline: this goroutine
	// would only park in Wait, so it may as well carry one vote itself.
	g := sim.NewGroup(c.clock)
	for i := 1; i < len(sites); i++ {
		i, site := i, sites[i]
		g.Go(func() { vote(i, site) })
	}
	if len(sites) > 0 {
		vote(0, sites[0])
	}
	g.Wait()
	c.stats.PhaseCollect.ObserveDuration(c.clock.Since(collectStart))
	var v votes
	anyRO := false
	for i := range sites {
		v.no = v.no || !yes[i]
		anyRO = anyRO || ro[i]
	}
	if anyRO {
		v.readOnly = ro
	}
	return v
}

// voteReceived observes one vote's round trip from its VOTE-REQ send, for a
// stand-alone vote and one riding an exec reply alike.
func (c *Coordinator) voteReceived(id, site string, sent time.Time, vote proto.VoteReply, err error) {
	c.stats.VoteRTT(site).ObserveDuration(c.clock.Since(sent))
	detail := "no"
	switch {
	case err != nil:
		detail = "unreachable"
	case vote.ReadOnly:
		detail = "read-only"
	case vote.Commit:
		detail = "yes"
	}
	c.tracer.Emit(c.cfg.Name, trace.EvVoteRecv, id, site, detail)
}

// decide logs the decision, registers abort bookkeeping, and delivers the
// decision to every executed participant, retrying in the background until
// each acks. It returns the decision that actually took effect: if a
// concurrent recovery already decided this transaction (presumed abort
// while the run was still in flight), that durable decision wins — logging
// a second, possibly contradictory record would let participants apply
// divergent outcomes.
//
// A recovery that decided the transaction may also have delivered and
// forgotten it already, leaving nothing to adopt. So a run that a recovery
// overtook — inc, the incarnation it began in, is no longer current —
// decides abort: that is what such a recovery presumed, and a transaction
// no recovery saw may be aborted anyway, since nothing was decided for it.
// A recovery that starts after the incarnation check cannot forget its
// presumed abort before the run has taken it up: the run is marked deciding
// until then, and forgetIfDone leaves the END of a deciding transaction to
// the run.
func (c *Coordinator) decide(ctx context.Context, id string, commit bool, inc uint64, executed []string, marking proto.MarkProtocol) bool {
	c.mu.Lock()
	if commit {
		commit = inc == c.incarnation
	}
	c.deciding[id] = true
	c.mu.Unlock()
	d := c.adoptPrior(id, executed, nil)
	if d == nil {
		if len(executed) == 0 {
			// With no participant — every one left at a read-only vote, or an
			// empty session — there is nothing to log or deliver: the
			// decision is reached and ended at once. A restarted coordinator
			// finds the BEGIN and the END, and neither presumes nor delivers.
			c.doneDeciding(id)
			c.reached(id, commit, wal.DecisionAux(commit))
			c.end(ctx, id)
			return commit
		}
		// Durability happens outside c.mu: a replicated decision log runs a
		// majority network round here, and the coordinator must keep serving
		// resolve inquiries (and other runs) meanwhile. The log itself
		// serializes racing writers and returns the decision that won.
		chosen, err := c.dlog.Decide(ctx, id, commit)
		if err != nil {
			// The decision cannot be made durable, so it must not be
			// announced: a coordinator that cannot write its log is crashed
			// (participants fall back to resolve inquiries, and recovery —
			// with a working log — will presume abort). For a commit intent
			// the caller reports AbortedCoordinator.
			c.mu.Lock()
			c.crashed = true
			delete(c.deciding, id)
			c.mu.Unlock()
			c.tracer.Emit(c.cfg.Name, trace.EvCrash, id, "", "wal: "+err.Error())
			return false
		}
		// A recovery pass may have decided this transaction while the
		// durability round was in flight; the decision log already
		// reconciled the two writes (first-writer-wins locally, consensus
		// when replicated), so the prior entry agrees with chosen.
		d = newDecided(chosen, marking != proto.MarkNone, executed)
		if prior := c.adoptPrior(id, executed, d); prior != nil {
			d = prior
		} else {
			c.reached(id, chosen, wal.DecisionAux(chosen))
		}
	}
	c.doneDeciding(id)
	if c.checkCrash(id, CrashAfterDecisionLogged) {
		return d.commit // recovery will re-send
	}
	c.deliverDecision(ctx, id, d)
	return d.commit
}

// doneDeciding ends id's deciding mark: the run has taken up its
// decision, and the delivery that follows forgets it.
func (c *Coordinator) doneDeciding(id string) {
	c.mu.Lock()
	delete(c.deciding, id)
	c.mu.Unlock()
}

// newDecided builds the bookkeeping of a decision with participants sites
// pending; an abort under a marking protocol tracks the Marked flags on the
// acks for the UDUM1 board.
func newDecided(commit, marked bool, sites []string) *decided {
	d := &decided{commit: commit, trackMarks: !commit && marked, pending: make(map[string]bool, len(sites))}
	for _, s := range sites {
		d.pending[s] = true
	}
	return d
}

// adoptPrior returns id's recorded decision with sites joined to its
// pending participants or, when none is recorded, installs d (unless nil)
// and returns nil. A recorded decision is durable, so it is adopted rather
// than logged again — and still delivered to the new participants, which
// recovery's own delivery pass may not have named. Decisions are
// idempotent, so re-sending is safe.
func (c *Coordinator) adoptPrior(id string, sites []string, d *decided) *decided {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prior, ok := c.decided[id]; ok {
		for _, s := range sites {
			prior.pending[s] = true
		}
		return prior
	}
	if d != nil {
		c.decided[id] = d
		c.stats.Decided.Set(int64(len(c.decided)))
	}
	return nil
}

// reached reports a decision that took effect for the first time: the
// trace event and the transaction's fate in the recorded history.
func (c *Coordinator) reached(id string, commit bool, detail string) {
	c.tracer.Emit(c.cfg.Name, trace.EvDecisionReached, id, "", detail)
	if rec := c.cfg.Recorder; rec != nil {
		fate := history.FateAborted
		if commit {
			fate = history.FateCommitted
		}
		rec.SetFate(id, fate)
	}
}

// deliverDecision sends the decision to all pending participants in
// parallel and synchronously retries unreachable ones until ctx expires;
// remaining deliveries continue in the background so Run can return.
func (c *Coordinator) deliverDecision(ctx context.Context, id string, d *decided) {
	c.mu.Lock()
	sites := make([]string, 0, len(d.pending))
	for s := range d.pending {
		sites = append(sites, s)
	}
	commit := d.commit
	c.mu.Unlock()
	// Deterministic spawn order: under a virtual clock, goroutine start
	// order influences which link RNG draws first.
	sort.Strings(sites)

	deliverStart := c.clock.Now()
	g := sim.NewGroup(c.clock)
	for _, site := range sites {
		site := site
		g.Go(func() {
			c.sendDecisionUntilAcked(ctx, id, site, commit, d, 0)
		})
	}
	g.Wait()
	if len(sites) > 0 {
		c.stats.PhaseDeliver.ObserveDuration(c.clock.Since(deliverStart))
	}

	// Once every participant has acked an abort, the marked-site set is
	// final and the UDUM1 board can start looking for completion.
	c.mu.Lock()
	finalize := d.trackMarks && len(d.pending) == 0
	if finalize {
		d.trackMarks = false // finalize exactly once
	}
	c.mu.Unlock()
	if finalize {
		c.board.FinalizeMarked(id)
	}
	c.forgetIfDone(ctx, id, d)
}

// forgetIfDone logs END for id and forgets it once every participant has
// acked the decision and reported its record of it durable: no participant
// is in doubt about it then, so none will ask (see Handle). A P1 abort
// waits for its marked-site set to be final, a transaction whose run is
// still deciding waits for the run (see decide), and while a recovery
// reads the log and the sites the forget waits in held (see hold).
func (c *Coordinator) forgetIfDone(ctx context.Context, id string, d *decided) {
	c.mu.Lock()
	done := len(d.pending) == 0 && d.unsynced == 0 && !d.trackMarks && !d.ended && !c.deciding[id]
	if done && c.holds > 0 {
		c.held = append(c.held, heldForget{id: id, d: d})
		done = false
	}
	if done {
		d.ended = true // end exactly once
		if c.decided[id] == d {
			delete(c.decided, id)
			c.stats.Decided.Set(int64(len(c.decided)))
		}
	}
	c.mu.Unlock()
	if done {
		c.end(ctx, id)
	}
}

// heldForget is a forget deferred while recovery holds forgetting.
type heldForget struct {
	id string
	d  *decided
}

// hold stops forgetting until the matching release, for Recover. A
// transaction recovery presumes aborted may meanwhile be decided by a run
// that passed its incarnation check before the recovery began, delivered,
// acked and forgotten; recovery would then presume abort over a decision
// nobody holds any more. Holding forgets from before the decision log is
// read until the presumed aborts are logged keeps every such decision
// where recovery looks for it.
func (c *Coordinator) hold() {
	c.mu.Lock()
	c.holds++
	c.mu.Unlock()
}

// release ends a hold and, with the last one, runs the forgets it held.
func (c *Coordinator) release(ctx context.Context) {
	c.mu.Lock()
	c.holds--
	var held []heldForget
	if c.holds == 0 {
		held, c.held = c.held, nil
	}
	c.mu.Unlock()
	for _, h := range held {
		c.forgetIfDone(ctx, h.id, h.d)
	}
}

// end logs id's END record. A failed append is not acted on: the decision
// stays in the log and a restart re-delivers it once more, idempotently.
func (c *Coordinator) end(ctx context.Context, id string) {
	//o2pcvet:ignore errflow -- see above: a lost END costs one idempotent re-delivery after a restart
	_ = c.dlog.End(ctx, id)
}

// sendDecisionUntilAcked delivers one decision, re-queuing undelivered
// unmark notices on failure. sync is the site's LSN of its record of the
// decision when this is a re-send to make that record durable (0 if not).
func (c *Coordinator) sendDecisionUntilAcked(ctx context.Context, id, site string, commit bool, d *decided, sync uint64) {
	for {
		unmarks := c.board.DrainUnmarks(site)
		msg := proto.Decision{TxnID: id, Commit: commit, Unmarks: unmarks, Sync: sync}
		c.tracer.Emit(c.cfg.Name, trace.EvDecisionSend, id, site, wal.DecisionAux(commit))
		raw, err := c.caller.Call(ctx, c.cfg.Name, site, msg)
		if err == nil {
			if ack, ok := raw.(proto.Ack); ok {
				c.tracer.Emit(c.cfg.Name, trace.EvDecisionAck, id, site, "")
				c.mu.Lock()
				delete(d.pending, site)
				track := d.trackMarks
				confirmed := c.noteSynced(id, site, d, ack)
				c.mu.Unlock()
				if track && ack.Marked {
					c.board.AddMarked(id, site)
				}
				for _, u := range confirmed {
					c.forgetIfDone(ctx, u.id, u.d)
				}
				if ack.LSN != 0 {
					//o2pcvet:ignore goleak -- it ends at Close, or when the coordinator crashes
					c.clock.Go(func() { c.confirmLater(c.life, id, site, d) })
				}
				return
			}
		}
		// Delivery failed: the unmark notices were not applied; requeue.
		c.board.Requeue(site, unmarks)
		if c.Crashed() {
			return // recovery re-sends
		}
		if err := c.clock.Sleep(ctx, decisionRetry); err != nil {
			return
		}
	}
}

// unsyncedAck is an ack whose site had not yet made its record of the
// decision durable: the record's LSN and the site incarnation it belongs to.
type unsyncedAck struct {
	id        string
	d         *decided
	boot, lsn uint64
}

// noteSynced records what ack, from site for id's decision d, says about
// durability. Under c.mu. The ack replaces any earlier unsynced ack of the
// same site for id, and joins the site's unsynced acks if its record is not
// yet durable. Every unsynced ack of the same site incarnation whose record
// ack.Synced covers is confirmed, and the ones that were their decision's
// last are returned, for the caller to forget.
func (c *Coordinator) noteSynced(id, site string, d *decided, ack proto.Ack) []unsyncedAck {
	acks := c.unsynced[site]
	if a, ok := acks[id]; ok {
		delete(acks, id)
		a.d.unsynced--
	}
	if ack.LSN != 0 {
		if acks == nil {
			acks = make(map[string]unsyncedAck)
			c.unsynced[site] = acks
		}
		acks[id] = unsyncedAck{id: id, d: d, boot: ack.Boot, lsn: ack.LSN}
		d.unsynced++
	}
	var confirmed []unsyncedAck
	for aid, a := range acks {
		if a.boot == ack.Boot && a.lsn <= ack.Synced {
			delete(acks, aid)
			if a.d.unsynced--; a.d.unsynced == 0 {
				confirmed = append(confirmed, a)
			}
		}
	}
	return confirmed
}

// confirmLater re-sends id's decision to site if, decisionConfirm after
// the site acked it with its record not yet durable, no later ack has
// reported the record durable. Under traffic a later ack usually has; an
// idle site forces its log for the re-send (proto.Decision.Sync).
func (c *Coordinator) confirmLater(ctx context.Context, id, site string, d *decided) {
	if c.clock.Sleep(ctx, decisionConfirm) != nil {
		return
	}
	c.mu.Lock()
	a, ok := c.unsynced[site][id]
	commit := d.commit
	c.mu.Unlock()
	if !ok || a.d != d {
		return
	}
	c.sendDecisionUntilAcked(ctx, id, site, commit, d, a.lsn)
	c.forgetIfDone(ctx, id, d)
}

// Recover restarts a crashed coordinator: undecided transactions are
// presumed aborted (their participants may be blocked waiting — this is
// the moment 2PC participants finally unblock), and decided-but-
// undelivered transactions have their decisions re-sent.
//
// The undecided transactions are those the decision log holds a BEGIN but
// no decision for, and those the sites report (scan) that an older
// incarnation shipped and that have no decision: the log may hold no
// record of them, since LocalLog's BEGIN is not forced and a replicated
// log records nothing before the decision. Every site in Config.Sites is
// scanned before runs are admitted; one that cannot be reached is retried
// in the background (rescan).
func (c *Coordinator) Recover(ctx context.Context) error {
	c.tracer.Emit(c.cfg.Name, trace.EvRecover, "", "", "")
	// A new incarnation before the log is read: a run still in flight
	// decides abort from here on (see decide), so any decision that lands
	// after the read agrees with the presumed aborts below.
	inc, known := c.advance(0)
	// Forgetting is held until the presumed aborts are logged (see hold).
	c.hold()
	held := true
	defer func() {
		if held {
			c.release(ctx)
		}
	}()
	// With a replicated decision log this is leader takeover: Snapshot
	// claims a fresh term, reads a majority of replicas, and finishes any
	// decision that was majority-acked but possibly undelivered — those
	// come back in decidedLog exactly like locally-logged ones.
	begunRecs, decidedLog, err := c.dlog.Snapshot(ctx)
	if err != nil {
		return err
	}
	begun := make(map[string]BeginRecord, len(begunRecs))
	for _, b := range begunRecs {
		// A session re-logs its BEGIN as it grows; a presumed abort's BEGIN
		// may name only the site that reported it. The delivery set is the
		// union.
		b.Sites = unionSites(begun[b.TxnID].Sites, b.Sites)
		begun[b.TxnID] = b
	}
	reports, unscanned, latest := c.scanAll(ctx, inc)
	for latest > inc {
		// A site has seen a later incarnation of this coordinator: an
		// earlier life's clock read later than this one's. Move past it and
		// scan again, so that the sites fence that life's execs and its
		// transactions count as older.
		var deciding map[string]bool
		inc, deciding = c.advance(latest)
		maps.Copy(known, deciding)
		reports, unscanned, latest = c.scanAll(ctx, inc)
	}
	r := &recovery{inc: inc, known: known, orphans: make(map[string]bool)}
	for i, site := range c.cfg.Sites {
		for _, t := range reports[i] {
			if t.Incarnation == inc {
				continue // a run of this incarnation
			}
			b, ok := begun[t.TxnID]
			if !ok {
				if _, decided := decidedLog[t.TxnID]; !decided {
					r.orphans[t.TxnID] = true
				}
				b = BeginRecord{TxnID: t.TxnID, Marking: t.Marking}
			}
			b.Sites = unionSites(b.Sites, []string{site})
			begun[t.TxnID] = b
		}
	}

	c.mu.Lock()
	c.crashed = false
	clear(c.unsynced)
	c.stats.UnscannedSites.Set(int64(len(unscanned)))
	// Rebuild the decided set from the log; in-memory ack state is lost,
	// so every participant of every decided transaction not yet ended is
	// re-notified (decisions are idempotent at the sites, and the Marked
	// flags on the fresh acks rebuild the UDUM1 board's view).
	for id, commit := range decidedLog {
		b := begun[id]
		c.decided[id] = newDecided(commit, b.Marking != proto.MarkNone, b.Sites)
		known[id] = true
	}
	c.stats.Decided.Set(int64(len(c.decided)))
	var presume []string
	for id := range begun {
		if _, ok := decidedLog[id]; !ok {
			presume = append(presume, id)
		}
	}
	c.mu.Unlock()
	// Presume in id order: map iteration order would make the WAL record
	// sequence (and hence the trace) differ between same-seed runs.
	sort.Strings(presume)

	// Presumed abort for undecided transactions. The decided map — not the
	// log snapshot read above — is re-checked: a run that was in flight
	// across the crash may have decided the transaction since, and a
	// decision, once made, is final.
	for _, id := range presume {
		c.mu.Lock()
		_, ok := c.decided[id]
		c.mu.Unlock()
		if ok {
			continue
		}
		b := begun[id]
		if _, err := c.presumeAbort(ctx, id, b.Sites, b.Marking, r.orphans[id]); err != nil {
			return err
		}
	}
	if err := c.dlog.Sync(ctx); err != nil {
		return fmt.Errorf("coord %s: syncing presumed aborts: %w", c.cfg.Name, err)
	}
	held = false
	c.release(ctx)

	for _, site := range unscanned {
		site := site
		//o2pcvet:ignore goleak -- it ends once the site answers, at Close, or when a crash or a later recovery supersedes it
		c.clock.Go(func() { c.rescan(c.life, site, r) })
	}

	// Re-deliver everything not yet ended, in deterministic id order. A
	// decision with no participant left to ack is ended straight away.
	c.mu.Lock()
	toDeliver := make(map[string]*decided, len(c.decided))
	for id, d := range c.decided {
		toDeliver[id] = d
	}
	c.mu.Unlock()
	ids := make([]string, 0, len(toDeliver))
	for id := range toDeliver {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	g := sim.NewGroup(c.clock)
	for _, id := range ids {
		id, d := id, toDeliver[id]
		g.Go(func() {
			c.deliverDecision(ctx, id, d)
		})
	}
	g.Wait()
	return nil
}

// recovery is what a recovery of incarnation inc hands to the background
// scans of the sites it could not reach (see presumeReported).
type recovery struct {
	inc uint64
	// known holds the transactions that may commit: those a run was
	// deciding, and those the decision log held a decision for. The
	// recovery or their runs deliver their decisions to every participant.
	known map[string]bool
	// orphans holds the transactions only the sites told the recovery of;
	// it presumed them aborted and counted them.
	orphans map[string]bool
}

// advance moves the coordinator to a new incarnation, later than the
// current one and than past, and returns it with the transactions whose
// runs are deciding.
func (c *Coordinator) advance(past uint64) (uint64, map[string]bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.incarnation = max(nextIncarnation(c.incarnation, c.clock.Now()), past+1)
	return c.incarnation, maps.Clone(c.deciding)
}

// presumeAbort decides id by presumed abort, with sites as its delivery
// set, and returns the decision that took effect. Callers make sure no run
// can still commit id, or that one deciding it is racing this call: the
// decision log settles that race itself (PresumeAbort returns the decision
// that won), so a run's commit is never contradicted, and a decision
// already held is adopted with sites added to its delivery set. The BEGIN
// is logged again first, so the log holds the delivery set the sites
// reported. orphan counts an abort the sites alone told of. The caller
// syncs the log.
func (c *Coordinator) presumeAbort(ctx context.Context, id string, sites []string, marking proto.MarkProtocol, orphan bool) (*decided, error) {
	if err := c.dlog.Begin(ctx, id, sites, marking); err != nil {
		return nil, fmt.Errorf("coord %s: logging begin for %s: %w", c.cfg.Name, id, err)
	}
	chosen, err := c.dlog.PresumeAbort(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("coord %s: logging presumed abort for %s: %w", c.cfg.Name, id, err)
	}
	d := newDecided(chosen, marking != proto.MarkNone, sites)
	if prior := c.adoptPrior(id, sites, d); prior != nil {
		return prior, nil
	}
	detail := "abort presumed"
	if chosen {
		detail = wal.DecisionAux(chosen)
	} else if orphan {
		c.stats.RecoveryOrphans.Inc()
	}
	c.reached(id, chosen, detail)
	return d, nil
}

// scanAll scans every site of Config.Sites at once, returning each one's
// report by index, in order the sites that did not answer, and the latest
// incarnation the others have seen.
func (c *Coordinator) scanAll(ctx context.Context, inc uint64) (reports [][]proto.ScanTxn, unscanned []string, latest uint64) {
	replies := make([]proto.ScanReply, len(c.cfg.Sites))
	failed := make([]bool, len(c.cfg.Sites))
	g := sim.NewGroup(c.clock)
	for i, site := range c.cfg.Sites {
		i, site := i, site
		g.Go(func() {
			var err error
			replies[i], err = c.scan(ctx, site, inc)
			failed[i] = err != nil
		})
	}
	g.Wait()
	reports = make([][]proto.ScanTxn, len(c.cfg.Sites))
	for i, site := range c.cfg.Sites {
		if failed[i] {
			unscanned = append(unscanned, site)
		}
		reports[i], latest = replies[i].Txns, max(latest, replies[i].Latest)
	}
	return reports, unscanned, latest
}

// scan asks site for the undecided subtransactions this coordinator
// shipped, and raises the site's incarnation floor for it to inc.
func (c *Coordinator) scan(ctx context.Context, site string, inc uint64) (proto.ScanReply, error) {
	cctx, cancel := c.clock.WithTimeout(ctx, scanTimeout)
	defer cancel()
	raw, err := c.caller.Call(cctx, c.cfg.Name, site, proto.ScanRequest{Incarnation: inc})
	if err == nil {
		if rep, ok := raw.(proto.ScanReply); ok {
			c.tracer.Emit(c.cfg.Name, trace.EvRecoverScan, "", site, "txns="+strconv.Itoa(len(rep.Txns)))
			return rep, nil
		}
		err = fmt.Errorf("coord: scan of %s: unexpected reply %T", site, raw)
	}
	c.tracer.Emit(c.cfg.Name, trace.EvRecoverScan, "", site, "unreachable")
	return proto.ScanReply{}, err
}

// rescan retries the recovery scan of a site recovery r could not reach,
// until the site answers, then presumes abort for the orphans it reports
// and delivers their decisions, as Recover does. It gives up when the
// coordinator crashes or a later recovery, which scans the site itself,
// supersedes r.
func (c *Coordinator) rescan(ctx context.Context, site string, r *recovery) {
	for c.clock.Sleep(ctx, scanRetry) == nil {
		if c.superseded(r.inc) {
			return
		}
		rep, err := c.scan(ctx, site, r.inc)
		if err != nil {
			continue
		}
		c.mu.Lock()
		current := !c.crashed && c.incarnation == r.inc
		if current {
			c.stats.UnscannedSites.Dec()
		}
		c.mu.Unlock()
		switch {
		case !current:
		case rep.Latest > r.inc:
			// As in Recover: an earlier life ran at a later incarnation. A
			// new recovery moves past it and scans every site again.
			err = c.Recover(ctx)
		default:
			err = c.presumeReported(ctx, site, r, rep.Txns)
		}
		if err != nil {
			// A decision log that fails is the coordinator's crash, and the
			// recovery after it scans the site again.
			c.mu.Lock()
			c.crashed = true
			c.mu.Unlock()
			c.tracer.Emit(c.cfg.Name, trace.EvCrash, "", "", "rescan: "+err.Error())
		}
		return
	}
}

// presumeReported decides and delivers the transactions of an older
// incarnation that a background scan of site, for recovery r, reported.
//
// The report may be stale by the time it is acted on: a transaction it
// names may have been decided, delivered, acked and forgotten since. A
// decision still held gains the site as a participant. Of the others, a
// transaction r knows may commit was delivered by r or by its run, to
// every participant, so the report is stale. Every other transaction had
// no decision at r and no run that could still commit it, so abort is the
// only decision it can have, and presuming it is harmless — again, when r
// presumed it for the sites that answered and has forgotten it since, and
// this site was one of its participants too.
func (c *Coordinator) presumeReported(ctx context.Context, site string, r *recovery, txns []proto.ScanTxn) error {
	sites := []string{site}
	for _, t := range txns {
		if t.Incarnation == r.inc {
			continue
		}
		d := c.adoptPrior(t.TxnID, sites, nil)
		if d == nil {
			if r.known[t.TxnID] {
				continue
			}
			var err error
			if d, err = c.presumeAbort(ctx, t.TxnID, sites, t.Marking, !r.orphans[t.TxnID]); err == nil {
				err = c.dlog.Sync(ctx)
			}
			if err != nil {
				return err
			}
		}
		c.deliverDecision(ctx, t.TxnID, d)
	}
	return nil
}

// superseded reports whether the coordinator crashed or recovered again
// since the recovery of incarnation inc.
func (c *Coordinator) superseded(inc uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed || c.incarnation != inc
}

// unionSites returns a with the sites of b it lacks appended, in a fresh
// slice when any are.
func unionSites(a, b []string) []string {
	for _, s := range b {
		if !slices.Contains(a, s) {
			a = append(slices.Clip(a), s)
		}
	}
	return a
}

// splitBeginAux parses a RecBegin Aux of the form "s0,s1|P1".
func splitBeginAux(aux string) (sites []string, marking string) {
	if i := strings.LastIndexByte(aux, '|'); i >= 0 {
		aux, marking = aux[:i], aux[i+1:]
	}
	for _, s := range strings.Split(aux, ",") {
		if s != "" {
			sites = append(sites, s)
		}
	}
	return sites, marking
}

// markingRetries applies the default budget of retryable R1 rejections
// absorbed per subtransaction.
func markingRetries(n int) int {
	if n == 0 {
		return 3
	}
	return n
}
