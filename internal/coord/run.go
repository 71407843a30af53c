package coord

import (
	"context"
	"fmt"
	"sort"
	"time"

	"o2pc/internal/history"
	"o2pc/internal/proto"
	"o2pc/internal/sim"
	"o2pc/internal/trace"
)

// Run executes one global transaction end to end and reports its result.
// Run blocks until the transaction is resolved at the coordinator (the
// decision is logged and delivery has been attempted); decision delivery
// to unreachable participants continues in the background.
func (c *Coordinator) Run(ctx context.Context, spec TxnSpec) Result {
	start := c.clock.Now()
	c.stats.InFlight.Inc()
	res := c.run(ctx, spec)
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
	return res
}

func (c *Coordinator) run(ctx context.Context, spec TxnSpec) Result {
	if len(spec.Subtxns) == 0 {
		return Result{Err: fmt.Errorf("coord: empty transaction spec")}
	}
	id := spec.ID
	if id == "" {
		id = c.nextID()
	}
	retries := spec.MarkingRetries
	if retries == 0 {
		retries = 3
	}
	res := Result{ID: id}
	if rec := c.cfg.Recorder; rec != nil {
		rec.Declare(id, history.KindGlobal, "")
	}
	// The spec's site list and its joined form are needed several times
	// (started bookkeeping, BEGIN record, trace, abort paths); compute each
	// once. Every consumer treats the slice as read-only.
	sites := execSites(spec)
	sitesAux := joinSites(sites)
	c.mu.Lock()
	crashed := c.crashed
	c.started[id] = sites
	c.mu.Unlock()
	if crashed {
		res.Outcome = AbortedCoordinator
		res.Err = ErrCrashed
		return res
	}
	c.tracer.Emit(c.cfg.Name, trace.EvTxnBegin, id, "",
		spec.Protocol.String()+"/"+spec.Marking.String()+" sites="+sitesAux)
	// Write-ahead: without a durable BEGIN, recovery could not presume
	// abort for this transaction — so an unloggable BEGIN aborts the run
	// before any subtransaction ships. (Replicated logs require a majority
	// of replicas to hold the BEGIN before returning.)
	if err := c.dlog.Begin(ctx, id, sites, spec.Marking); err != nil {
		res.Outcome = AbortedCoordinator
		res.Err = fmt.Errorf("coord: logging begin for %s: %w", id, err)
		return res
	}

	// ---- Execution phase: subtransactions ship site by site, in spec
	// order. Marking protocols thread the accumulating transmarks through
	// them (rule R1 state), and the fixed order is also the lock
	// acquisition order across sites.
	//
	// When the protocol keeps locks at the YES vote, every subtransaction
	// also carries the VOTE-REQ: the site votes as the exec's last action
	// and the reply carries the vote, so the vote round costs no round trip
	// (and no X-lock hold time) of its own. O2PC cannot do this: its YES
	// exposes the subtransaction, which must wait until every sibling has
	// executed.
	voting := spec.Protocol.KeepsLocksAtVote()
	var collectStart time.Time
	if voting {
		collectStart = c.clock.Now()
	}
	var readOnly []bool
	var executed []string
	var transmarks []string
	visited := false
	for i, st := range spec.Subtxns {
		req := proto.ExecRequest{
			TxnID:       id,
			Ops:         st.Ops,
			Comp:        st.Comp,
			Compensator: st.Compensator,
			Protocol:    spec.Protocol,
			Marking:     spec.Marking,
			TransMarks:  transmarks,
			Visited:     visited,
			Vote:        voting,
			Last:        voting && i == len(spec.Subtxns)-1,
		}
		reply, err := c.execWithRetry(ctx, id, st.Site, req, retries, &res)
		if err != nil {
			// Site unreachable, subtransaction failed, or fatal marking
			// rejection: abort whatever already executed. The failing site
			// is included in the abort delivery — it may have executed the
			// subtransaction even though its reply was lost (decisions are
			// idempotent, so a site that never saw the request just acks).
			res.Err = err
			if res.Outcome == 0 {
				res.Outcome = AbortedExec
			}
			c.decide(ctx, id, false, append(executed, st.Site), spec)
			return res
		}
		if len(reply.Reads) > 0 {
			if res.Reads == nil {
				res.Reads = make(map[string]map[string][]byte)
			}
			res.Reads[st.Site] = reply.Reads
		}
		transmarks = reply.Marks
		visited = true
		executed = append(executed, st.Site)
		if !voting {
			continue
		}
		if reply.Vote.ReadOnly {
			if readOnly == nil {
				readOnly = make([]bool, len(spec.Subtxns))
			}
			readOnly[i] = true
		}
		if !reply.Vote.Commit {
			// A NO ends the run here: the later subtransactions never ship.
			c.stats.PhaseCollect.ObserveDuration(c.clock.Since(collectStart))
			c.commitPoint(ctx, id, executed, false, readOnly, spec, &res)
			return res
		}
	}

	if voting {
		c.stats.PhaseCollect.ObserveDuration(c.clock.Since(collectStart))
		c.commitPoint(ctx, id, executed, true, readOnly, spec, &res)
	} else {
		c.finishCommit(ctx, id, executed, spec, &res)
	}
	return res
}

// finishCommit runs the parallel vote round over the executed sites and
// then the commit point. Shared by O2PC's one-shot Run path and
// Session.Commit.
func (c *Coordinator) finishCommit(ctx context.Context, id string, executed []string, spec TxnSpec, res *Result) {
	allYes, readOnly := c.collectVotes(ctx, id, executed)
	c.commitPoint(ctx, id, executed, allYes, readOnly, spec, res)
}

// commitPoint decides a transaction whose votes are in: it drops the
// read-only participants (readOnly, when non-nil, is aligned with
// executed), fires the after-votes crash point, and logs and delivers the
// decision. It fills res.Outcome (and res.Err on coordinator failure).
func (c *Coordinator) commitPoint(ctx context.Context, id string, executed []string, allYes bool, readOnly []bool, spec TxnSpec, res *Result) {
	// Read-only participants have left the protocol; decisions go only to
	// the rest. The filtered list is a fresh slice: executed may alias the
	// run's shared site list (also held by c.started for recovery).
	if readOnly != nil {
		var rest []string
		for i, s := range executed {
			if !readOnly[i] {
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

	if !allYes {
		res.Outcome = AbortedVote
		c.decide(ctx, id, false, executed, spec)
		return
	}
	if c.decide(ctx, id, true, executed, spec) {
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
// is also observed as a vote round trip (trace and per-site histogram), as
// collectVotes observes a stand-alone one.
func (c *Coordinator) execWithRetry(ctx context.Context, id, site string, req proto.ExecRequest, retries int, res *Result) (proto.ExecReply, error) {
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
			c.stats.VoteRTT(site).ObserveDuration(c.clock.Since(sent))
			c.tracer.Emit(c.cfg.Name, trace.EvVoteRecv, id, site, voteDetail(reply.Vote.Commit, reply.Vote.ReadOnly, err))
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
			if err := c.clock.Sleep(ctx, c.cfg.MarkingRetryDelay); err != nil {
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

// collectVotes runs the vote round in parallel, feeding witness deltas to
// the board. Unreachable participants count as NO votes. It returns
// whether every participant voted YES, plus — only when some participant
// answered READ-ONLY — a slice aligned with sites marking those that have
// left the protocol and receive no decision (nil when none did, the
// common case; the vote phase used to allocate two maps and lock a mutex
// per vote here, which showed up in the contended profile).
func (c *Coordinator) collectVotes(ctx context.Context, id string, sites []string) (bool, []bool) {
	yes := make([]bool, len(sites))
	ro := make([]bool, len(sites))
	collectStart := c.clock.Now()
	vote := func(i int, site string) {
		c.tracer.Emit(c.cfg.Name, trace.EvVoteReqSend, id, site, "")
		sent := c.clock.Now()
		raw, err := c.caller.Call(ctx, c.cfg.Name, site, proto.VoteRequest{TxnID: id})
		c.stats.VoteRTT(site).ObserveDuration(c.clock.Since(sent))
		commit, readOnly := false, false
		if err == nil {
			if reply, ok := raw.(proto.VoteReply); ok {
				commit, readOnly = reply.Commit, reply.ReadOnly
				for _, w := range reply.Witnesses {
					c.board.AddWitness(w.Forward, w.Site)
				}
			}
		}
		c.tracer.Emit(c.cfg.Name, trace.EvVoteRecv, id, site, voteDetail(commit, readOnly, err))
		// Each task owns its index; no lock needed.
		yes[i], ro[i] = commit, readOnly
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
	allYes, anyRO := true, false
	for i := range sites {
		allYes = allYes && yes[i]
		anyRO = anyRO || ro[i]
	}
	if !anyRO {
		ro = nil
	}
	return allYes, ro
}

// decide logs the decision, registers abort bookkeeping, and delivers the
// decision to every executed participant, retrying in the background until
// each acks. It returns the decision that actually took effect: if a
// concurrent recovery already decided this transaction (presumed abort
// while the run was still in flight), that durable decision wins — logging
// a second, possibly contradictory record would let participants apply
// divergent outcomes.
func (c *Coordinator) decide(ctx context.Context, id string, commit bool, executed []string, spec TxnSpec) bool {
	if prior, done := c.adoptPrior(id, commit, executed); done {
		if prior == nil {
			// No participant ever executed: nothing to deliver or log.
			return commit
		}
		if !c.checkCrash(id, CrashAfterDecisionLogged) {
			c.deliverDecision(ctx, id, prior)
		}
		return prior.commit
	}
	// Durability happens outside c.mu: a replicated decision log runs a
	// majority network round here, and the coordinator must keep serving
	// resolve inquiries (and other runs) meanwhile. The log itself
	// serializes racing writers and returns the decision that won.
	chosen, err := c.dlog.Decide(ctx, id, commit)
	if err != nil {
		// The decision cannot be made durable, so it must not be announced:
		// a coordinator that cannot write its log is crashed (participants
		// fall back to resolve inquiries, and recovery — with a working
		// log — will presume abort). For a commit intent the caller reports
		// AbortedCoordinator.
		c.mu.Lock()
		c.crashed = true
		c.mu.Unlock()
		c.tracer.Emit(c.cfg.Name, trace.EvCrash, id, "", "wal: "+err.Error())
		return false
	}
	commit = chosen
	c.mu.Lock()
	if prior, ok := c.decided[id]; ok {
		// A recovery pass decided this transaction while the durability
		// round was in flight; the decision log already reconciled the two
		// writes (first-writer-wins locally, consensus when replicated), so
		// prior.commit == chosen. Merge this run's participants in and
		// deliver.
		for _, s := range executed {
			prior.pending[s] = true
		}
		c.mu.Unlock()
		if !c.checkCrash(id, CrashAfterDecisionLogged) {
			c.deliverDecision(ctx, id, prior)
		}
		return prior.commit
	}
	c.tracer.Emit(c.cfg.Name, trace.EvDecisionReached, id, "", decisionAux(commit))
	d := &decided{
		commit:     commit,
		trackMarks: !commit && spec.Marking != proto.MarkNone,
		pending:    make(map[string]bool, len(executed)),
	}
	for _, s := range executed {
		d.pending[s] = true
	}
	c.decided[id] = d
	delete(c.started, id)
	c.mu.Unlock()

	if rec := c.cfg.Recorder; rec != nil {
		if commit {
			rec.SetFate(id, history.FateCommitted)
		} else {
			rec.SetFate(id, history.FateAborted)
		}
	}

	if c.checkCrash(id, CrashAfterDecisionLogged) {
		return commit // recovery will re-send
	}
	c.deliverDecision(ctx, id, d)
	return commit
}

// adoptPrior consults the in-memory decided map before any durability
// work and returns done=true when the caller must not write the log. Two
// cases end there: the transaction is already decided (a recovery pass
// presumed abort while the run was in flight — the durable record exists,
// the run's participants are merged into its pending set, and the prior
// is returned for immediate delivery), or no participant ever executed
// (a memory-only entry keeps resolve inquiries answerable; nil, true).
func (c *Coordinator) adoptPrior(id string, commit bool, executed []string) (*decided, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prior, ok := c.decided[id]; ok {
		// Recovery owns this transaction: its decision is logged, so adopt
		// it — but still deliver it to this run's participants. Recovery's
		// own delivery pass may have preceded a late-executing site (the
		// site acked the decision as unknown before the subtransaction
		// landed), leaving it holding locks with no decision and no
		// resolver armed. Decisions are idempotent, so re-sending is safe.
		for _, s := range executed {
			prior.pending[s] = true
		}
		return prior, true
	}
	if len(executed) == 0 {
		c.decided[id] = &decided{commit: commit, pending: map[string]bool{}}
		delete(c.started, id)
		return nil, true
	}
	return nil, false
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
			c.sendDecisionUntilAcked(ctx, id, site, commit, d)
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
}

// sendDecisionUntilAcked delivers one decision, re-queuing undelivered
// unmark notices on failure.
func (c *Coordinator) sendDecisionUntilAcked(ctx context.Context, id, site string, commit bool, d *decided) {
	for {
		unmarks := c.board.DrainUnmarks(site)
		msg := proto.Decision{TxnID: id, Commit: commit, Unmarks: unmarks}
		c.tracer.Emit(c.cfg.Name, trace.EvDecisionSend, id, site, decisionAux(commit))
		raw, err := c.caller.Call(ctx, c.cfg.Name, site, msg)
		if err == nil {
			if ack, ok := raw.(proto.Ack); ok {
				c.tracer.Emit(c.cfg.Name, trace.EvDecisionAck, id, site, "")
				c.mu.Lock()
				delete(d.pending, site)
				track := d.trackMarks
				c.mu.Unlock()
				if track && ack.Marked {
					c.board.AddMarked(id, site)
				}
				return
			}
		}
		// Delivery failed: the unmark notices were not applied; requeue.
		c.board.Requeue(site, unmarks)
		if c.Crashed() {
			return // recovery re-sends
		}
		if err := c.clock.Sleep(ctx, c.cfg.DecisionRetry); err != nil {
			return
		}
	}
}

// Recover restarts a crashed coordinator: undecided transactions are
// presumed aborted (their participants may be blocked waiting — this is
// the moment 2PC participants finally unblock), and decided-but-
// undelivered transactions have their decisions re-sent.
func (c *Coordinator) Recover(ctx context.Context) error {
	c.tracer.Emit(c.cfg.Name, trace.EvRecover, "", "", "")
	// With a replicated decision log this is leader takeover: Snapshot
	// claims a fresh term, reads a majority of replicas, and finishes any
	// decision that was majority-acked but possibly undelivered — those
	// come back in decidedLog exactly like locally-logged ones.
	begunRecs, decidedLog, err := c.dlog.Snapshot(ctx)
	if err != nil {
		return err
	}
	begun := make(map[string][]string, len(begunRecs))
	wasP1 := make(map[string]bool, len(begunRecs))
	for _, b := range begunRecs {
		begun[b.TxnID] = b.Sites
		wasP1[b.TxnID] = b.Marking != "" && b.Marking != proto.MarkNone.String()
	}

	c.mu.Lock()
	c.crashed = false
	// Rebuild the decided set from the log; in-memory ack state is lost,
	// so every participant of every decided transaction is re-notified
	// (decisions are idempotent at the sites, and the Marked flags on the
	// fresh acks rebuild the UDUM1 board's view).
	for id, commit := range decidedLog {
		c.decided[id] = &decided{
			commit:     commit,
			trackMarks: !commit && wasP1[id],
			pending:    toSet(begun[id]),
		}
	}
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
	// decision, once made, is final. The decision log resolves the
	// remaining race window itself (PresumeAbort returns the decision that
	// actually took effect), so a run's commit can never be contradicted.
	for _, id := range presume {
		c.mu.Lock()
		if _, ok := c.decided[id]; ok {
			c.mu.Unlock()
			continue
		}
		c.mu.Unlock()
		chosen, err := c.dlog.PresumeAbort(ctx, id)
		if err != nil {
			return fmt.Errorf("coord %s: logging presumed abort for %s: %w", c.cfg.Name, id, err)
		}
		c.mu.Lock()
		if _, ok := c.decided[id]; ok {
			c.mu.Unlock()
			continue
		}
		c.decided[id] = &decided{
			commit:     chosen,
			trackMarks: !chosen && wasP1[id],
			pending:    toSet(begun[id]),
		}
		delete(c.started, id)
		c.mu.Unlock()
		detail := "abort presumed"
		if chosen {
			detail = decisionAux(chosen)
		}
		c.tracer.Emit(c.cfg.Name, trace.EvDecisionReached, id, "", detail)
		if rec := c.cfg.Recorder; rec != nil {
			if chosen {
				rec.SetFate(id, history.FateCommitted)
			} else {
				rec.SetFate(id, history.FateAborted)
			}
		}
	}
	if err := c.dlog.Sync(ctx); err != nil {
		return fmt.Errorf("coord %s: syncing presumed aborts: %w", c.cfg.Name, err)
	}

	// Re-deliver everything still pending, in deterministic id order.
	c.mu.Lock()
	toDeliver := make(map[string]*decided)
	for id, d := range c.decided {
		if len(d.pending) > 0 {
			toDeliver[id] = d
		}
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

func decisionAux(commit bool) string {
	if commit {
		return "commit"
	}
	return "abort"
}

// voteDetail spells a vote-round reply for trace details.
func voteDetail(commit, readOnly bool, err error) string {
	switch {
	case err != nil:
		return "unreachable"
	case readOnly:
		return "read-only"
	case commit:
		return "yes"
	default:
		return "no"
	}
}

func joinSites(sites []string) string {
	if len(sites) == 0 {
		return ""
	}
	n := len(sites) - 1
	for _, s := range sites {
		n += len(s)
	}
	b := make([]byte, 0, n)
	for i, s := range sites {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, s...)
	}
	return string(b)
}

func splitSites(aux string) []string {
	if aux == "" {
		return nil
	}
	var out []string
	start := 0
	for i := 0; i <= len(aux); i++ {
		if i == len(aux) || aux[i] == ',' {
			if i > start {
				out = append(out, aux[start:i])
			}
			start = i + 1
		}
	}
	return out
}

// splitBeginAux parses a RecBegin Aux of the form "s0,s1|P1".
func splitBeginAux(aux string) (sites []string, marking string) {
	for i := len(aux) - 1; i >= 0; i-- {
		if aux[i] == '|' {
			return splitSites(aux[:i]), aux[i+1:]
		}
	}
	return splitSites(aux), ""
}

func toSet(sites []string) map[string]bool {
	m := make(map[string]bool, len(sites))
	for _, s := range sites {
		m[s] = true
	}
	return m
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}
