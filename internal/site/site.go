// Package site implements the participant side of the commit protocols: a
// multidatabase member DBMS that executes local transactions, executes
// subtransactions of global transactions, votes, locally commits or rolls
// back, runs compensating subtransactions, and maintains the P1/P2 marking
// sets.
//
// One Site owns one txn.Manager (storage + locks + WAL) and serves the
// protocol messages of package proto. Site autonomy is preserved
// throughout: local transactions bypass every global protocol (they are
// plain strict-2PL transactions), and the site may unilaterally abort any
// subtransaction before it votes (via the abort injector or an operation
// failure).
package site

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"o2pc/internal/compensate"
	"o2pc/internal/history"
	"o2pc/internal/lock"
	"o2pc/internal/marking"
	"o2pc/internal/metrics"
	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/sim"
	"o2pc/internal/storage"
	"o2pc/internal/trace"
	"o2pc/internal/txn"
	"o2pc/internal/wal"
)

// MarkKey is the designated system key under which the site's marking set
// lives "as part of the database": every access to the marks is coupled to
// the site's lock manager through this key, exactly as Section 6.2
// prescribes, so the marking set participates in local 2PL (and in the
// deadlock scenario the paper discusses).
const MarkKey storage.Key = "__sitemarks__"

// Config parameterizes a Site.
type Config struct {
	// Name is the site's node name on the network.
	Name string
	// Compensators resolves CompCustom compensator names.
	Compensators *compensate.Registry
	// Recorder, when non-nil, captures the execution history for the
	// Section 5 verifier.
	Recorder *history.Recorder
	// ResolvePeriod is how often a blocked prepared participant re-asks
	// the coordinator for a lost decision. Defaults to 5ms.
	ResolvePeriod time.Duration
	// Clock supplies the site's notion of time (lock timeouts, resolver
	// periods, background retries). Nil defaults to the real clock.
	Clock sim.Clock
	// LockTimeout bounds lock waits during subtransaction execution.
	// Per-site waits-for detection catches local deadlocks, but a
	// distributed 2PL deadlock (a lock cycle spanning sites) is invisible
	// to every individual site; the classical remedy — which this
	// implementation adopts — is timing out the wait and aborting the
	// global transaction. Defaults to 250ms. Local transactions and
	// compensating transactions are not subject to it (their lock scopes
	// are single-site, where the waits-for detector suffices).
	LockTimeout time.Duration
	// Log overrides the WAL (defaults to an in-memory log).
	Log wal.Log
	// Tracer, when non-nil, records the site's protocol steps (exec,
	// vote, local commit, decision, compensation) and its WAL writes.
	Tracer *trace.Tracer
}

// Stats exposes the site's protocol counters.
type Stats struct {
	Execs          *metrics.Counter
	RejectsRetry   *metrics.Counter
	RejectsFatal   *metrics.Counter
	ExecFailures   *metrics.Counter
	VotesYes       *metrics.Counter
	VotesNo        *metrics.Counter
	Commits        *metrics.Counter // subtransactions committed: at the decision, or at a read-only exit
	Aborts         *metrics.Counter
	Compensations  *metrics.Counter
	Rollbacks      *metrics.Counter
	LocalTxns      *metrics.Counter
	RevalidateFail *metrics.Counter
	// Recoveries counts completed Recover runs (site restarts).
	Recoveries *metrics.Counter
	// RecoveredInDoubt counts prepared-undecided subtransactions rebuilt
	// from the WAL by Recover (the 2PC blocking window).
	RecoveredInDoubt *metrics.Counter
	// RecoveredExposed counts exposed-undecided subtransactions rebuilt
	// from RecExposed records by Recover (the O2PC window).
	RecoveredExposed *metrics.Counter
	// ResumedCompensations counts compensating transactions re-run by
	// Recover after a crash interrupted them (or preempted their start).
	ResumedCompensations *metrics.Counter
	// PendingGlobal gauges the global subtransactions currently tracked
	// at this site (executed / prepared / locally committed, undecided).
	PendingGlobal *metrics.Gauge
	// ExposureDuration measures the O2PC exposure window per decided
	// subtransaction: local commit (lock release at the YES vote) to the
	// decision's arrival. Multi-shot sessions lengthen it only indirectly —
	// the window opens at the vote, after every round — but a longer
	// session keeps more concurrent transactions exposed at once, and
	// experiment E12 reads this histogram to show the distribution.
	ExposureDuration *metrics.Histogram
	// ExposureCommit and ExposureAbort split ExposureDuration by decision
	// outcome: a committed window closed harmlessly, an aborted one is
	// exactly the interval during which removable effects leaked and a
	// compensation became necessary (the paper's Section 5 criterion).
	ExposureCommit *metrics.Histogram
	ExposureAbort  *metrics.Histogram
	// CompensationDuration measures each compensating transaction CTik
	// from start to installed, in ms (retries included).
	CompensationDuration *metrics.Histogram
	// ReadmitRejects counts rule R1 re-admission refusals: continuation
	// rounds and session re-votes turned away because the transaction's
	// marking state is no longer compatible with the site.
	ReadmitRejects *metrics.Counter
	// Checkpoints counts completed WAL checkpoints.
	Checkpoints *metrics.Counter
	// WALRecords gauges the records in the site's log: set at every
	// decision and every checkpoint.
	WALRecords *metrics.Gauge
	// CheckpointDuration measures each checkpoint, in ms: the time the
	// log's appends wait for it.
	CheckpointDuration *metrics.Histogram
}

func newStats() *Stats {
	return &Stats{
		Execs:                &metrics.Counter{},
		RejectsRetry:         &metrics.Counter{},
		RejectsFatal:         &metrics.Counter{},
		ExecFailures:         &metrics.Counter{},
		VotesYes:             &metrics.Counter{},
		VotesNo:              &metrics.Counter{},
		Commits:              &metrics.Counter{},
		Aborts:               &metrics.Counter{},
		Compensations:        &metrics.Counter{},
		Rollbacks:            &metrics.Counter{},
		LocalTxns:            &metrics.Counter{},
		RevalidateFail:       &metrics.Counter{},
		Recoveries:           &metrics.Counter{},
		RecoveredInDoubt:     &metrics.Counter{},
		RecoveredExposed:     &metrics.Counter{},
		ResumedCompensations: &metrics.Counter{},
		PendingGlobal:        &metrics.Gauge{},
		ExposureDuration:     metrics.NewHistogram(),
		ExposureCommit:       metrics.NewHistogram(),
		ExposureAbort:        metrics.NewHistogram(),
		CompensationDuration: metrics.NewHistogram(),
		ReadmitRejects:       &metrics.Counter{},
		Checkpoints:          &metrics.Counter{},
		WALRecords:           &metrics.Gauge{},
		CheckpointDuration:   metrics.NewHistogram(),
	}
}

// Publish adopts every instrument into reg under prefixed Prometheus-style
// names, for text exposition via Registry.WriteText.
func (s *Stats) Publish(reg *metrics.Registry, prefix string) {
	reg.Adopt(prefix+"execs_total", s.Execs)
	reg.Adopt(prefix+"rejects_retry_total", s.RejectsRetry)
	reg.Adopt(prefix+"rejects_fatal_total", s.RejectsFatal)
	reg.Adopt(prefix+"exec_failures_total", s.ExecFailures)
	reg.Adopt(prefix+"votes_yes_total", s.VotesYes)
	reg.Adopt(prefix+"votes_no_total", s.VotesNo)
	reg.Adopt(prefix+"commits_total", s.Commits)
	reg.Adopt(prefix+"aborts_total", s.Aborts)
	reg.Adopt(prefix+"compensations_total", s.Compensations)
	reg.Adopt(prefix+"rollbacks_total", s.Rollbacks)
	reg.Adopt(prefix+"local_txns_total", s.LocalTxns)
	reg.Adopt(prefix+"revalidate_fail_total", s.RevalidateFail)
	reg.Adopt(prefix+"recoveries_total", s.Recoveries)
	reg.Adopt(prefix+"recovered_in_doubt_total", s.RecoveredInDoubt)
	reg.Adopt(prefix+"recovered_exposed_total", s.RecoveredExposed)
	reg.Adopt(prefix+"resumed_compensations_total", s.ResumedCompensations)
	reg.Adopt(prefix+"pending_global_txns", s.PendingGlobal)
	reg.Adopt(prefix+"exposure_duration_ms", s.ExposureDuration)
	reg.Adopt(prefix+metrics.Label("exposure_duration_ms", "outcome", "commit"), s.ExposureCommit)
	reg.Adopt(prefix+metrics.Label("exposure_duration_ms", "outcome", "abort"), s.ExposureAbort)
	reg.Adopt(prefix+"compensation_duration_ms", s.CompensationDuration)
	reg.Adopt(prefix+"readmit_rejects_total", s.ReadmitRejects)
	reg.Adopt(prefix+"checkpoints_total", s.Checkpoints)
	reg.Adopt(prefix+"wal_records", s.WALRecords)
	reg.Adopt(prefix+"checkpoint_ms", s.CheckpointDuration)
	reg.SetHelp(prefix+"exposure_duration_ms", "O2PC exposure window: local commit at YES vote to decision arrival; the unlabeled series aggregates both outcomes, abort windows required compensation")
	reg.SetHelp(prefix+"compensation_duration_ms", "compensating transaction CTik start to installed, retries included")
	reg.SetHelp(prefix+"readmit_rejects_total", "rule R1 re-admission refusals on continuation rounds and re-votes")
	reg.SetHelp(prefix+"wal_records", "records in the site's WAL: the last checkpoint plus everything appended since")
	reg.SetHelp(prefix+"checkpoint_ms", "one WAL checkpoint: the time appends wait for it")
}

// pending tracks one global transaction's subtransaction at this site.
//
// mu serializes the vote and decision handlers for this transaction: a
// stale VOTE-REQ (delayed across a coordinator crash) can race the
// recovery's presumed-abort DECISION, and without mutual exclusion the
// vote's local commit can interleave with an abort path that believes the
// subtransaction is still unexposed — silently skipping compensation.
// The resolver's scan reads coord and state under Site.mu instead, so
// their writers hold both mutexes.
type pending struct {
	req     proto.ExecRequest
	t       *txn.Txn
	updates []wal.Record // captured at local commit for compensation
	state   pendingState
	coord   string // coordinator node name: the exec's sender
	marks   []string
	// exposedAt stamps the local commit of an O2PC YES vote; the decision
	// handler measures the exposure window from it. Zero for recovered
	// entries, whose original exposure instant did not survive the crash.
	exposedAt time.Time

	mu      sync.Mutex
	decided bool // a decision has been (or is being) applied
}

type pendingState uint8

const (
	stateExecuted         pendingState = iota + 1 // ops done, awaiting VOTE-REQ
	statePrepared                                 // voted YES, locks retained (2PC / real action)
	stateLocallyCommitted                         // voted YES, locks released (O2PC)
)

// Site is one participant DBMS.
type Site struct {
	cfg    Config
	clock  sim.Clock
	mgr    *txn.Manager
	marks  *marking.LoggedMarks // undone marks (P1 / Simple), WAL-backed
	lc     *marking.LoggedMarks // locally-committed marks (P2 / Simple), WAL-backed
	stats  *Stats
	tracer *trace.Tracer

	caller rpc.Caller // for Resolve inquiries back to coordinators

	mu       sync.Mutex
	pend     map[string]*pending
	applying map[string]bool // left pend, decision still being applied
	resolved map[string]bool // txns whose decision this site has processed
	// unsynced holds, by LSN, the decision records acked before they were
	// durable; a re-sent decision is acked only once its record is.
	unsynced map[string]uint64
	// floors holds, by coordinator, what the site knows of its
	// incarnations (see handleScan). Like resolved, it does not survive a
	// crash of the site.
	floors     map[string]incarnations
	injector   func(txnID string) bool
	localSeq   uint64
	sysSeq     uint64
	crashed    bool
	recovering bool // Recover is rebuilding state from the WAL
	inflight   int  // protocol handlers currently running (drained by Recover)
	resolverOn bool // the site-wide decision-inquiry scanner is running

	ckpt wal.Trigger // when the log is due for a checkpoint

	// boot names this incarnation of the site in its acks: a restart may
	// reuse the LSNs of records it lost. lastDecision is the LSN of the
	// latest decision record, which an ack of a decision handled before
	// reports (see ack).
	boot         atomic.Uint64
	lastDecision atomic.Uint64
	// lastPrepared is the last PREPARED Aux built (see prepareAux).
	lastPrepared atomic.Pointer[preparedAux]

	// epoch is cancelled by a crash and replaced on restart: it scopes work
	// that must survive the triggering request but not the process — the
	// compensation retry loop, background mark maintenance. A real crash
	// kills those threads outright; cancelling the epoch is the in-process
	// analogue, and it is what lets Recover's handler drain terminate when
	// a handler is parked in a retry loop (its lock holder may be waiting
	// for a decision that cannot arrive while the site is closed).
	epoch       context.Context
	epochCancel context.CancelFunc
}

// NewSite assembles a site over a fresh store and lock manager.
func NewSite(cfg Config) *Site {
	if cfg.ResolvePeriod <= 0 {
		cfg.ResolvePeriod = 5 * time.Millisecond
	}
	if cfg.LockTimeout <= 0 {
		cfg.LockTimeout = 250 * time.Millisecond
	}
	clock := sim.OrReal(cfg.Clock)
	log := cfg.Log
	if log == nil {
		log = wal.NewMemoryLog()
	}
	log = trace.WrapLog(log, cfg.Tracer, cfg.Name)
	store := storage.NewStore()
	locks := lock.NewManager()
	locks.SetClock(clock)
	// Bound every blocking lock wait — execution, marking-set traffic,
	// compensation — by the lock timeout: distributed 2PL deadlocks
	// (including ones through the marking set and compensating
	// transactions) are invisible to per-site detection and are broken by
	// timing out and aborting the global transaction. Arming the deadline
	// inside the manager's wait path keeps the grant fast path free of
	// timers and derived contexts.
	locks.SetWaitTimeout(cfg.LockTimeout)
	// Persistence of compensation: compensating transactions are only
	// chosen as deadlock victims when a cycle consists solely of them.
	locks.SetVictimPriority(func(id string) int {
		if strings.HasPrefix(id, "CT") {
			return -1
		}
		return 0
	})
	mgr := txn.NewManager(cfg.Name, store, locks, log, cfg.Recorder)
	epoch, epochCancel := context.WithCancel(context.Background())
	s := &Site{
		epoch:       epoch,
		epochCancel: epochCancel,
		cfg:         cfg,
		clock:       clock,
		mgr:         mgr,
		// Marking sets are WAL-backed: every mutation logs a RecMark or
		// RecUnmark record write-ahead through the same (traced) log as
		// the store, so sitemarks.k survives a
		// site crash like the rest of the database (Section 6.2).
		marks:    marking.NewLoggedMarks(marking.NewSiteMarks(), log, wal.MarkSetUndone),
		lc:       marking.NewLoggedMarks(marking.NewSiteMarks(), log, wal.MarkSetLC),
		stats:    newStats(),
		tracer:   cfg.Tracer,
		pend:     make(map[string]*pending),
		applying: make(map[string]bool),
		resolved: make(map[string]bool),
		floors:   make(map[string]incarnations),
	}
	s.boot.Store(uint64(clock.Now().UnixNano()))
	return s
}

// Name returns the site's node name.
func (s *Site) Name() string { return s.cfg.Name }

// Manager exposes the site kernel (tests, consistency checks).
func (s *Site) Manager() *txn.Manager { return s.mgr }

// Marks exposes the undone-mark set (tests, Figure 2 audits).
func (s *Site) Marks() *marking.SiteMarks { return s.marks.Raw() }

// LCMarks exposes the locally-committed-mark set used by protocol P2 and
// the simple protocol.
func (s *Site) LCMarks() *marking.SiteMarks { return s.lc.Raw() }

// Stats returns the site's counters.
func (s *Site) Stats() *Stats { return s.stats }

// SetCaller wires the transport used for Resolve inquiries after an
// apparent coordinator failure.
func (s *Site) SetCaller(c rpc.Caller) { s.caller = c }

// SetVoteAbortInjector installs a predicate consulted at VOTE-REQ time; a
// true return makes the site exercise its autonomy and vote NO for that
// transaction.
func (s *Site) SetVoteAbortInjector(f func(txnID string) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.injector = f
}

// SetCrashed marks the site crashed for handler purposes: all inbound
// messages error until recovery. (The network's SetDown models the
// unreachability; this models loss of volatile state on a real crash via
// Recover.)
func (s *Site) SetCrashed(crashed bool) {
	s.mu.Lock()
	s.crashed = crashed
	cancel := s.epochCancel
	if !crashed && s.epoch.Err() != nil {
		// Un-crashing without Recover (tests): open a fresh epoch so
		// epoch-scoped work is not stillborn.
		s.epoch, s.epochCancel = context.WithCancel(context.Background())
	}
	s.mu.Unlock()
	if crashed {
		// Kill the up period's background work: a crash takes the
		// process's threads with it, and handlers blocked in retry loops
		// must unwind so Recover's drain can complete.
		cancel()
		s.tracer.Emit(s.cfg.Name, trace.EvCrash, "", "", "")
	}
}

// upCtx returns the context scoping work to the site's current up period.
// It is cancelled by SetCrashed(true) and replaced when the site reopens.
func (s *Site) upCtx() context.Context {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// ErrCrashed is returned by handlers while the site is crashed.
var ErrCrashed = errors.New("site: crashed")

// ErrRecovering is reported by Health while Recover is rebuilding the
// site's state from the WAL.
var ErrRecovering = errors.New("site: recovering")

// Health reports whether the site can serve protocol messages: nil when
// up, ErrCrashed while crashed, ErrRecovering while Recover is replaying
// the WAL. The ops server's /healthz maps nil to 200 and an error to 503,
// so a scraper watches the crash/recover epoch directly.
func (s *Site) Health() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.recovering:
		// Recovery marks the site crashed while it rebuilds; report the
		// more specific condition.
		return ErrRecovering
	case s.crashed:
		return ErrCrashed
	default:
		return nil
	}
}

// Ready extends Health with a WAL probe: a site whose log cannot sync
// must not take traffic — every vote and decision is write-ahead logged,
// so an unwritable WAL turns every request into an error. The ops
// server's /readyz maps nil to 200.
func (s *Site) Ready() error {
	if err := s.Health(); err != nil {
		return err
	}
	if err := s.mgr.Log().Sync(); err != nil {
		return fmt.Errorf("site %s: wal not writable: %w", s.cfg.Name, err)
	}
	return nil
}

// Handle implements rpc.Handler: the site's protocol message dispatcher.
// Handlers register as in-flight so Recover can wait for them to drain —
// the in-process analogue of "the crashed process's threads are gone by the
// time the site restarts".
func (s *Site) Handle(ctx context.Context, from string, req any) (any, error) {
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return nil, ErrCrashed
	}
	s.inflight++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.inflight--
		s.mu.Unlock()
	}()
	switch m := req.(type) {
	case proto.ExecRequest:
		return s.handleExec(ctx, from, m), nil
	case proto.VoteRequest:
		return s.handleVote(ctx, from, m), nil
	case proto.Decision:
		return s.handleDecision(ctx, m)
	case proto.ScanRequest:
		return s.handleScan(from, m), nil
	default:
		return nil, fmt.Errorf("site %s: unknown message %T", s.cfg.Name, req)
	}
}

// nextSysID returns an ID for short system transactions (mark maintenance).
func (s *Site) nextSysID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sysSeq++
	return fmt.Sprintf("sys%d@%s", s.sysSeq, s.cfg.Name)
}

// handleExec executes a subtransaction shipped by a coordinator. When the
// request carries the VOTE-REQ, a successful one-shot exec votes as its
// last action and the vote rides the reply. Every reply — success, failure
// or rejection — carries the site's pending UDUM1 witness facts, so
// unmarking is never delayed behind a vote round.
func (s *Site) handleExec(ctx context.Context, from string, req proto.ExecRequest) proto.ExecReply {
	s.stats.Execs.Inc()
	detail := ""
	if req.Round > 0 {
		detail = "round=" + strconv.Itoa(req.Round)
	}
	s.tracer.Emit(s.cfg.Name, trace.EvExecRecv, req.TxnID, "", detail)
	reply := s.execLocked(ctx, from, req)
	s.tracer.Emit(s.cfg.Name, trace.EvExecDone, req.TxnID, "", execDetail(reply))
	if reply.OK && req.Vote && req.Round == 0 {
		reply.Vote = s.vote(ctx, from, req.TxnID, req.Last)
	}
	reply.Witnesses = s.drainWitnesses()
	return reply
}

// execDetail spells an ExecReply for trace details.
func execDetail(r proto.ExecReply) string {
	switch {
	case r.OK:
		return "ok"
	case r.Rejected && r.Fatal:
		return "rejected-fatal"
	case r.Rejected:
		return "rejected-retry"
	default:
		return "failed"
	}
}

func (s *Site) execLocked(ctx context.Context, from string, req proto.ExecRequest) proto.ExecReply {
	// Fence stale requests: a subtransaction whose global transaction has
	// already been decided here (e.g. an ExecRequest delayed in the
	// network across a coordinator crash, arriving after recovery's
	// presumed-abort decision) must not execute — it would take locks and
	// write on behalf of a dead transaction. Nor may one that a recovered
	// coordinator's scan has passed by (see handleScan).
	s.mu.Lock()
	stale := s.staleLocked(from, req)
	if f := s.floors[from]; req.Incarnation > f.latest {
		f.latest = req.Incarnation
		s.floors[from] = f
	}
	open := s.pend[req.TxnID]
	s.mu.Unlock()
	if stale != "" {
		return proto.ExecReply{Err: "stale subtransaction: " + stale}
	}
	if req.Round > 0 && open != nil {
		// A session round continuing a subtransaction already open here.
		return s.execContinue(ctx, open, req)
	}

	t, err := s.mgr.Begin(req.TxnID, history.KindGlobal, "")
	if err != nil {
		return proto.ExecReply{Err: err.Error()}
	}
	reply, ran := s.admitAndRun(ctx, t, req, false)
	switch {
	case reply.OK:
		// The fence again, atomically with the registration: a decision
		// that arrived while the operations ran found nothing pending, was
		// acked as unknown and fenced the transaction. It can only be an
		// abort (a commit needs this subtransaction's vote), and the
		// coordinator may already have forgotten the transaction after that
		// ack, so no decision would ever come for an entry registered now.
		// Likewise a recovery scan that ran meanwhile did not report the
		// entry, so no recovery would ever decide it.
		s.mu.Lock()
		stale = s.staleLocked(from, req)
		if stale == "" {
			s.pend[req.TxnID] = &pending{req: req, t: t, state: stateExecuted, coord: from, marks: reply.Marks}
		}
		s.mu.Unlock()
		if stale != "" {
			s.rollbackUnexposed(t)
			return proto.ExecReply{Err: "stale subtransaction: " + stale + " while it executed"}
		}
		s.stats.PendingGlobal.Inc()
	case ran:
		// Unilateral abort before voting, or a failed revalidation. The
		// vote phase has not started, so every site of this transaction
		// still holds its locks — nothing was exposed anywhere and the
		// roll-back is atomic with the transaction under 2PL: the
		// equivalent history is the one where this subtransaction never ran
		// (committed projection), so its operations are voided rather than
		// modeled as a compensating subtransaction, and no undone mark is
		// needed.
		s.rollbackUnexposed(t)
	default:
		//o2pcvet:ignore errflow -- the reply carries the failure; nothing ran, so the abort only releases locks
		_ = t.Abort("")
	}
	return reply
}

// staleLocked reports why an exec of req from coordinator from must not
// run or register, or "" if it may: its transaction is decided here, or a
// recovery of a later incarnation of its coordinator has scanned this
// site. Callers hold s.mu.
func (s *Site) staleLocked(from string, req proto.ExecRequest) string {
	switch {
	case s.resolved[req.TxnID]:
		return "transaction decided at this site"
	case req.Incarnation < s.floors[from].floor:
		return "its coordinator recovered since"
	default:
		return ""
	}
}

// incarnations is what a site knows of one coordinator's incarnations.
type incarnations struct {
	// floor is the incarnation of the coordinator's latest recovery scan:
	// an exec of an older one is refused.
	floor uint64
	// latest is the latest incarnation seen here, from a scan, an exec or a
	// prepared entry.
	latest uint64
}

// handleScan answers a recovering coordinator's scan: the subtransactions
// of that coordinator this site holds undecided — executed, prepared or
// locally committed — with their marking and the incarnation that shipped
// them, in ID order. It raises the coordinator's incarnation floor to the
// scan's, under the same mutex: an exec of an older incarnation that is
// still running here (waiting for a lock, say) is refused when it would
// register, since the coordinator will presume abort only for what this
// reply reports. The reply's Latest tells a coordinator whose clock reads
// earlier than an earlier life's that it must move past that life.
func (s *Site) handleScan(from string, req proto.ScanRequest) proto.ScanReply {
	s.mu.Lock()
	f := s.floors[from]
	f.floor = max(f.floor, req.Incarnation)
	f.latest = max(f.latest, f.floor)
	var reply proto.ScanReply
	for _, p := range s.pend {
		if p.coord == from {
			reply.Txns = append(reply.Txns, proto.ScanTxn{
				TxnID:       p.req.TxnID,
				Marking:     p.req.Marking,
				Incarnation: p.req.Incarnation,
			})
			f.latest = max(f.latest, p.req.Incarnation)
		}
	}
	s.floors[from] = f
	reply.Latest = f.latest
	s.mu.Unlock()
	sort.Slice(reply.Txns, func(i, j int) bool { return reply.Txns[i].TxnID < reply.Txns[j].TxnID })
	return reply
}

// execContinue applies one more session round to a subtransaction already
// open at this site (multi-shot sessions, req.Round >= 1). The open
// transaction keeps its data locks across rounds, so earlier rounds' work
// stays protected through the think-time gaps; the round re-runs the R1
// admission check against the site's *current* marking state — a session is
// re-admitted on every round, which is exactly what stresses R1 against
// data marked while the session was thinking.
//
// Failure handling deliberately differs from the one-shot path: the open
// transaction is NOT rolled back here. A retryable rejection leaves the
// session intact so the coordinator's retry re-runs the same round against
// the same open transaction (a local roll-back would void the earlier
// rounds and the retry would silently restart the session); a fatal
// rejection or execution failure is reported and the coordinator's abort
// DECISION rolls the whole session back (applyAbort's stateExecuted path).
func (s *Site) execContinue(ctx context.Context, p *pending, req proto.ExecRequest) proto.ExecReply {
	s.lockPending(p)
	defer p.mu.Unlock()
	if p.decided {
		return proto.ExecReply{Err: "stale session round: transaction already decided at this site"}
	}
	if p.t == nil {
		return proto.ExecReply{Err: "session round for a subtransaction recovered from WAL; awaiting decision"}
	}
	if p.state != stateExecuted {
		return proto.ExecReply{Err: fmt.Sprintf("session round %d after the vote round", req.Round)}
	}
	reply, _ := s.admitAndRun(ctx, p.t, req, true)
	if reply.OK {
		// The accumulated request is what the vote's exposure record logs
		// and what recovery-time compensation inverts: it must cover every
		// round's operations, not just the last one's.
		p.req.Ops = append(p.req.Ops, req.Ops...)
		p.req.Round = req.Round
		p.req.TransMarks = req.TransMarks
		p.marks = reply.Marks
	}
	return reply
}

// admitAndRun executes req's operations on t under rule R1, for a one-shot
// exec and a continuation round alike: the compatibility check under a
// shared lock on MarkKey (coupling the marking set to 2PL), the UDUM1
// witness and the paper's "acceptable compromise" of Section 6.2: the
// MarkKey release before the operations and the revalidation as their last
// action. readmit counts a continuation round's refusals as re-admission
// refusals. Lock waits — the marking-set acquisition included — are
// bounded by the manager's wait timeout, so no per-execution deadline
// context is needed.
//
// On failure t stays open for the caller's clean-up; ran reports whether
// the operations ran, leaving writes to void.
func (s *Site) admitAndRun(ctx context.Context, t *txn.Txn, req proto.ExecRequest, readmit bool) (reply proto.ExecReply, ran bool) {
	checked := req.Marking != proto.MarkNone
	var merged []string
	if checked {
		if err := s.mgr.Locks().AcquireBounded(ctx, t.ID(), MarkKey, lock.Shared); err != nil {
			return proto.ExecReply{Err: err.Error()}, false
		}
		var verdict marking.Verdict
		verdict, merged = s.compatible(req.Marking, req.TransMarks, req.Visited)
		if verdict == marking.Admit {
			// Witness for UDUM1: this global transaction executed here while
			// the site was undone w.r.t. every adopted undone mark. (P2
			// carries prefixed evidence; extract its undone half.)
			if req.Marking == proto.MarkP2 {
				s.marks.RecordWitness(marking.P2UndoneSeen(merged))
			} else {
				s.marks.RecordWitness(merged)
			}
		}
		// The paper's compromise: unlock the marking set now and
		// revalidate as the subtransaction's last action. A refused exec
		// gives the fresh lock back too: a continuation round's
		// transaction stays open.
		s.mgr.Locks().Release(t.ID(), MarkKey)
		switch verdict {
		case marking.Admit:
			// Compatible: execution proceeds below.
		case marking.Retry:
			return s.refuse(s.stats.RejectsRetry, readmit, false, "marking: retryable incompatibility"), false
		case marking.Abort:
			return s.refuse(s.stats.RejectsFatal, readmit, true, "marking: incompatibility requires abort"), false
		}
	}

	reads, err := s.runOps(ctx, t, req.Ops)
	if err != nil {
		s.stats.ExecFailures.Inc()
		return proto.ExecReply{Err: err.Error()}, true
	}
	// The validation step of the early-unlock compromise, "as the last
	// action of the subtransaction" (Section 6.2) — while this
	// subtransaction still holds its locks. Any compensating transaction
	// that preceded our conflicting operations at this site published its
	// mark before releasing its locks, so it is visible here; validating
	// later (e.g. at vote time) would race with UDUM1 unmarking and could
	// admit a reader of inconsistent compensation states. Nothing was
	// exposed yet, so a failure is final for this transaction.
	if checked && !s.validateMarks(ctx, t.ID(), req.Marking, merged) {
		reason := "marking validation failed after execution"
		if readmit {
			reason = "marking validation failed after session round"
		}
		return s.refuse(s.stats.RevalidateFail, readmit, true, reason), true
	}
	return proto.ExecReply{OK: true, Reads: reads, Marks: merged}, true
}

// refuse counts an R1 refusal on c — and as a re-admission refusal for a
// continuation round — and returns its reply.
func (s *Site) refuse(c *metrics.Counter, readmit, fatal bool, reason string) proto.ExecReply {
	c.Inc()
	if readmit {
		s.stats.ReadmitRejects.Inc()
	}
	return proto.ExecReply{Rejected: true, Fatal: fatal, Reason: reason}
}

// compatible runs protocol mark's R1 compatibility check of a
// transaction's marking state against the site's current marks.
func (s *Site) compatible(mark proto.MarkProtocol, transmarks []string, visited bool) (marking.Verdict, []string) {
	switch mark {
	case proto.MarkP2:
		return marking.CompatibleP2(transmarks, visited, s.lc.Snapshot(), s.marks.Snapshot())
	case proto.MarkSimple:
		return marking.CompatibleSimple(transmarks, visited, s.marks.Snapshot(), s.lc.Snapshot())
	default:
		return marking.Compatible(transmarks, visited, s.marks.Snapshot())
	}
}

// validateMarks re-runs the compatibility check against the site's current
// marks under a fresh shared lock on the marking set; used as the
// subtransaction's last action (the validation step of the early-release
// compromise). The caller's transaction still holds its data locks.
func (s *Site) validateMarks(ctx context.Context, txnID string, mark proto.MarkProtocol, adopted []string) bool {
	if err := s.mgr.Locks().AcquireBounded(ctx, txnID, MarkKey, lock.Shared); err != nil {
		return false
	}
	defer s.mgr.Locks().Release(txnID, MarkKey)
	verdict, _ := s.compatible(mark, adopted, true)
	return verdict == marking.Admit
}

// runOps executes the operation list, returning OpRead results.
func (s *Site) runOps(ctx context.Context, t *txn.Txn, ops []proto.Operation) (map[string][]byte, error) {
	var reads map[string][]byte
	for _, op := range ops {
		key := storage.Key(op.Key)
		switch op.Kind {
		case proto.OpRead:
			v, err := t.Read(ctx, key)
			if err != nil && !storage.IsNotFound(err) {
				return nil, err
			}
			if err == nil {
				if reads == nil {
					reads = make(map[string][]byte)
				}
				reads[op.Key] = append([]byte(nil), v...)
			}
		case proto.OpWrite:
			if err := t.Write(ctx, key, op.Value); err != nil {
				return nil, err
			}
		case proto.OpDelete:
			if err := t.Delete(ctx, key); err != nil {
				return nil, err
			}
		case proto.OpAdd:
			cur, err := t.ReadInt64ForUpdate(ctx, key)
			if err != nil {
				return nil, err
			}
			next := cur + op.Delta
			if op.HasMin && next < op.Min {
				return nil, fmt.Errorf("site %s: constraint violated on %s: %d + %d < %d",
					s.cfg.Name, op.Key, cur, op.Delta, op.Min)
			}
			if err := t.WriteInt64(ctx, key, next); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("site %s: unknown operation %v", s.cfg.Name, op.Kind)
		}
	}
	return reads, nil
}

// rollbackAsCompensation rolls back an active subtransaction, attributing
// the restored versions to CTik, and (under P1 / the simple protocol)
// marks the site undone.
//
// Ordering matters: rule R2 makes the mark the LAST operation of CTik —
// it must be visible no later than the roll-back's lock release, or a
// reader could slip in, observe the restored (compensated) versions at a
// seemingly-unmarked site, and complete a regular cycle elsewhere. The
// mark is therefore set synchronously BEFORE Abort releases the locks.
// Writing it without the MarkKey lock is safe: an early mark is strictly
// conservative (it can only cause extra rejections, never admit a
// dangerous reader), and in-flight R1 checks revalidate at vote time.
func (s *Site) rollbackAsCompensation(ctx context.Context, t *txn.Txn, mark proto.MarkProtocol) {
	ctID := compensate.CTID(t.ID())
	s.tracer.Emit(s.cfg.Name, trace.EvCompBegin, t.ID(), "", "rollback as "+ctID)
	hadWrites := len(t.WriteSet()) > 0
	if mark != proto.MarkNone && hadWrites {
		// A log failure leaves the mark applied in memory (conservative);
		// the Abort append below would surface the same broken log.
		//o2pcvet:ignore errflow -- see above: conservative in-memory mark; the same broken log fails the abort append
		_ = s.marks.MarkUndone(t.ID())
	}
	//o2pcvet:ignore errflow -- decision-application is fire-and-forget: a failed undo leaves the txn pending and the resolver retries
	_ = t.Abort(ctID)
	s.stats.Rollbacks.Inc()
	s.tracer.Emit(s.cfg.Name, trace.EvCompEnd, t.ID(), "", "rollback")
	if rec := s.cfg.Recorder; rec != nil {
		rec.SetFate(ctID, history.FateCommitted)
	}
}

// rollbackUnexposed rolls back a subtransaction that was never exposed:
// every site still holds this transaction's locks (the vote phase has not
// begun, or the protocol keeps locks at the vote), and nothing could have
// observed its effects. The roll-back keeps
// the original writers of the restored versions and voids the recorded
// operations — the committed-projection history is as if the
// subtransaction never ran. This also covers stale subtransactions (an
// ExecRequest delayed across a coordinator crash, executed after the
// presumed-abort decision): their atomically-undone operations must not
// introduce serialization-graph edges for a transaction the rest of the
// system already aborted.
func (s *Site) rollbackUnexposed(t *txn.Txn) {
	//o2pcvet:ignore errflow -- nothing was exposed and no one awaits this txn; a failed undo append surfaces at the next Sync
	_ = t.Abort("")
	s.stats.Rollbacks.Inc()
	if rec := s.cfg.Recorder; rec != nil {
		rec.VoidSiteOps(s.cfg.Name, t.ID())
	}
}

// writeMark adds (or removes) the undone mark for forward under an
// exclusive lock on MarkKey, as a short system transaction. The wait is
// bounded by the lock timeout — a protocol handler must never block
// indefinitely on the marking set (a cross-site lock cycle can run through
// it) — and a failed attempt retries in the background: mark maintenance
// is idempotent and safe at any later time.
func (s *Site) writeMark(ctx context.Context, forward string, add bool, set *marking.LoggedMarks) {
	if s.tryWriteMark(ctx, forward, add, set) {
		return
	}
	// Retries are scoped to the current up period: a crash kills them (a
	// real crash takes the threads), and Recover's WAL replay restores the
	// authoritative mark state they would otherwise race.
	ep := s.upCtx()
	s.clock.Go(func() {
		// The short sleep parks the fresh goroutine on its own timer
		// before it touches the lock manager, so the spawning handler
		// finishes its (virtually instantaneous) work alone rather than
		// racing the retry for queue positions.
		for ep.Err() == nil {
			if s.clock.Sleep(ep, time.Microsecond) != nil {
				return
			}
			if s.tryWriteMark(ep, forward, add, set) {
				return
			}
		}
	})
}

func (s *Site) tryWriteMark(ctx context.Context, forward string, add bool, set *marking.LoggedMarks) bool {
	sys := s.nextSysID()
	if err := s.mgr.Locks().AcquireBounded(ctx, sys, MarkKey, lock.Exclusive); err != nil {
		return false
	}
	var err error
	if add {
		err = set.MarkUndone(forward)
	} else {
		err = set.Unmark(forward)
	}
	s.mgr.Locks().ReleaseAll(sys)
	// A failed log append reports false so the background loop retries the
	// (idempotent) mark maintenance until the record lands.
	return err == nil
}

// lockPending takes p.mu on behalf of a protocol handler. The holder may be
// sleeping in virtual time (compensation runs its retry backoff with p.mu
// held), so a contended acquisition polls through the clock rather than
// blocking — a raw mutex wait would stall virtual time forever, and a
// plain Unlock carries no wake reservation the scheduler could account.
func (s *Site) lockPending(p *pending) {
	for !p.mu.TryLock() {
		//o2pcvet:ignore errflow -- Background never expires, so this virtual-time poll interval cannot fail
		_ = s.clock.Sleep(context.Background(), 50*time.Microsecond)
	}
}

// awaitApplied waits, polling through the clock as lockPending does, until
// no decision for txnID is being applied.
func (s *Site) awaitApplied(txnID string) {
	for {
		s.mu.Lock()
		busy := s.applying[txnID]
		s.mu.Unlock()
		if !busy {
			return
		}
		//o2pcvet:ignore errflow -- Background never expires, so this virtual-time poll interval cannot fail
		_ = s.clock.Sleep(context.Background(), 50*time.Microsecond)
	}
}

// doneApplying ends a decision's application (see awaitApplied).
func (s *Site) doneApplying(txnID string) {
	s.mu.Lock()
	delete(s.applying, txnID)
	s.mu.Unlock()
}
