// Package coord implements the coordinator of the commit protocols: it
// decomposes global transactions into subtransactions, ships them to the
// participating sites, runs the vote and decision rounds of 2PC/O2PC, logs
// decisions for recovery, answers in-doubt Resolve inquiries, and hosts the
// marking Board that aggregates UDUM1 witnesses.
//
// The message pattern per participant follows the lock-release point.
// Under O2PC — with or without marking — it is the classic ExecRequest,
// VoteRequest, Decision, so the message census of experiment E6 reproduces
// the paper's "no extra messages" claim against standard 2PC. Under 2PC
// and Paxos Commit, whose YES vote keeps the locks, the VOTE-REQ rides the
// ExecRequest and the vote its reply: ExecRequest, Decision. Multi-shot
// sessions keep the separate vote round under every protocol.
package coord

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"o2pc/internal/history"
	"o2pc/internal/marking"
	"o2pc/internal/metrics"
	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/sim"
	"o2pc/internal/trace"
	"o2pc/internal/wal"
)

// SubtxnSpec is one site's share of a global transaction.
type SubtxnSpec struct {
	// Site is the participant's node name.
	Site string
	// Ops is the operation list shipped to the site.
	Ops []proto.Operation
	// Comp selects the compensation mode; CompNone marks a real action
	// (the site will retain locks until the decision even under O2PC).
	Comp proto.CompMode
	// Compensator names a registered custom compensator for CompCustom.
	Compensator string
}

// TxnSpec describes a global transaction.
type TxnSpec struct {
	// ID optionally fixes the transaction's node ID; when empty the
	// coordinator assigns "T<n>" (with its configured prefix).
	ID string
	// Protocol selects 2PC, O2PC or Paxos Commit.
	Protocol proto.Protocol
	// Marking selects the correctness protocol layered over O2PC.
	Marking proto.MarkProtocol
	// Subtxns lists the per-site work, executed in order (marking state
	// accumulates site by site, as rule R1 requires).
	Subtxns []SubtxnSpec
	// MarkingRetries bounds retries of a retryable R1 rejection before the
	// transaction is aborted. Defaults to 3.
	MarkingRetries int
}

// Outcome classifies how a global transaction ended.
type Outcome uint8

const (
	// Committed means every site voted YES and the decision was commit.
	Committed Outcome = iota + 1
	// AbortedVote means at least one site voted NO.
	AbortedVote
	// AbortedExec means a subtransaction failed during execution (site
	// autonomy, constraint violation, deadlock victim, or site crash).
	AbortedExec
	// AbortedMarking means the R1 compatibility check rejected the
	// transaction unresolvably.
	AbortedMarking
	// AbortedCoordinator means the coordinator failed before deciding and
	// presumed abort during recovery.
	AbortedCoordinator
	// AbortedClient means the client abandoned a multi-shot session
	// (Session.Abort) and the coordinator decided abort on its behalf.
	AbortedClient
)

// String returns the outcome mnemonic.
func (o Outcome) String() string {
	switch o {
	case Committed:
		return "committed"
	case AbortedVote:
		return "aborted-vote"
	case AbortedExec:
		return "aborted-exec"
	case AbortedMarking:
		return "aborted-marking"
	case AbortedCoordinator:
		return "aborted-coordinator"
	case AbortedClient:
		return "aborted-client"
	default:
		return fmt.Sprintf("Outcome(%d)", uint8(o))
	}
}

// Result reports one global transaction's execution.
type Result struct {
	ID      string
	Outcome Outcome
	Reads   map[string]map[string][]byte // site -> key -> value
	Latency time.Duration
	Err     error
	// MarkRetries counts retryable R1 rejections absorbed along the way.
	MarkRetries int
}

// Committed reports whether the transaction committed.
func (r Result) Committed() bool { return r.Outcome == Committed }

// CrashPhase identifies coordinator crash-injection points.
type CrashPhase uint8

const (
	// CrashAfterVotes fires after all votes are collected, before the
	// decision is logged — recovery presumes abort.
	CrashAfterVotes CrashPhase = iota + 1
	// CrashAfterDecisionLogged fires after the decision is durable but
	// before any participant learns it — recovery re-sends it.
	CrashAfterDecisionLogged
)

// Stats aggregates coordinator measurements.
type Stats struct {
	Commits        *metrics.Counter
	Aborts         *metrics.Counter
	MarkingAborts  *metrics.Counter
	MarkingRetries *metrics.Counter
	// InFlight tracks global transactions between Run entry and
	// resolution — a gauge, not a counter: it falls as runs finish.
	InFlight      *metrics.Gauge
	Latency       *metrics.Histogram // ms, all outcomes
	CommitLatency *metrics.Histogram // ms, committed only

	// Per-phase spans of the commit round (all ms). PhaseCollect is the
	// coordinator's collect window — first VOTE-REQ sent until the last
	// vote (or first NO) is in, i.e. vote→decision; PhaseDeliver is
	// decision logged until every participant acked (decision→ack).
	PhaseCollect *metrics.Histogram
	PhaseDeliver *metrics.Histogram

	// Decided counts the transactions the coordinator remembers: decided
	// and not yet acknowledged by every participant.
	Decided *metrics.Gauge
	// WALRecords and Checkpoints are the decision log's size since its last
	// checkpoint and the checkpoints it took (a LocalLog's; zero over a
	// replicated log).
	WALRecords  *metrics.Gauge
	Checkpoints *metrics.Counter

	// voteRTT holds one histogram per participant measuring the
	// prepare→vote round trip (VOTE-REQ send to vote receipt; under 2PC
	// and Paxos the VOTE-REQ rides the exec, so this is the exec+vote round
	// trip). Sites appear lazily as they first vote, so access is guarded.
	mu      sync.Mutex
	voteRTT map[string]*metrics.Histogram
}

func newStats() *Stats {
	return &Stats{
		Commits:        &metrics.Counter{},
		Aborts:         &metrics.Counter{},
		MarkingAborts:  &metrics.Counter{},
		MarkingRetries: &metrics.Counter{},
		InFlight:       &metrics.Gauge{},
		Latency:        metrics.NewHistogram(),
		CommitLatency:  metrics.NewHistogram(),
		PhaseCollect:   metrics.NewHistogram(),
		PhaseDeliver:   metrics.NewHistogram(),
		Decided:        &metrics.Gauge{},
		WALRecords:     &metrics.Gauge{},
		Checkpoints:    &metrics.Counter{},
		voteRTT:        make(map[string]*metrics.Histogram),
	}
}

// VoteRTT returns the prepare→vote round-trip histogram for one site,
// creating it on first use.
func (s *Stats) VoteRTT(site string) *metrics.Histogram {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.voteRTT[site]
	if !ok {
		h = metrics.NewHistogram()
		s.voteRTT[site] = h
	}
	return h
}

// voteRTTSites returns the sites with a vote-RTT histogram, sorted so
// Publish output stays deterministic.
func (s *Stats) voteRTTSites() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	sites := make([]string, 0, len(s.voteRTT))
	for site := range s.voteRTT {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	return sites
}

// Publish adopts every instrument into reg under prefixed Prometheus-style
// names, for text exposition via Registry.WriteText. Per-site vote-RTT
// histograms appear lazily, so live scrapers should re-Publish on each
// collection (Adopt replaces, making this idempotent).
func (s *Stats) Publish(reg *metrics.Registry, prefix string) {
	reg.Adopt(prefix+"commits_total", s.Commits)
	reg.Adopt(prefix+"aborts_total", s.Aborts)
	reg.Adopt(prefix+"marking_aborts_total", s.MarkingAborts)
	reg.Adopt(prefix+"marking_retries_total", s.MarkingRetries)
	reg.Adopt(prefix+"inflight_txns", s.InFlight)
	reg.Adopt(prefix+"latency_ms", s.Latency)
	reg.Adopt(prefix+"commit_latency_ms", s.CommitLatency)
	reg.Adopt(prefix+"phase_vote_decision_ms", s.PhaseCollect)
	reg.Adopt(prefix+"phase_decision_ack_ms", s.PhaseDeliver)
	reg.SetHelp(prefix+"phase_vote_decision_ms", "coordinator collect window: first VOTE-REQ sent to decision reached")
	reg.SetHelp(prefix+"phase_decision_ack_ms", "decision logged to last participant ack")
	reg.SetHelp(prefix+"phase_prepare_vote_ms", "per-site VOTE-REQ send to vote receipt (2PC/Paxos: the exec+vote round trip)")
	reg.Adopt(prefix+"decided_txns", s.Decided)
	reg.SetHelp(prefix+"decided_txns", "decided transactions not yet acknowledged by every participant with a durable record")
	reg.Adopt(prefix+"wal_records", s.WALRecords)
	reg.SetHelp(prefix+"wal_records", "decision log records since its start (one checkpoint plus the tail)")
	reg.Adopt(prefix+"checkpoints_total", s.Checkpoints)
	reg.SetHelp(prefix+"checkpoints_total", "decision log checkpoints taken")
	for _, site := range s.voteRTTSites() {
		reg.Adopt(prefix+metrics.Label("phase_prepare_vote_ms", "site", site), s.VoteRTT(site))
	}
}

// decided tracks a logged decision and its undelivered participants. The
// entry lives until every participant has acked with the decision durable
// at its site; then the coordinator logs END and forgets the transaction.
type decided struct {
	commit bool
	// trackMarks is set for aborts under protocol P1: Marked flags on the
	// acks feed the UDUM1 board, and the marked-site set is finalized once
	// every participant has acked.
	trackMarks bool
	pending    map[string]bool // sites not yet acked
	// unsynced counts the sites that acked before their record of the
	// decision was durable and have not reported it durable since; their
	// acks are in Coordinator.unsynced.
	unsynced int
	ended    bool // END logged (or being logged); set once
}

// Config parameterizes a Coordinator.
type Config struct {
	// Name is the coordinator's node name.
	Name string
	// IDPrefix prefixes generated transaction IDs (distinct coordinators
	// in one cluster must use distinct prefixes).
	IDPrefix string
	// Recorder, when non-nil, receives global fate events.
	Recorder *history.Recorder
	// Board aggregates UDUM1 witnesses; share one Board among the
	// coordinators of a cluster.
	Board *marking.Board
	// Log stores decisions durably (defaults to an in-memory WAL). Ignored
	// when DecisionLog is set.
	Log wal.Log
	// DecisionLog overrides the decision-durability layer. Nil selects a
	// LocalLog over Log — the classic single-coordinator behavior. A
	// replog.Leader here turns the coordinator into the leader of a Paxos
	// Commit group: decisions are chosen by a majority of decision-log
	// replicas before any participant learns them.
	DecisionLog DecisionLog
	// Clock supplies the coordinator's notion of time (retry delays,
	// latency measurement, background delivery). Nil defaults to the real
	// clock.
	Clock sim.Clock
	// Tracer, when non-nil, records the coordinator's protocol steps
	// (txn begin, vote round, decision, delivery) and its WAL writes.
	Tracer *trace.Tracer
}

const (
	// decisionRetry is the delay between decision re-sends to unreachable
	// participants.
	decisionRetry = 2 * time.Millisecond
	// decisionConfirm is how long after an ack whose record was not yet
	// durable the decision is re-sent, unless a later ack from the site has
	// reported the record durable meanwhile (see confirmLater). Under
	// traffic a later ack does within a few forced writes; the re-send is
	// for a site that has gone idle.
	decisionConfirm = 50 * time.Millisecond
	// markingRetryDelay is the backoff before retrying a retryable R1
	// rejection.
	markingRetryDelay = time.Millisecond
)

// Coordinator drives global transactions.
type Coordinator struct {
	// life scopes work that outlives the run that started it, such as the
	// re-sends of confirmLater; Close cancels it.
	life context.Context
	stop context.CancelFunc

	cfg    Config
	caller rpc.Caller
	board  *marking.Board
	dlog   DecisionLog
	stats  *Stats
	clock  sim.Clock
	tracer *trace.Tracer

	mu      sync.Mutex
	seq     uint64
	decided map[string]*decided
	crashed bool
	crash   func(txnID string, phase CrashPhase) bool
	// epoch counts Recover passes. A run records it at its start; a run
	// that a recovery overtook decides abort (see decide).
	epoch uint64
	// deciding holds the transactions whose run is between its epoch check
	// and taking up its decision (see decide). A delivery does not forget
	// them; the run delivers and forgets the decision itself.
	deciding map[string]bool
	// unsynced indexes, by site and transaction, the acks whose record was
	// not yet durable (see noteSynced).
	unsynced map[string]map[string]unsyncedAck
}

// New assembles a coordinator over the given transport.
func New(cfg Config, caller rpc.Caller) *Coordinator {
	board := cfg.Board
	if board == nil {
		board = marking.NewBoard()
	}
	clock := sim.OrReal(cfg.Clock)
	stats := newStats()
	dlog := cfg.DecisionLog
	if dlog == nil {
		log := cfg.Log
		if log == nil {
			log = wal.NewMemoryLog()
		}
		l := NewLocalLog(cfg.Name, trace.WrapLog(log, cfg.Tracer, cfg.Name))
		l.clock, l.records, l.checkpoints = clock, stats.WALRecords, stats.Checkpoints
		dlog = l
	}
	life, stop := context.WithCancel(context.Background())
	return &Coordinator{
		life:     life,
		stop:     stop,
		cfg:      cfg,
		caller:   caller,
		board:    board,
		dlog:     dlog,
		stats:    stats,
		clock:    clock,
		tracer:   cfg.Tracer,
		decided:  make(map[string]*decided),
		deciding: make(map[string]bool),
		unsynced: make(map[string]map[string]unsyncedAck),
	}
}

// Name returns the coordinator's node name.
func (c *Coordinator) Name() string { return c.cfg.Name }

// Close stops the coordinator's background re-sends and releases the
// decision log's implementation resources (a replicated log's
// bookkeeping); the underlying WAL, if any, stays open — it belongs to
// whoever passed it in.
func (c *Coordinator) Close() {
	c.stop()
	_ = c.dlog.Close()
}

// Stats returns the coordinator's counters.
func (c *Coordinator) Stats() *Stats { return c.stats }

// Board returns the shared marking board.
func (c *Coordinator) Board() *marking.Board { return c.board }

// SetCrashInjector installs a crash predicate consulted at the two
// injection points. A true return crashes the coordinator: every in-flight
// and subsequent Run fails with ErrCrashed until Recover.
func (c *Coordinator) SetCrashInjector(f func(txnID string, phase CrashPhase) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.crash = f
}

// ErrCrashed is returned while the coordinator is crashed.
var ErrCrashed = errors.New("coord: coordinator crashed")

// Crashed reports whether the coordinator is currently crashed.
func (c *Coordinator) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// Health reports whether the coordinator can make progress: nil when up,
// ErrCrashed while crashed. The ops server's /healthz maps nil to 200.
func (c *Coordinator) Health() error {
	if c.Crashed() {
		return ErrCrashed
	}
	return nil
}

// Ready extends Health with a decision-log probe: a coordinator whose WAL
// cannot sync must not be offered traffic (it would crash on the first
// decision). With a replicated decision log the probe reports leadership —
// a deposed or unelected leader is unready — so the ops server's /readyz
// reflects leader status. Nil maps to 200.
func (c *Coordinator) Ready() error {
	if err := c.Health(); err != nil {
		return err
	}
	if err := c.dlog.Sync(context.Background()); err != nil {
		return fmt.Errorf("coord: decision log not writable: %w", err)
	}
	return nil
}

// Handle implements rpc.Handler for the coordinator node (Resolve
// inquiries from blocked participants).
func (c *Coordinator) Handle(ctx context.Context, from string, req any) (any, error) {
	c.mu.Lock()
	crashed := c.crashed
	c.mu.Unlock()
	if crashed {
		return nil, ErrCrashed
	}
	switch m := req.(type) {
	case proto.ResolveRequest:
		// An ID with no decided entry is answered Known:false, never a
		// presumed abort: it may be undecided (an O2PC participant exposed
		// at its vote asks while the vote round is still running, and an
		// abort answer would compensate a transaction that may yet commit)
		// or decided and forgotten — which needs every participant's ack,
		// so the asker is not in doubt and ignores the answer.
		c.mu.Lock()
		d, ok := c.decided[m.TxnID]
		c.mu.Unlock()
		if !ok {
			c.tracer.Emit(c.cfg.Name, trace.EvResolveRecv, m.TxnID, from, "unknown")
			return proto.ResolveReply{Known: false}, nil
		}
		c.tracer.Emit(c.cfg.Name, trace.EvResolveRecv, m.TxnID, from, wal.DecisionAux(d.commit))
		return proto.ResolveReply{Known: true, Commit: d.commit}, nil
	default:
		return nil, fmt.Errorf("coord %s: unknown message %T", c.cfg.Name, req)
	}
}

// Unforgotten returns, in ID order, the transactions the coordinator still
// keeps although every participant has acknowledged their decision, with
// its record durable: decided entries with nothing pending or unsynced
// and, over a LocalLog, logged decisions with no entry left to deliver. A fully-acknowledged transaction is forgotten
// (see deliverDecision), so both lists are empty once deliveries settle.
func (c *Coordinator) Unforgotten() []string {
	var logged []string
	if l, ok := c.dlog.(*LocalLog); ok {
		logged = l.unended()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for id, d := range c.decided {
		if len(d.pending) == 0 && d.unsynced == 0 {
			out = append(out, id)
		}
	}
	for _, id := range logged {
		if d, ok := c.decided[id]; !ok || len(d.pending) == 0 && d.unsynced == 0 {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// start returns the recovery epoch a run or session begins in, and whether
// the coordinator is crashed.
func (c *Coordinator) start() (epoch uint64, crashed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch, c.crashed
}

// nextID generates a transaction ID.
func (c *Coordinator) nextID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	return c.cfg.IDPrefix + "T" + strconv.FormatUint(c.seq, 10)
}

// execSites lists the sites of a spec, in order.
func execSites(spec TxnSpec) []string {
	out := make([]string, len(spec.Subtxns))
	for i, st := range spec.Subtxns {
		out[i] = st.Site
	}
	return out
}

// checkCrash consults the injector and transitions to crashed when it
// fires.
func (c *Coordinator) checkCrash(txnID string, phase CrashPhase) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return true
	}
	if c.crash != nil && c.crash(txnID, phase) {
		c.crashed = true
		c.tracer.Emit(c.cfg.Name, trace.EvCrash, txnID, "", crashPhaseName(phase))
		return true
	}
	return false
}

// crashPhaseName spells a CrashPhase for trace details.
func crashPhaseName(p CrashPhase) string {
	switch p {
	case CrashAfterVotes:
		return "after-votes"
	case CrashAfterDecisionLogged:
		return "after-decision-logged"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}
