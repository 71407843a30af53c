package coord

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"o2pc/internal/history"
	"o2pc/internal/proto"
	"o2pc/internal/trace"
)

// SessionState classifies a multi-shot session's lifecycle.
type SessionState uint8

const (
	// SessionActive means the session accepts further rounds.
	SessionActive SessionState = iota + 1
	// SessionCommitted means Commit ran and the decision was commit.
	SessionCommitted
	// SessionAborted means the session ended in an abort — a failed round,
	// a NO vote at commit, a coordinator crash, or a client Abort.
	SessionAborted
)

// String returns the session-state mnemonic.
func (s SessionState) String() string {
	switch s {
	case SessionActive:
		return "active"
	case SessionCommitted:
		return "committed"
	case SessionAborted:
		return "aborted"
	default:
		return fmt.Sprintf("SessionState(%d)", uint8(s))
	}
}

// SessionSpec describes a multi-shot session: a global transaction whose
// per-site work arrives over several rounds instead of one spec.
type SessionSpec struct {
	// ID optionally fixes the transaction's ID; when empty the coordinator
	// assigns one.
	ID string
	// Protocol selects 2PC, O2PC or Paxos Commit for the eventual commit
	// point.
	Protocol proto.Protocol
	// Marking selects the correctness protocol layered over O2PC.
	Marking proto.MarkProtocol
	// MarkingRetries bounds retries of a retryable R1 rejection per round.
	// Defaults to 3.
	MarkingRetries int
}

// Session is one open multi-shot transaction. The client issues rounds of
// per-site work (each round a virtual-time RPC exchange, re-admitted by the
// R1 check against the sites' current marking state), then drives the
// ordinary 2PC/O2PC commit point with Commit — or abandons the work with
// Abort. Sites keep the transaction's data locks across rounds, so under
// O2PC nothing is exposed until the YES votes; what a longer session does
// stretch is the window in which OTHER transactions' exposed data can be
// read and marked data can accumulate under the session's feet.
//
// A Session is driven by a single client goroutine and is not safe for
// concurrent use; the coordinator it runs on remains fully concurrent.
type Session struct {
	c    *Coordinator
	id   string
	spec SessionSpec

	start time.Time
	inc   uint64 // the coordinator's incarnation at OpenSession
	state SessionState
	round int

	executed []string // sites visited, in first-visit order
	seen     map[string]bool
	marks    execMarks
	retries  int

	res Result // final result, valid once the session leaves SessionActive
}

// OpenSession opens a multi-shot session. The BEGIN record is logged
// immediately, with the still empty participant list; every round that
// grows the participant set logs it again, and the decision is delivered
// to the last list. A coordinator crash at any later point presumes abort
// for the session: recovery finds the BEGIN, or learns the session from
// the sites that hold its open subtransactions.
func (c *Coordinator) OpenSession(spec SessionSpec) (*Session, error) {
	id := spec.ID
	if id == "" {
		id = c.nextID()
	}
	inc, crashed := c.start()
	if crashed {
		return nil, ErrCrashed
	}
	if rec := c.cfg.Recorder; rec != nil {
		rec.Declare(id, history.KindGlobal, "")
	}
	c.tracer.Emit(c.cfg.Name, trace.EvTxnBegin, id, "",
		spec.Protocol.String()+"/"+spec.Marking.String()+" session")
	c.tracer.Emit(c.cfg.Name, trace.EvSessionOpen, id, "", "")
	if err := c.dlog.Begin(context.Background(), id, nil, spec.Marking); err != nil {
		return nil, fmt.Errorf("coord: logging session begin for %s: %w", id, err)
	}
	c.stats.InFlight.Inc()
	return &Session{
		c:       c,
		id:      id,
		spec:    spec,
		start:   c.clock.Now(),
		inc:     inc,
		state:   SessionActive,
		seen:    make(map[string]bool),
		retries: markingRetries(spec.MarkingRetries),
	}, nil
}

// ID returns the session's global transaction ID.
func (s *Session) ID() string { return s.id }

// State returns the session's current lifecycle state.
func (s *Session) State() SessionState { return s.state }

// Round ships one round of per-site work. New sites join the session (the
// participant list is re-logged first, so the decision's delivery set
// covers them); sites already visited get the round as a
// continuation of their open subtransaction. Subtransactions ship
// sequentially, threading the accumulated transmarks exactly as rule R1
// requires of the one-shot path. The returned map carries this round's
// OpRead results per site.
//
// A failed round aborts the session: the coordinator decides abort for
// every participant (including the failing site) and the session leaves
// SessionActive — Commit afterwards just reports the stored Result.
func (s *Session) Round(ctx context.Context, subtxns []SubtxnSpec) (map[string]map[string][]byte, error) {
	if s.state != SessionActive {
		return nil, fmt.Errorf("coord: session %s: round on %s session", s.id, s.state)
	}
	if len(subtxns) == 0 {
		return nil, fmt.Errorf("coord: session %s: empty round", s.id)
	}
	c := s.c
	if c.Crashed() {
		// The process is gone: no decision can be made here. Recovery will
		// presume abort.
		s.settle(Result{ID: s.id, Outcome: AbortedCoordinator, Err: ErrCrashed})
		return nil, ErrCrashed
	}
	s.round++

	// Grow the participant list before any new site executes, so the
	// decision is delivered to every site that did work.
	grew := false
	for _, st := range subtxns {
		if !s.seen[st.Site] {
			s.seen[st.Site] = true
			s.executed = append(s.executed, st.Site)
			grew = true
		}
	}
	if grew {
		if err := c.dlog.Begin(ctx, s.id, s.executed, s.spec.Marking); err != nil {
			s.settle(Result{ID: s.id, Outcome: AbortedCoordinator,
				Err: fmt.Errorf("coord: logging session sites for %s: %w", s.id, err)})
			return nil, s.res.Err
		}
	}

	c.tracer.Emit(c.cfg.Name, trace.EvSessionRound, s.id, "",
		"round="+strconv.Itoa(s.round)+" sites="+strings.Join(s.executed, ","))
	// A session round is round s.round of the exec loop, never carrying the
	// VOTE-REQ: the session's vote round runs at Commit.
	res := Result{ID: s.id}
	req := proto.ExecRequest{TxnID: s.id, Protocol: s.spec.Protocol, Marking: s.spec.Marking,
		Round: s.round, Incarnation: s.inc}
	if _, err := c.execSubtxns(ctx, req, subtxns, s.retries, &s.marks, nil, &res); err != nil {
		res.MarkRetries += s.res.MarkRetries
		res.Reads = s.res.Reads
		// Every site of the round — including the failing one, which may
		// have applied the round even though the reply was lost — is in
		// s.executed: the participant list grew before anything shipped.
		c.decide(ctx, s.id, false, s.inc, s.executed, s.spec.Marking)
		s.settle(res)
		return nil, err
	}
	s.res.MarkRetries += res.MarkRetries
	if len(res.Reads) > 0 && s.res.Reads == nil {
		s.res.Reads = make(map[string]map[string][]byte)
	}
	for site, kv := range res.Reads {
		if s.res.Reads[site] == nil {
			s.res.Reads[site] = make(map[string][]byte)
		}
		for k, v := range kv {
			s.res.Reads[site][k] = v
		}
	}
	return res.Reads, nil
}

// Commit drives the ordinary commit point over every site the session
// visited: the parallel vote round, then the decision. On a session that
// already left SessionActive it just returns the stored Result.
func (s *Session) Commit(ctx context.Context) Result {
	if s.state != SessionActive {
		return s.res
	}
	res := Result{ID: s.id, Reads: s.res.Reads, MarkRetries: s.res.MarkRetries}
	if len(s.executed) == 0 {
		// An empty session commits vacuously: nothing executed anywhere.
		// decide still runs so the decision is reached and ended like any
		// other, and a recovery that overtook the session aborts it.
		res.Outcome = Committed
		if !s.c.decide(ctx, s.id, true, s.inc, nil, s.spec.Marking) {
			res.Outcome, res.Err = AbortedCoordinator, ErrCrashed
		}
		s.settle(res)
		return s.res
	}
	v := s.c.collectVotes(ctx, s.id, s.executed)
	s.c.commitPoint(ctx, s.id, s.inc, s.executed, v, s.spec.Marking, &res)
	s.settle(res)
	return s.res
}

// Abort abandons the session: the coordinator decides abort for every
// visited site (their open subtransactions roll back; nothing was exposed,
// since no vote round ever ran). Idempotent once the session is settled.
func (s *Session) Abort(ctx context.Context) Result {
	if s.state != SessionActive {
		return s.res
	}
	res := Result{ID: s.id, Outcome: AbortedClient, MarkRetries: s.res.MarkRetries}
	s.c.decide(ctx, s.id, false, s.inc, s.executed, s.spec.Marking)
	s.settle(res)
	return s.res
}

// settle finalizes the session with Run's accounting (see
// Coordinator.settle).
func (s *Session) settle(res Result) {
	if s.state != SessionActive {
		return
	}
	if res.Outcome == Committed {
		s.state = SessionCommitted
	} else {
		s.state = SessionAborted
	}
	s.c.settle(s.start, &res)
	s.res = res
}
