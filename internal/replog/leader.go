package replog

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"o2pc/internal/coord"
	"o2pc/internal/metrics"
	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/sim"
	"o2pc/internal/trace"
)

// ErrDeposed reports that a higher term was observed: another leader (or
// this leader's own concurrent restart) has claimed the group. A deposed
// leader fails every Decide and Sync — the coordinator above it behaves
// as crashed — until Snapshot runs takeover: claiming a fresh majority of
// promises is exactly what makes a node the leader again.
var ErrDeposed = errors.New("replog: deposed by a higher term")

// proposePoll is the virtual-time granularity at which a proposer waits
// for another in-flight proposal (or election) on the same key to finish.
const proposePoll = time.Millisecond

// Config configures the coordinator-side leader of one replication group.
type Config struct {
	// Group names the replication group — by convention the coordinator's
	// node name, which is also the trace node and the RPC sender.
	Group string
	// Replicas are the decision-log replica node names. Use an odd count;
	// a majority (floor(n/2)+1) must be reachable for progress.
	Replicas []string
	// Caller issues the replication RPCs.
	Caller rpc.Caller
	// Clock supplies time (ballot latency, retry pacing). Nil defaults to
	// the real clock.
	Clock sim.Clock
	// Tracer, when set, records takeover events under the group node.
	Tracer *trace.Tracer
}

const (
	// retries bounds the majority rounds attempted per ballot (and the term
	// guesses per election) before giving up.
	retries = 8
	// retryDelay paces re-attempts after a failed round.
	retryDelay = 50 * time.Millisecond
)

// Stats are the leader's replication metrics.
type Stats struct {
	// BallotMs observes, per majority-acked ballot round, the virtual time
	// from fan-out to the majority-th ack — the replication latency a
	// Paxos commit pays where 2PC pays one local fsync.
	BallotMs *metrics.Histogram
	// MajorityAcks counts majority-acked ballot rounds.
	MajorityAcks *metrics.Counter
	// Takeovers counts elections won at term > 1, i.e. actual takeovers
	// from a prior leader.
	Takeovers *metrics.Counter
	// Term is the group's current term as this leader knows it.
	Term *metrics.Gauge
	// Leader is 1 while this node leads the group, 0 before election and
	// after deposal.
	Leader *metrics.Gauge
}

// newStats returns a fresh, unregistered metric set.
func newStats() *Stats {
	return &Stats{
		BallotMs:     metrics.NewHistogram(),
		MajorityAcks: &metrics.Counter{},
		Takeovers:    &metrics.Counter{},
		Term:         &metrics.Gauge{},
		Leader:       &metrics.Gauge{},
	}
}

// Publish registers the stats under prefix (e.g. "replog_").
func (s *Stats) Publish(reg *metrics.Registry, prefix string) {
	reg.Adopt(prefix+"ballot_ms", s.BallotMs)
	reg.SetHelp(prefix+"ballot_ms", "Fan-out to majority-ack latency per ballot round (ms).")
	reg.Adopt(prefix+"majority_acks_total", s.MajorityAcks)
	reg.SetHelp(prefix+"majority_acks_total", "Majority-acked ballot rounds.")
	reg.Adopt(prefix+"takeovers_total", s.Takeovers)
	reg.SetHelp(prefix+"takeovers_total", "Elections won at term > 1 (leader takeovers).")
	reg.Adopt(prefix+"term", s.Term)
	reg.SetHelp(prefix+"term", "Current replication term at this leader.")
	reg.Adopt(prefix+"leader", s.Leader)
	reg.SetHelp(prefix+"leader", "1 while this node leads its replication group.")
}

// recoveredTxn is one instance reconstructed from a takeover read: the
// union of what a majority of replicas reported.
type recoveredTxn struct {
	sites    map[string]bool
	marking  proto.MarkProtocol
	accepted bool
	accTerm  uint64
	commit   bool
}

// Leader is the proposer side of Paxos Commit, implementing
// coord.DecisionLog for one replication group. It elects itself lazily on
// first use (or explicitly via Snapshot, the takeover path) and then
// drives one accept ballot per decision.
//
// Locking: mu is never held across a network call or clock sleep — under
// the deterministic virtual clock those are yield points, and a mutex held
// across a yield deadlocks the baton scheduler. Cross-yield exclusion
// (one election at a time, one proposal per transaction) uses token flags
// polled in virtual time instead.
type Leader struct {
	cfg   Config
	clock sim.Clock
	stats *Stats

	mu        sync.Mutex
	term      uint64 // highest term known; ours while elected
	elected   bool
	deposed   bool
	electing  bool            // an election is in flight
	proposing map[string]bool // txn -> an accept ballot is in flight
	chosen    map[string]bool // txn -> decision this leader got chosen, until End
	recovered map[string]*recoveredTxn
}

// NewLeader returns an unelected leader for cfg.Group. The first Begin,
// Decide, Sync, or Snapshot call runs the election.
func NewLeader(cfg Config) *Leader {
	return &Leader{
		cfg:       cfg,
		clock:     sim.OrReal(cfg.Clock),
		stats:     newStats(),
		proposing: make(map[string]bool),
		chosen:    make(map[string]bool),
	}
}

// Stats returns the leader's metric set.
func (l *Leader) Stats() *Stats { return l.stats }

// majority is the quorum size: floor(n/2)+1.
func (l *Leader) majority() int { return len(l.cfg.Replicas)/2 + 1 }

// Begin replicates the transaction's BEGIN intent to a majority — the
// write-ahead point: no subtransaction may ship until any future leader's
// majority read is guaranteed to find the participant list.
func (l *Leader) Begin(ctx context.Context, id string, sites []string, marking proto.MarkProtocol) error {
	if err := l.ensureElected(ctx); err != nil {
		return err
	}
	return l.ballot(ctx, func(term uint64) any {
		return proto.RepBegin{Group: l.cfg.Group, Term: term, TxnID: id, Sites: sites, Marking: marking}
	})
}

// Decide replicates the decision. It returns only after a majority of
// replicas durably accepted the value — the replicated equivalent of
// Theorem 2's DECISION write-ahead point — and returns the value that was
// chosen, which a recovery race may have fixed before us.
func (l *Leader) Decide(ctx context.Context, id string, commit bool) (bool, error) {
	return l.propose(ctx, id, commit)
}

// PresumeAbort proposes abort for a transaction found begun but
// undecided. Safe precisely because Snapshot re-proposed every possibly-
// chosen value first: a begun transaction with no accepted value in the
// majority read cannot have been decided.
func (l *Leader) PresumeAbort(ctx context.Context, id string) (bool, error) {
	return l.propose(ctx, id, false)
}

// End forgets the transaction's chosen value at the leader; it sends
// nothing. The acceptors keep their instances, so a later takeover reads
// the value again and re-runs its accept ballot (see Snapshot).
func (l *Leader) End(ctx context.Context, id string) error {
	l.mu.Lock()
	delete(l.chosen, id)
	l.mu.Unlock()
	return nil
}

// Snapshot is leader takeover: claim a fresh term from a majority, union
// their instances, finish (re-propose at our term) every value a prior
// leader may have gotten chosen, and hand the begun set and decisions to
// the coordinator's recovery pass.
func (l *Leader) Snapshot(ctx context.Context) ([]coord.BeginRecord, map[string]bool, error) {
	// Always take a fresh term: a leader recovering over its own group must
	// re-read the majority too, so begins replicated since its first
	// election are in the recovery set (the local log's Snapshot likewise
	// re-reads the whole WAL). A deposed flag is cleared here rather than
	// checked: Snapshot IS the restart, and the majority of promises the
	// election wins below is what re-legitimizes this node as leader.
	l.mu.Lock()
	l.deposed = false
	l.elected = false
	l.recovered = nil
	l.mu.Unlock()
	if err := l.ensureElected(ctx); err != nil {
		return nil, nil, err
	}
	l.mu.Lock()
	rec := l.recovered
	l.recovered = nil
	l.mu.Unlock()

	decisions := make(map[string]bool)
	ids := make([]string, 0, len(rec))
	for id := range rec {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var begun []coord.BeginRecord
	for _, id := range ids {
		t := rec[id]
		if t.accepted {
			// The value may be chosen (a majority may have accepted it, and
			// the old leader may have delivered the DECISION). Re-proposing
			// the same value at our term is safe either way and makes it
			// durable at a majority under our term.
			chosen, err := l.propose(ctx, id, t.commit)
			if err != nil {
				return nil, nil, fmt.Errorf("replog %s: finishing %s: %w", l.cfg.Group, id, err)
			}
			decisions[id] = chosen
		}
		sites := make([]string, 0, len(t.sites))
		for s := range t.sites {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		begun = append(begun, coord.BeginRecord{TxnID: id, Sites: sites, Marking: t.marking.String()})
	}
	l.mu.Lock()
	for id, v := range l.chosen {
		decisions[id] = v
	}
	l.mu.Unlock()
	return begun, decisions, nil
}

// Sync reports leadership: nil while this node leads the group (electing
// first if needed), an error once deposed. The coordinator's Ready — and
// through it the ops plane's /readyz — keys off this.
func (l *Leader) Sync(ctx context.Context) error {
	l.mu.Lock()
	deposed := l.deposed
	l.mu.Unlock()
	if deposed {
		return fmt.Errorf("replog %s: %w", l.cfg.Group, ErrDeposed)
	}
	if err := l.ensureElected(ctx); err != nil {
		return fmt.Errorf("replog %s: %w", l.cfg.Group, err)
	}
	return nil
}

// Close marks the leader down for metrics. The replicas keep the group's
// state; a successor elects over them.
func (l *Leader) Close() error {
	l.stats.Leader.Set(0)
	return nil
}

// ensureElected runs (or waits out) the election. Exactly one election is
// in flight at a time; concurrent callers poll in virtual time. It does
// not consult the deposed flag: a stale ballot of our own may depose us
// mid-takeover, and the election winning a majority is what clears it.
func (l *Leader) ensureElected(ctx context.Context) error {
	for {
		l.mu.Lock()
		if l.elected {
			l.mu.Unlock()
			return nil
		}
		if !l.electing {
			l.electing = true
			guess := l.term + 1
			l.mu.Unlock()
			err := l.elect(ctx, guess)
			l.mu.Lock()
			l.electing = false
			l.mu.Unlock()
			if err != nil {
				return err
			}
			continue
		}
		l.mu.Unlock()
		if err := l.clock.Sleep(ctx, proposePoll); err != nil {
			return err
		}
	}
}

// elect claims a term: NewTerm to every replica, needing a majority of
// grants. A rejection names the rejector's (higher) term, so the next
// guess leapfrogs it. The grants' instance lists are unioned into
// l.recovered for Snapshot — a majority read, so it contains every
// instance whose value can have been chosen.
func (l *Leader) elect(ctx context.Context, guess uint64) error {
	for attempt := 0; ; attempt++ {
		replies, _ := l.fanout(ctx, proto.RepNewTerm{Group: l.cfg.Group, Term: guess})
		grants := 0
		var rejected uint64 // highest term named by a rejection; >= guess
		rec := make(map[string]*recoveredTxn)
		for _, raw := range replies {
			rep, ok := newTermReply(raw)
			if !ok {
				continue
			}
			if !rep.OK {
				if rep.Term > rejected {
					rejected = rep.Term
				}
				continue
			}
			grants++
			for _, t := range rep.Txns {
				mergeRecovered(rec, t)
			}
		}
		if grants >= l.majority() {
			l.mu.Lock()
			l.term = guess
			l.elected = true
			l.deposed = false // a majority of promises makes us the leader again
			l.recovered = rec
			l.mu.Unlock()
			l.stats.Term.Set(int64(guess))
			l.stats.Leader.Set(1)
			if guess > 1 {
				l.stats.Takeovers.Inc()
			}
			l.cfg.Tracer.Emit(l.cfg.Group, trace.EvRepTakeover, "", "",
				"term="+strconv.FormatUint(guess, 10)+" txns="+strconv.Itoa(len(rec)))
			return nil
		}
		if attempt >= retries {
			return fmt.Errorf("replog %s: no majority for term %d after %d attempts",
				l.cfg.Group, guess, attempt+1)
		}
		if rejected >= guess {
			// Some replica already promised `rejected` (to us or a rival);
			// the next guess must clear it outright.
			guess = rejected + 1
			l.mu.Lock()
			if rejected > l.term {
				l.term = rejected // highest term known, pre-claim
			}
			l.mu.Unlock()
			continue // a rejection is instant knowledge; no pacing needed
		}
		// Not rejected, just short of a majority (replicas unreachable):
		// pace the retry.
		if err := l.clock.Sleep(ctx, retryDelay); err != nil {
			return err
		}
	}
}

// propose drives one transaction's accept ballot. The per-transaction
// token serializes racing proposers (a run's Decide vs recovery's
// PresumeAbort), so a term never carries two values for one instance; the
// loser adopts the chosen value.
func (l *Leader) propose(ctx context.Context, id string, commit bool) (bool, error) {
	// Fail fast while deposed (before ensureElected, which would happily
	// re-elect): a deposed leader must not decide until Snapshot has
	// re-read the majority.
	l.mu.Lock()
	deposed := l.deposed
	l.mu.Unlock()
	if deposed {
		return false, ErrDeposed
	}
	if err := l.ensureElected(ctx); err != nil {
		return false, err
	}
	for {
		l.mu.Lock()
		if v, ok := l.chosen[id]; ok {
			l.mu.Unlock()
			return v, nil
		}
		if l.deposed {
			l.mu.Unlock()
			return false, ErrDeposed
		}
		if !l.proposing[id] {
			l.proposing[id] = true
			l.mu.Unlock()
			break
		}
		l.mu.Unlock()
		if err := l.clock.Sleep(ctx, proposePoll); err != nil {
			return false, err
		}
	}
	err := l.ballot(ctx, func(term uint64) any {
		return proto.RepAccept{Group: l.cfg.Group, Term: term, TxnID: id, Commit: commit}
	})
	l.mu.Lock()
	if err == nil {
		l.chosen[id] = commit
	}
	delete(l.proposing, id)
	l.mu.Unlock()
	if err != nil {
		return false, err
	}
	return commit, nil
}

// ballot runs majority rounds of one request until a majority acks at the
// leader's term, a higher term deposes us, or the retry budget runs out.
func (l *Leader) ballot(ctx context.Context, build func(term uint64) any) error {
	for attempt := 0; ; attempt++ {
		l.mu.Lock()
		if l.deposed {
			l.mu.Unlock()
			return ErrDeposed
		}
		term := l.term
		l.mu.Unlock()
		acks, higher := l.round(ctx, term, build(term))
		if acks >= l.majority() {
			return nil
		}
		if higher > term {
			l.mu.Lock()
			if l.elected && l.term >= higher {
				// The "rival" is this very leader at a newer term (a
				// concurrent Snapshot re-election). Retry at the new term.
				l.mu.Unlock()
				continue
			}
			l.mu.Unlock()
			l.depose(higher)
			return ErrDeposed
		}
		if attempt >= retries {
			return fmt.Errorf("replog %s: no majority (%d/%d acks) after %d rounds",
				l.cfg.Group, acks, len(l.cfg.Replicas), attempt+1)
		}
		if err := l.clock.Sleep(ctx, retryDelay); err != nil {
			return err
		}
	}
}

// round is one fan-out: the request to every replica, counting acks at
// term and reporting the highest conflicting term seen. On a majority it
// observes the majority-th ack's latency — the ballot's replication cost.
func (l *Leader) round(ctx context.Context, term uint64, req any) (acks int, higher uint64) {
	replies, times := l.fanout(ctx, req)
	ackTimes := make([]time.Duration, 0, len(replies))
	for i, raw := range replies {
		rep, ok := repReply(raw)
		if !ok {
			continue
		}
		if rep.OK && rep.Term == term {
			ackTimes = append(ackTimes, times[i])
			continue
		}
		if rep.Term > higher {
			higher = rep.Term
		}
	}
	if len(ackTimes) >= l.majority() {
		sort.Slice(ackTimes, func(i, j int) bool { return ackTimes[i] < ackTimes[j] })
		l.stats.BallotMs.ObserveDuration(ackTimes[l.majority()-1])
		l.stats.MajorityAcks.Inc()
	}
	return len(ackTimes), higher
}

// fanout sends req to every replica concurrently and returns the replies
// (nil where unreachable or errored) with each reply's arrival offset.
func (l *Leader) fanout(ctx context.Context, req any) ([]any, []time.Duration) {
	replies := make([]any, len(l.cfg.Replicas))
	times := make([]time.Duration, len(l.cfg.Replicas))
	start := l.clock.Now()
	g := sim.NewGroup(l.clock)
	for i, replica := range l.cfg.Replicas {
		i, replica := i, replica
		g.Go(func() {
			resp, err := l.cfg.Caller.Call(ctx, l.cfg.Group, replica, req)
			if err != nil {
				return
			}
			replies[i] = resp
			times[i] = l.clock.Since(start)
		})
	}
	g.Wait()
	return replies, times
}

// depose marks the leader deposed: Decide and Sync fail until a Snapshot
// takeover wins a fresh majority of promises.
func (l *Leader) depose(term uint64) {
	l.mu.Lock()
	l.deposed = true
	l.elected = false
	if term > l.term {
		l.term = term
	}
	l.mu.Unlock()
	l.stats.Leader.Set(0)
}

func repReply(raw any) (proto.RepReply, bool) {
	switch m := raw.(type) {
	case proto.RepReply:
		return m, true
	case *proto.RepReply:
		return *m, true
	default:
		return proto.RepReply{}, false
	}
}

func newTermReply(raw any) (proto.RepNewTermReply, bool) {
	switch m := raw.(type) {
	case proto.RepNewTermReply:
		return m, true
	case *proto.RepNewTermReply:
		return *m, true
	default:
		return proto.RepNewTermReply{}, false
	}
}

// mergeRecovered folds one replica's instance report into the union.
// Sites union (a superset presumed-abort delivery set is harmless; a
// subset would strand a participant); the accepted value of the highest
// term wins (terms are single-valued, so equal terms agree).
func mergeRecovered(rec map[string]*recoveredTxn, t proto.RepTxnState) {
	u := rec[t.TxnID]
	if u == nil {
		u = &recoveredTxn{sites: make(map[string]bool)}
		rec[t.TxnID] = u
	}
	for _, s := range t.Sites {
		u.sites[s] = true
	}
	if t.Marking != proto.MarkNone {
		u.marking = t.Marking
	}
	if t.Accepted && (!u.accepted || t.AccTerm > u.accTerm) {
		u.accepted = true
		u.accTerm = t.AccTerm
		u.commit = t.Commit
	}
}

var _ coord.DecisionLog = (*Leader)(nil)
