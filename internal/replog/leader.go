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
	sites   map[string]bool
	marking proto.MarkProtocol
	accTerm uint64
	commit  bool
}

// begunTxn is what Begin keeps of a transaction until its decision is
// chosen: the participants and marking its accept carries.
type begunTxn struct {
	sites   []string
	marking proto.MarkProtocol
}

// choice is a decision this leader got chosen. everywhere records that
// every replica accepted it in the ballot that chose it, so no replica
// holds another value for the instance and the acceptors may forget it
// once the transaction ends.
type choice struct {
	commit, everywhere bool
}

// Leader is the proposer side of Paxos Commit, implementing
// coord.DecisionLog for one replication group. It elects itself lazily on
// first use (or explicitly via Snapshot, the takeover path) and then
// drives one accept ballot per transaction, for its decision.
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
	electing  bool                // an election is in flight
	proposing map[string]bool     // txn -> an accept ballot is in flight
	chosen    map[string]choice   // txn -> decision this leader got chosen, until End
	begun     map[string]begunTxn // txn -> participants, until its decision is chosen
	recovered map[string]*recoveredTxn
	// forget holds, per replica (by index in cfg.Replicas), the ended
	// transactions whose instances its next accept tells it to drop. An
	// accept takes the list and puts it back unless the replica acks.
	forget [][]string
}

// NewLeader returns an unelected leader for cfg.Group. The first Decide,
// Sync, or Snapshot call runs the election.
func NewLeader(cfg Config) *Leader {
	return &Leader{
		cfg:       cfg,
		clock:     sim.OrReal(cfg.Clock),
		stats:     newStats(),
		proposing: make(map[string]bool),
		chosen:    make(map[string]choice),
		begun:     make(map[string]begunTxn),
		forget:    make([][]string, len(cfg.Replicas)),
	}
}

// Stats returns the leader's metric set.
func (l *Leader) Stats() *Stats { return l.stats }

// majority is the quorum size: floor(n/2)+1.
func (l *Leader) majority() int { return len(l.cfg.Replicas)/2 + 1 }

// Begin keeps the transaction's participants and marking until its
// decision is chosen, for the accept to carry; it sends nothing. A later
// Begin for the same transaction (a session growing) replaces them. No
// replica needs them sooner: a takeover learns the undecided transactions
// from the sites (coord.Recover), and a transaction no accepted value was
// read for may be presumed aborted.
func (l *Leader) Begin(ctx context.Context, id string, sites []string, marking proto.MarkProtocol) error {
	l.mu.Lock()
	l.begun[id] = begunTxn{sites: sites, marking: marking}
	l.mu.Unlock()
	return nil
}

// Decide replicates the decision. It returns only after a majority of
// replicas durably accepted the value — the replicated equivalent of
// Theorem 2's DECISION write-ahead point — and returns the value that was
// chosen, which a recovery race may have fixed before us.
func (l *Leader) Decide(ctx context.Context, id string, commit bool) (bool, error) {
	return l.propose(ctx, id, commit)
}

// PresumeAbort proposes abort for a transaction recovery found undecided.
// Safe precisely because Snapshot re-proposed every possibly-chosen value
// first: a transaction with no accepted value in the majority read cannot
// have been decided, and no lower term can get a value chosen for it now.
func (l *Leader) PresumeAbort(ctx context.Context, id string) (bool, error) {
	return l.propose(ctx, id, false)
}

// End forgets the transaction at the leader and, when every replica
// accepted its decision, queues it for every replica to forget; it sends
// nothing, the next accept to each replica carries the queue. An instance
// some replica did not accept in the choosing ballot stays at the
// acceptors: a replica that missed it may hold a value of an older term,
// which must not become the only copy a takeover reads. The takeover
// re-runs such an instance's ballot (see Snapshot), and its End then
// queues it.
func (l *Leader) End(ctx context.Context, id string) error {
	l.mu.Lock()
	if c, ok := l.chosen[id]; ok && c.everywhere {
		for i := range l.forget {
			l.forget[i] = append(l.forget[i], id)
		}
	}
	delete(l.chosen, id)
	delete(l.begun, id)
	l.mu.Unlock()
	return nil
}

// Snapshot is leader takeover: claim a fresh term from a majority, union
// their instances, finish (re-propose at our term) every value a prior
// leader may have gotten chosen, and hand the decisions, with their
// delivery sets, to the coordinator's recovery pass. The transactions no
// replica accepted a value for are not here; the coordinator learns them
// from the sites.
func (l *Leader) Snapshot(ctx context.Context) ([]coord.BeginRecord, map[string]bool, error) {
	// Always take a fresh term: a leader recovering over its own group must
	// re-read the majority too, so values accepted since its first
	// election are in the recovery set (the local log's Snapshot likewise
	// re-reads the whole WAL). A deposed flag is cleared here rather than
	// checked: Snapshot IS the restart, and the majority of promises the
	// election wins below is what re-legitimizes this node as leader. What
	// Begin kept and the forget queues are dropped, as a restarted process
	// would have lost them; the instances still held are re-balloted below
	// and queued again at their End.
	l.mu.Lock()
	l.deposed = false
	l.elected = false
	l.recovered = nil
	clear(l.begun)
	for i := range l.forget {
		l.forget[i] = nil
	}
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
		sites := make([]string, 0, len(t.sites))
		for s := range t.sites {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		// The value may be chosen (a majority may have accepted it, and the
		// old leader may have delivered the DECISION). Re-proposing the same
		// value at our term is safe either way and makes it durable at a
		// majority under our term.
		l.mu.Lock()
		l.begun[id] = begunTxn{sites: sites, marking: t.marking}
		l.mu.Unlock()
		chosen, err := l.propose(ctx, id, t.commit)
		if err != nil {
			return nil, nil, fmt.Errorf("replog %s: finishing %s: %w", l.cfg.Group, id, err)
		}
		decisions[id] = chosen
		begun = append(begun, coord.BeginRecord{TxnID: id, Sites: sites, Marking: t.marking})
	}
	l.mu.Lock()
	for id, c := range l.chosen {
		decisions[id] = c.commit
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
		req := proto.RepNewTerm{Group: l.cfg.Group, Term: guess}
		replies, _ := l.fanout(ctx, func(int) any { return req })
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
	var b begunTxn
	for {
		l.mu.Lock()
		if c, ok := l.chosen[id]; ok {
			delete(l.begun, id)
			l.mu.Unlock()
			return c.commit, nil
		}
		if l.deposed {
			l.mu.Unlock()
			return false, ErrDeposed
		}
		if !l.proposing[id] {
			l.proposing[id] = true
			b = l.begun[id]
			l.mu.Unlock()
			break
		}
		l.mu.Unlock()
		if err := l.clock.Sleep(ctx, proposePoll); err != nil {
			return false, err
		}
	}
	everywhere, err := l.ballot(ctx, proto.RepAccept{Group: l.cfg.Group, TxnID: id, Commit: commit,
		Sites: b.sites, Marking: b.marking})
	l.mu.Lock()
	if err == nil {
		l.chosen[id] = choice{commit: commit, everywhere: everywhere}
		delete(l.begun, id)
	}
	delete(l.proposing, id)
	l.mu.Unlock()
	if err != nil {
		return false, err
	}
	return commit, nil
}

// ballot runs majority rounds of one accept, at the leader's term, until a
// majority acks, a higher term deposes us, or the retry budget runs out.
// everywhere reports that every replica acked the round that succeeded.
func (l *Leader) ballot(ctx context.Context, req proto.RepAccept) (everywhere bool, err error) {
	for attempt := 0; ; attempt++ {
		l.mu.Lock()
		if l.deposed {
			l.mu.Unlock()
			return false, ErrDeposed
		}
		term := l.term
		l.mu.Unlock()
		req.Term = term
		acks, higher := l.round(ctx, req)
		if acks >= l.majority() {
			return acks == len(l.cfg.Replicas), nil
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
			return false, ErrDeposed
		}
		if attempt >= retries {
			return false, fmt.Errorf("replog %s: no majority (%d/%d acks) after %d rounds",
				l.cfg.Group, acks, len(l.cfg.Replicas), attempt+1)
		}
		if err := l.clock.Sleep(ctx, retryDelay); err != nil {
			return false, err
		}
	}
}

// round is one fan-out: the accept to every replica, each carrying that
// replica's forget queue, counting acks at req.Term and reporting the
// highest conflicting term seen. A replica that does not ack gets its
// queue back. On a majority it observes the majority-th ack's latency —
// the ballot's replication cost.
func (l *Leader) round(ctx context.Context, req proto.RepAccept) (acks int, higher uint64) {
	sent := make([][]string, len(l.cfg.Replicas))
	replies, times := l.fanout(ctx, func(i int) any {
		l.mu.Lock()
		sent[i], l.forget[i] = l.forget[i], nil
		l.mu.Unlock()
		r := req
		r.Forget = sent[i]
		return r
	})
	ackTimes := make([]time.Duration, 0, len(replies))
	for i, raw := range replies {
		rep, ok := repReply(raw)
		if ok && rep.OK && rep.Term == req.Term {
			ackTimes = append(ackTimes, times[i])
			continue
		}
		if len(sent[i]) > 0 {
			l.mu.Lock()
			l.forget[i] = append(l.forget[i], sent[i]...)
			l.mu.Unlock()
		}
		if ok && rep.Term > higher {
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

// fanout sends build(i) to every replica i concurrently and returns the
// replies (nil where unreachable or errored) with each reply's arrival
// offset.
func (l *Leader) fanout(ctx context.Context, build func(i int) any) ([]any, []time.Duration) {
	replies := make([]any, len(l.cfg.Replicas))
	times := make([]time.Duration, len(l.cfg.Replicas))
	start := l.clock.Now()
	g := sim.NewGroup(l.clock)
	for i, replica := range l.cfg.Replicas {
		i, replica := i, replica
		g.Go(func() {
			resp, err := l.cfg.Caller.Call(ctx, l.cfg.Group, replica, build(i))
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
// Sites union (a superset delivery set is harmless; a subset would strand
// a participant); the accepted value of the highest term wins (terms are
// single-valued, so equal terms agree).
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
	if t.AccTerm >= u.accTerm {
		u.accTerm = t.AccTerm
		u.commit = t.Commit
	}
}

var _ coord.DecisionLog = (*Leader)(nil)
