// Package replog implements Paxos Commit (Gray & Lamport) for the
// coordinator's decision log: the transaction's fate is chosen by a
// majority of decision-log replicas instead of one coordinator disk, so a
// coordinator crash never blocks a YES-voting participant once a majority
// of replicas is up.
//
// The mapping onto the paper's protocol (PAPER.md, Section 7's recovery
// discussion): 2PC's single DECISION write-ahead point (Theorem 2) becomes
// a consensus instance per transaction. The Leader — owned by exactly one
// coordinator — runs the ballots; Replicas are the acceptors, one
// single-decree instance per transaction, sharing a per-group term (ballot
// number) register so one NewTerm round promises every instance at once
// (Gray & Lamport's "phase 1 for all instances in advance"). A DECISION is
// sent to participants only after a majority of replicas durably accepted
// it, so any later leader reading a majority is guaranteed to see every
// decision that can have reached a participant.
//
// Roles per node:
//
//   - Replica (this file): the acceptor state machine. Promises terms,
//     accepts decision values with their delivery sets, grants takeover
//     reads. All state is write-ahead logged (RecTerm, RecAccept) and
//     rebuilt from the WAL after a crash.
//   - Leader (leader.go): the coordinator-side proposer implementing
//     coord.DecisionLog. Elects itself with a NewTerm majority, proposes
//     with Accept majorities, and on takeover (Snapshot) finishes any
//     value a prior leader may have gotten chosen.
//
// No replica hears of a transaction before its decision: the leader keeps
// the participant list in memory and the accept carries it. A takeover
// learns the transactions still undecided from the sites instead
// (coord.Recover), and may propose abort for any of them the majority read
// did not return — no value can have been chosen for it.
package replog

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"o2pc/internal/proto"
	"o2pc/internal/trace"
	"o2pc/internal/wal"
)

// acceptorTxn is one transaction's consensus instance at a replica. It
// exists once a value is accepted: the value (commit), the term it was
// accepted at, and the delivery set and marking that rode the accept.
type acceptorTxn struct {
	sites   []string
	marking proto.MarkProtocol
	accTerm uint64
	commit  bool
}

// ReplicaConfig configures one decision-log replica.
type ReplicaConfig struct {
	// Name is the replica's node name (trace events, RPC registration).
	Name string
	// Log is the replica's write-ahead log. Nil selects an in-memory log.
	Log wal.Log
	// Tracer, when set, records WAL and replication events.
	Tracer *trace.Tracer
}

// Replica is one decision-log acceptor. It serves any number of groups
// (one per coordinator), each with its own term register and transaction
// instances. Safe for concurrent use; Handle is an rpc.Handler.
type Replica struct {
	name   string
	wal    wal.Log
	tracer *trace.Tracer

	mu      sync.Mutex
	crashed bool
	terms   map[string]uint64                  // group -> promised term
	txns    map[string]map[string]*acceptorTxn // group -> txn -> instance
}

// NewReplica returns a replica over cfg.Log (wrapped for tracing when a
// tracer is given). The log is replayed immediately so a replica restarted
// over an existing log resumes with its promises and accepts intact.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	log := cfg.Log
	if log == nil {
		log = wal.NewMemoryLog()
	}
	r := &Replica{
		name:   cfg.Name,
		wal:    trace.WrapLog(log, cfg.Tracer, cfg.Name),
		tracer: cfg.Tracer,
	}
	if err := r.Recover(); err != nil {
		return nil, err
	}
	return r, nil
}

// Name returns the replica's node name.
func (r *Replica) Name() string { return r.name }

// Handle serves the replication RPCs. It is registered as the replica's
// rpc.Handler.
func (r *Replica) Handle(ctx context.Context, from string, req any) (any, error) {
	switch m := req.(type) {
	case proto.RepAccept:
		return r.accept(from, m)
	case *proto.RepAccept:
		return r.accept(from, *m)
	case proto.RepNewTerm:
		return r.newTerm(from, m)
	case *proto.RepNewTerm:
		return r.newTerm(from, *m)
	default:
		return nil, fmt.Errorf("replog %s: unexpected request %T", r.name, req)
	}
}

// Crash simulates a process kill: all volatile state is dropped and the
// replica refuses requests until Recover rebuilds it from the WAL.
func (r *Replica) Crash() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.crashed = true
	r.terms = nil
	r.txns = nil
}

// Recover rebuilds the acceptor state by replaying the WAL and brings the
// replica back into service. The replay applies the same transitions the
// handlers do, so a rebuilt replica can never promise a lower term or
// forget an accepted value — the two safety obligations of an acceptor.
func (r *Replica) Recover() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	records, err := r.wal.Records()
	if err != nil {
		return fmt.Errorf("replog %s: reading log: %w", r.name, err)
	}
	terms := make(map[string]uint64)
	txns := make(map[string]map[string]*acceptorTxn)
	begins := make(map[instanceKey]*acceptorTxn)
	for _, rec := range records {
		switch rec.Type {
		case wal.RecBegin:
			// A log written before accepts carried the delivery set holds it
			// in a BEGIN ahead of the instance's accepts. A BEGIN alone
			// carries no value, so it makes no instance.
			group, t, err := splitLegacyBeginAux(rec.Aux)
			if err != nil {
				return fmt.Errorf("replog %s: LSN %d: %w", r.name, rec.LSN, err)
			}
			begins[instanceKey{group, rec.TxnID}] = t
		case wal.RecTerm:
			group, term, err := splitTermAux(rec.Aux)
			if err != nil {
				return fmt.Errorf("replog %s: LSN %d: %w", r.name, rec.LSN, err)
			}
			if term > terms[group] {
				terms[group] = term
			}
		case wal.RecAccept:
			group, t, legacy, err := splitAcceptAux(rec.Aux)
			if err != nil {
				return fmt.Errorf("replog %s: LSN %d: %w", r.name, rec.LSN, err)
			}
			if b := begins[instanceKey{group, rec.TxnID}]; legacy && b != nil {
				t.sites, t.marking = b.sites, b.marking
			}
			groupTxns(txns, group)[rec.TxnID] = t
			if t.accTerm > terms[group] {
				terms[group] = t.accTerm
			}
		default:
			return fmt.Errorf("replog %s: unexpected %v record (LSN %d) in replica log",
				r.name, rec.Type, rec.LSN)
		}
	}
	r.terms = terms
	r.txns = txns
	r.crashed = false
	return nil
}

// accept durably accepts a decision value at m.Term. The write-ahead
// point: the reply that completes the leader's majority must not be sent
// before the accept record is synced, or a crashed majority could forget a
// decision the leader already delivered.
func (r *Replica) accept(from string, m proto.RepAccept) (any, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed {
		return nil, fmt.Errorf("replog %s: crashed", r.name)
	}
	cur, ok, err := r.admit(m.Group, m.Term)
	if err != nil {
		return nil, err
	}
	if !ok {
		return proto.RepReply{OK: false, Term: cur}, nil
	}
	t := &acceptorTxn{
		sites:   append([]string(nil), m.Sites...),
		marking: m.Marking,
		accTerm: m.Term,
		commit:  m.Commit,
	}
	groupTxns(r.txns, m.Group)[m.TxnID] = t
	aux := wal.DecisionAux(m.Commit)
	if _, err := r.wal.Append(wal.Record{
		Type:  wal.RecAccept,
		TxnID: m.TxnID,
		Aux: m.Group + "|" + aux + "|" + strconv.FormatUint(m.Term, 10) + "|" +
			strings.Join(m.Sites, ",") + "|" + m.Marking.String(),
	}); err != nil {
		return nil, err
	}
	if err := r.wal.Sync(); err != nil {
		return nil, err
	}
	r.tracer.Emit(r.name, trace.EvRepAccept, m.TxnID, from,
		aux+" term="+strconv.FormatUint(m.Term, 10))
	return proto.RepReply{OK: true, Term: m.Term}, nil
}

// newTerm grants a takeover read iff m.Term is strictly greater than the
// group's promise — the strictness is what makes a term's leader unique.
// The grant carries every instance the replica knows for the group, sorted
// for determinism, and is durable before it is sent (a re-granted promise
// after a crash could otherwise elect two leaders at one term).
func (r *Replica) newTerm(from string, m proto.RepNewTerm) (any, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.crashed {
		return nil, fmt.Errorf("replog %s: crashed", r.name)
	}
	if cur := r.terms[m.Group]; m.Term <= cur {
		return proto.RepNewTermReply{OK: false, Term: cur}, nil
	}
	r.terms[m.Group] = m.Term
	if _, err := r.wal.Append(wal.Record{
		Type: wal.RecTerm,
		Aux:  m.Group + "|" + strconv.FormatUint(m.Term, 10),
	}); err != nil {
		return nil, err
	}
	if err := r.wal.Sync(); err != nil {
		return nil, err
	}
	group := r.txns[m.Group]
	ids := make([]string, 0, len(group))
	for id := range group {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	txns := make([]proto.RepTxnState, 0, len(ids))
	for _, id := range ids {
		t := group[id]
		txns = append(txns, proto.RepTxnState{
			TxnID:   id,
			Sites:   append([]string(nil), t.sites...),
			Marking: t.marking,
			AccTerm: t.accTerm,
			Commit:  t.commit,
		})
	}
	r.tracer.Emit(r.name, trace.EvRepTakeover, "", from,
		"grant term="+strconv.FormatUint(m.Term, 10)+" txns="+strconv.Itoa(len(txns)))
	return proto.RepNewTermReply{OK: true, Term: m.Term, Txns: txns}, nil
}

// admit applies the acceptor's term rule for Accept: any term >= the
// promise is admitted (raising the promise, durably when it changed);
// lower terms are rejected. Returns the group's current term and whether
// the message was admitted. Caller holds r.mu.
func (r *Replica) admit(group string, term uint64) (uint64, bool, error) {
	cur := r.terms[group]
	if term < cur {
		return cur, false, nil
	}
	if term > cur {
		r.terms[group] = term
		// The raised promise rides on the admitted record's sync; a crash
		// before that sync loses the record and the promise together, which
		// is the pre-message state — safe.
		if _, err := r.wal.Append(wal.Record{
			Type: wal.RecTerm,
			Aux:  group + "|" + strconv.FormatUint(term, 10),
		}); err != nil {
			return cur, false, err
		}
	}
	return term, true, nil
}

// groupTxns returns (creating) the per-group instance map.
func groupTxns(m map[string]map[string]*acceptorTxn, group string) map[string]*acceptorTxn {
	g := m[group]
	if g == nil {
		g = make(map[string]*acceptorTxn)
		m[group] = g
	}
	return g
}

func splitTermAux(aux string) (string, uint64, error) {
	i := strings.LastIndexByte(aux, '|')
	if i < 0 {
		return "", 0, fmt.Errorf("malformed TERM aux %q", aux)
	}
	term, err := strconv.ParseUint(aux[i+1:], 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("malformed TERM aux %q: %w", aux, err)
	}
	return aux[:i], term, nil
}

// splitAcceptAux parses a RecAccept Aux,
// "group|decision|term|site,site|marking", into the group and the accepted
// instance. The group is read as everything before the last four fields.
// legacy reports the "group|decision|term" a replica logged before accepts
// carried the delivery set; the instance's RecBegin holds it then.
func splitAcceptAux(aux string) (group string, t *acceptorTxn, legacy bool, err error) {
	n := 4
	if j := strings.LastIndexByte(aux, '|'); j >= 0 {
		if _, err := strconv.ParseUint(aux[j+1:], 10, 64); err == nil {
			legacy, n = true, 2 // "group|decision|term": a marking is never a number
		}
	}
	fields := make([]string, n, 4)
	rest := aux
	for i := n - 1; i >= 0; i-- {
		j := strings.LastIndexByte(rest, '|')
		if j < 0 {
			return "", nil, false, fmt.Errorf("malformed ACCEPT aux %q", aux)
		}
		rest, fields[i] = rest[:j], rest[j+1:]
	}
	fields = fields[:4]
	term, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return "", nil, false, fmt.Errorf("malformed ACCEPT aux %q: %w", aux, err)
	}
	t = &acceptorTxn{accTerm: term, marking: proto.ParseMarkProtocol(fields[3])}
	t.commit, _ = wal.ParseDecision(fields[0]) // anything else reads as abort
	if fields[2] != "" {
		t.sites = strings.Split(fields[2], ",")
	}
	return rest, t, legacy, nil
}

// instanceKey names one consensus instance: a group's transaction.
type instanceKey struct{ group, txnID string }

// splitLegacyBeginAux parses the "group|sites|marking" Aux of a RecBegin,
// which replicas logged before accepts carried the delivery set.
func splitLegacyBeginAux(aux string) (string, *acceptorTxn, error) {
	i := strings.IndexByte(aux, '|')
	j := strings.LastIndexByte(aux, '|')
	if i < 0 || j <= i {
		return "", nil, fmt.Errorf("malformed BEGIN aux %q", aux)
	}
	t := &acceptorTxn{marking: proto.ParseMarkProtocol(aux[j+1:])}
	if mid := aux[i+1 : j]; mid != "" {
		t.sites = strings.Split(mid, ",")
	}
	return aux[:i], t, nil
}
