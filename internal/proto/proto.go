// Package proto defines the wire-level vocabulary of the system: the
// operation repertoire of subtransactions, the commit-protocol messages
// exchanged between coordinators and sites, and the protocol/marking mode
// enumerations.
//
// One design decision matters for experiment E6 (message census): a global
// transaction's per-site work is shipped as a single ExecRequest carrying
// the whole operation list (the restricted model's "well-defined repertoire
// of operations forming an interface at each site"), and all marking
// (P1/P2) state piggybacks on the existing messages. The message pattern
// per participant of a one-shot transaction is, under O2PC and O2PC+P1,
// the classic exchange
//
//	ExecRequest/ExecReply, VoteRequest/VoteReply, Decision/Ack
//
// — reproducing the paper's claim that the revised protocols need "no
// messages other than the standard 2PC messages". Under 2PC and Paxos
// Commit, whose YES vote keeps the locks (KeepsLocksAtVote), the VOTE-REQ
// rides the ExecRequest and the vote rides the ExecReply, so the pattern
// is one pair shorter:
//
//	ExecRequest+vote/ExecReply+vote, Decision/Ack
package proto

import "fmt"

// Protocol selects the commit protocol for a global transaction.
type Protocol uint8

const (
	// TwoPC is standard two-phase commit over distributed strict 2PL:
	// locks, shared and exclusive, are held from acquisition until the
	// DECISION message.
	TwoPC Protocol = iota + 1
	// O2PC is the paper's optimistic 2PC: a site that votes YES locally
	// commits and releases all locks immediately; an eventual abort
	// decision triggers compensation.
	O2PC
	// Paxos is Paxos Commit (Gray & Lamport): participants behave exactly
	// as under 2PC — locks held until the DECISION — but the coordinator's
	// decision record is replicated to a majority of decision-log replicas
	// before the DECISION is announced, so no single coordinator crash
	// blocks a YES-voting participant once a majority of replicas is up.
	Paxos
)

// KeepsLocksAtVote reports whether a participant's YES vote retains its
// locks until the DECISION (2PC, Paxos Commit) rather than releasing them
// by locally committing (O2PC). Such a vote exposes nothing, so a site may
// cast it as the last action of its exec: the coordinator ships every
// one-shot ExecRequest of these protocols with Vote set.
func (p Protocol) KeepsLocksAtVote() bool { return p == TwoPC || p == Paxos }

// String returns the protocol mnemonic.
func (p Protocol) String() string {
	switch p {
	case TwoPC:
		return "2PC"
	case O2PC:
		return "O2PC"
	case Paxos:
		return "Paxos"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// MarkProtocol selects the correctness protocol layered over O2PC.
type MarkProtocol uint8

const (
	// MarkNone runs O2PC bare (correct only under the saga/multi-
	// transaction models, per Section 4's closing remark).
	MarkNone MarkProtocol = iota
	// MarkP1 enforces stratification property S1 via undone-site marking
	// (Section 6.2).
	MarkP1
	// MarkP2 enforces the dual property S2 via locally-committed-site
	// marking.
	MarkP2
	// MarkSimple is the "very simple protocol" of Section 6.2's closing
	// discussion: every site a transaction executes at must be undone
	// with respect to the same transactions and locally-committed with
	// respect to none. Stricter (less concurrency) but trivially
	// stratified — the simplicity/concurrency trade-off the paper names.
	MarkSimple
)

// ParseMarkProtocol inverts MarkProtocol.String. Unknown spellings read as
// MarkNone.
func ParseMarkProtocol(s string) MarkProtocol {
	switch s {
	case "P1":
		return MarkP1
	case "P2":
		return MarkP2
	case "simple":
		return MarkSimple
	default:
		return MarkNone
	}
}

// String returns the marking-protocol mnemonic.
func (m MarkProtocol) String() string {
	switch m {
	case MarkNone:
		return "none"
	case MarkP1:
		return "P1"
	case MarkP2:
		return "P2"
	case MarkSimple:
		return "simple"
	default:
		return fmt.Sprintf("MarkProtocol(%d)", uint8(m))
	}
}

// OpKind enumerates subtransaction operations.
type OpKind uint8

const (
	// OpRead reads a key; its value is returned in ExecReply.Reads.
	OpRead OpKind = iota + 1
	// OpWrite installs a value.
	OpWrite
	// OpDelete installs a tombstone.
	OpDelete
	// OpAdd performs a read-modify-write on an int64-encoded key, adding
	// Delta. If HasMin is set and the result would fall below Min, the
	// operation fails and the site votes NO — the standard "insufficient
	// funds / no seats left" unilateral-abort trigger.
	OpAdd
)

// String returns the op mnemonic.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpDelete:
		return "delete"
	case OpAdd:
		return "add"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Operation is one step of a subtransaction.
type Operation struct {
	Kind   OpKind
	Key    string
	Value  []byte
	Delta  int64
	Min    int64
	HasMin bool
}

// Read returns a read operation.
func Read(key string) Operation { return Operation{Kind: OpRead, Key: key} }

// Write returns a write operation.
func Write(key string, value []byte) Operation {
	return Operation{Kind: OpWrite, Key: key, Value: value}
}

// Delete returns a delete operation.
func Delete(key string) Operation { return Operation{Kind: OpDelete, Key: key} }

// Add returns an unconditional int64 increment operation.
func Add(key string, delta int64) Operation { return Operation{Kind: OpAdd, Key: key, Delta: delta} }

// AddMin returns an int64 increment that fails (vote NO) when the result
// would drop below min.
func AddMin(key string, delta, min int64) Operation {
	return Operation{Kind: OpAdd, Key: key, Delta: delta, Min: min, HasMin: true}
}

// CompMode selects how a subtransaction is compensated when the global
// transaction aborts after the site locally committed.
type CompMode uint8

const (
	// CompSemantic derives inverse operations from the forward operation
	// list (the restricted model: "a DELETE as compensation for an
	// INSERT"); OpAdd inverts to an unconditional OpAdd of -Delta, which
	// does not disturb interleaved updates by other transactions.
	CompSemantic CompMode = iota + 1
	// CompBeforeImage restores the forward subtransaction's before-images
	// (the generic model's value-based undo, run as a new transaction).
	CompBeforeImage
	// CompCustom invokes a compensator registered by name at the site.
	CompCustom
	// CompNone marks the subtransaction non-compensatable (a "real
	// action"): the site must run it under retained locks until the
	// DECISION message even when the protocol is O2PC (Section 2's
	// adjustment; experiment E9).
	CompNone
)

// String returns the compensation-mode mnemonic.
func (c CompMode) String() string {
	switch c {
	case CompSemantic:
		return "semantic"
	case CompBeforeImage:
		return "before-image"
	case CompCustom:
		return "custom"
	case CompNone:
		return "none"
	default:
		return fmt.Sprintf("CompMode(%d)", uint8(c))
	}
}

// ExecRequest ships a whole subtransaction to a site.
type ExecRequest struct {
	TxnID       string
	Ops         []Operation
	Comp        CompMode
	Compensator string // registry name for CompCustom
	Protocol    Protocol
	Marking     MarkProtocol
	// TransMarks carries the global transaction's accumulated marks
	// (transmarks.j) and Visited whether any earlier subtransaction was
	// admitted; both piggyback the R1 compatibility check.
	TransMarks []string
	Visited    bool
	// Round is the session round index for multi-shot transactions: 0 for
	// the classic one-shot shape, >= 1 when the request continues a
	// transaction already open at the site (the site re-runs the R1
	// admission check against its current marking state and appends the
	// round's operations to the open subtransaction).
	Round int
	// Vote carries the VOTE-REQ on a one-shot (Round 0) request: a site
	// whose exec succeeds votes as the exec's last action and returns the
	// vote in ExecReply.Vote. Set only for protocols that keep locks at the
	// vote (Protocol.KeepsLocksAtVote).
	Vote bool
	// Last marks the transaction's last subtransaction. Once it has
	// executed, the transaction holds every lock it will ever take (its 2PL
	// lock point), so a vote riding it may release locks early — the
	// read-only exit, released read locks — as a stand-alone VOTE-REQ may.
	// A vote riding an earlier exec keeps every lock until the decision.
	Last bool
	// Incarnation names the coordinator incarnation that shipped the
	// request. A recovering coordinator presumes abort for the undecided
	// subtransactions of its older incarnations that the sites report
	// (ScanRequest), and a site refuses an exec from an incarnation older
	// than the latest scan's.
	Incarnation uint64
}

// ExecReply reports subtransaction execution.
type ExecReply struct {
	OK bool
	// Rejected is set when the marking protocol's compatibility check
	// failed; Fatal then distinguishes incompatibilities that only
	// aborting the global transaction can resolve from retryable ones.
	Rejected bool
	Fatal    bool
	Reason   string
	// Reads returns OpRead results keyed by Key; absent keys are omitted.
	Reads map[string][]byte
	// Marks returns the merged transmarks after the R1 union step.
	Marks []string
	// Witnesses piggybacks pending UDUM1 witness facts (also carried on
	// VOTE replies) so unmarking is not delayed when a witnessing
	// transaction never reaches its vote round.
	Witnesses []WitnessDelta
	Err       string
	// Vote is the site's vote when the request set Vote and the exec
	// succeeded (OK). Its witnesses are merged into Witnesses above.
	Vote VoteReply
}

// VoteRequest is the coordinator's VOTE-REQ (PREPARE) message. It travels
// on its own under O2PC and for multi-shot sessions; a one-shot 2PC or
// Paxos subtransaction carries it as ExecRequest.Vote instead.
type VoteRequest struct {
	TxnID string
}

// WitnessDelta reports that a global transaction executed at Site while the
// site was undone with respect to Forward — the local half of the UDUM1
// condition, piggybacked on VOTE replies.
type WitnessDelta struct {
	Forward string
	Site    string
}

// VoteReply is the participant's VOTE message. ReadOnly is the classic
// read-only exit (as in R*, which the paper builds on): a participant whose
// subtransaction wrote nothing commits it at its vote, releases everything
// and drops out of the protocol — the coordinator sends it no DECISION.
// Every site takes the exit at the transaction's lock point.
type VoteReply struct {
	Commit    bool
	ReadOnly  bool
	Reason    string
	Witnesses []WitnessDelta
}

// Decision is the coordinator's DECISION message. Unmarks carries
// undone-to-unmarked notices (R3) for transactions whose UDUM1 condition
// the coordinator-side witness board has established, piggybacked so that
// no extra messages are needed. Sync, on a re-sent decision, is the LSN at
// which the site's earlier ack placed its record of the decision (Ack.LSN)
// when no ack has reported that record durable since: the site forces its
// log through it before it acks.
type Decision struct {
	TxnID   string
	Commit  bool
	Unmarks []string
	Sync    uint64
}

// Ack acknowledges a Decision. Marked piggybacks whether the acking site
// currently holds an undone mark for the transaction, which is how the
// coordinator-side board learns the marked-site set for UDUM1 tracking.
//
// The site's log positions let the coordinator forget the transaction only
// once the site's record of the decision is on stable storage: LSN is that
// record's position when it was not yet durable at the ack (0 when it
// was), Synced is the site's durable position at the ack, and Boot names
// the site incarnation both positions belong to. A later ack from the same
// incarnation whose Synced reaches LSN confirms the record.
type Ack struct {
	TxnID  string
	Marked bool
	LSN    uint64
	Synced uint64
	Boot   uint64
}

// ResolveRequest is a prepared participant's inquiry for a lost decision
// (sent while blocked after a coordinator failure).
type ResolveRequest struct {
	TxnID string
}

// ResolveReply answers a ResolveRequest.
type ResolveReply struct {
	Known  bool
	Commit bool
}

// RepBegin once replicated a coordinator's BEGIN record ahead of the
// first subtransaction. Nothing sends it now: a decision's RepAccept
// carries the participant list, and a takeover learns the undecided
// transactions from the sites (ScanRequest). The type stays for the
// benchmark module's message classification, which names it.
type RepBegin struct {
	Group   string // leader group the record belongs to (coordinator name)
	Term    uint64 // leader term proposing the record
	TxnID   string
	Sites   []string
	Marking MarkProtocol
}

// RepAccept is the Paxos phase-2a message: the leader proposes the
// decision value for one transaction at its term. A majority of OK
// replies makes the decision chosen — only then may the DECISION message
// be sent to participants. Sites and Marking ride along, so a takeover's
// majority read finds every accepted decision's delivery set. Forget
// names ended transactions whose instances the replica may drop: every
// participant durably knows their outcome, and every replica accepted it.
type RepAccept struct {
	Group   string
	Term    uint64
	TxnID   string
	Commit  bool
	Sites   []string
	Marking MarkProtocol
	Forget  []string
}

// RepReply acknowledges RepAccept. OK reports acceptance;
// Term returns the replica's current term for the group (on a nack, the
// term that deposed the sender).
type RepReply struct {
	OK   bool
	Term uint64
}

// RepNewTerm is the Paxos phase-1a message: a would-be leader claims a
// term for the whole group (one promise covers every transaction instance,
// which is strictly more conservative than per-instance ballots).
type RepNewTerm struct {
	Group string
	Term  uint64
}

// RepTxnState is one transaction's accepted value at a replica, returned
// in the phase-1b grant so a takeover leader can finish it.
type RepTxnState struct {
	TxnID   string
	Sites   []string
	Marking MarkProtocol
	AccTerm uint64 // term at which the value was accepted
	Commit  bool   // the accepted value
}

// RepNewTermReply grants or refuses a term claim; on grant, Txns carries
// the replica's full acceptor state for the group.
type RepNewTermReply struct {
	OK   bool
	Term uint64
	Txns []RepTxnState
}

// ScanRequest asks a site, on behalf of a recovering coordinator (the
// sender), for every subtransaction of that coordinator the site holds
// undecided. Incarnation is the recovering coordinator's: from now on the
// site refuses an ExecRequest of that coordinator carrying an older one.
type ScanRequest struct {
	Incarnation uint64
}

// ScanTxn is one undecided subtransaction a site reports: executed,
// prepared or locally committed, with its marking protocol and the
// coordinator incarnation that shipped it.
type ScanTxn struct {
	TxnID       string
	Marking     MarkProtocol
	Incarnation uint64
}

// ScanReply answers a ScanRequest: Txns in transaction ID order, and
// Latest, the latest incarnation of the coordinator the site has seen —
// from a scan, an exec or a prepared entry. A Latest above the scan's
// incarnation tells the coordinator that an earlier life of it ran at a
// later incarnation (its clock read later), and that it must move past
// Latest.
type ScanReply struct {
	Txns   []ScanTxn
	Latest uint64
}

// TxnIDOf extracts the global transaction id a message belongs to, or ""
// for replies (which carry none) and unknown types. The transport's
// tracer uses it to attribute message events to transactions without
// knowing the message vocabulary.
func TxnIDOf(msg any) string {
	switch m := msg.(type) {
	case ExecRequest:
		return m.TxnID
	case *ExecRequest:
		return m.TxnID
	case VoteRequest:
		return m.TxnID
	case *VoteRequest:
		return m.TxnID
	case Decision:
		return m.TxnID
	case *Decision:
		return m.TxnID
	case Ack:
		return m.TxnID
	case *Ack:
		return m.TxnID
	case ResolveRequest:
		return m.TxnID
	case *ResolveRequest:
		return m.TxnID
	case RepAccept:
		return m.TxnID
	case *RepAccept:
		return m.TxnID
	default:
		return ""
	}
}
