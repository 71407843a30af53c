// Package o2pc is a from-scratch implementation of the optimistic
// two-phase commit protocol (O2PC) of Levy, Korth and Silberschatz,
// "An Optimistic Commit Protocol for Distributed Transaction Management"
// (SIGMOD 1991), together with everything the protocol needs underneath:
// a per-site storage engine, write-ahead logging with undo/redo recovery,
// a strict-2PL lock manager with deadlock detection, a simulated (and a
// TCP) message network, the baseline distributed-2PL 2PC protocol, the
// compensating-transaction framework, the P1/P2 site-marking protocols of
// the paper's Section 6, and an executable form of the Section 5
// serialization-graph theory used to verify executions.
//
// # The protocol in one paragraph
//
// Under distributed 2PL with standard 2PC, a participant that votes YES
// must hold its exclusive locks until the coordinator's decision arrives —
// an unbounded wait if the coordinator fails. O2PC instead lets the
// participant locally commit and release all locks at the YES vote; if the
// global decision turns out to be abort, the exposed updates are undone
// semantically by a compensating transaction. The system then guarantees
// semantic atomicity rather than all-or-nothing atomicity, and the paper's
// correctness criterion ("no regular cycles in the global serialization
// graph") replaces plain serializability; protocol P1 enforces it using
// per-site marking sets with no messages beyond the standard 2PC exchange.
//
// # Quick start
//
//	cl := o2pc.NewCluster(o2pc.ClusterConfig{Sites: 3, Record: true})
//	cl.SeedInt64("balance", 100)
//	res := cl.Run(ctx, o2pc.TxnSpec{
//		Protocol: o2pc.O2PC,
//		Marking:  o2pc.MarkP1,
//		Subtxns: []o2pc.SubtxnSpec{
//			{Site: "s0", Ops: []o2pc.Operation{o2pc.AddMin("balance", -40, 0)}, Comp: o2pc.CompSemantic},
//			{Site: "s1", Ops: []o2pc.Operation{o2pc.Add("balance", 40)}, Comp: o2pc.CompSemantic},
//		},
//	})
//	if res.Committed() { ... }
//
// See examples/ for complete programs, DESIGN.md for the architecture and
// the experiment index, and EXPERIMENTS.md for the reproduction results.
package o2pc

import (
	"context"

	"o2pc/internal/compensate"
	"o2pc/internal/coord"
	"o2pc/internal/core"
	"o2pc/internal/proto"
	"o2pc/internal/rpc"
	"o2pc/internal/sg"
	"o2pc/internal/sim"
	"o2pc/internal/storage"
	"o2pc/internal/txn"
	"o2pc/internal/workload"
)

// Cluster is an in-process multidatabase: N autonomous site DBMSs joined
// by a simulated network, with coordinators running the commit protocols.
type Cluster = core.Cluster

// ClusterConfig parameterizes NewCluster.
type ClusterConfig = core.Config

// NetworkConfig tunes the simulated network (latency, jitter, loss, seed).
type NetworkConfig = rpc.Config

// NewCluster assembles a cluster.
func NewCluster(cfg ClusterConfig) *Cluster { return core.NewCluster(cfg) }

// TxnSpec describes a global transaction; SubtxnSpec is one site's share.
type (
	TxnSpec    = coord.TxnSpec
	SubtxnSpec = coord.SubtxnSpec
)

// Result reports a global transaction's execution; Outcome classifies it.
type (
	Result  = coord.Result
	Outcome = coord.Outcome
)

// Outcome values.
const (
	Committed          = coord.Committed
	AbortedVote        = coord.AbortedVote
	AbortedExec        = coord.AbortedExec
	AbortedMarking     = coord.AbortedMarking
	AbortedCoordinator = coord.AbortedCoordinator
)

// Protocol selects the commit protocol of a transaction.
type Protocol = proto.Protocol

// Protocol values.
const (
	// TwoPC is the baseline: distributed strict 2PL with standard 2PC
	// (locks held until the DECISION message).
	TwoPC = proto.TwoPC
	// O2PC is the paper's optimistic protocol: locks released at the YES
	// vote; aborts handled by compensation.
	O2PC = proto.O2PC
	// Paxos is Gray and Lamport's Paxos Commit: participants hold their
	// locks to the decision as under 2PC, and the decision is chosen by a
	// majority of ClusterConfig.Replicas decision-log replicas, so a
	// coordinator crash does not block them.
	Paxos = proto.Paxos
)

// MarkProtocol selects the correctness protocol layered over O2PC.
type MarkProtocol = proto.MarkProtocol

// MarkProtocol values.
const (
	MarkNone = proto.MarkNone
	MarkP1   = proto.MarkP1
	MarkP2   = proto.MarkP2
	// MarkSimple is the "very simple protocol" of Section 6.2's closing
	// discussion: stricter than P1 (all sites must be undone w.r.t. the
	// same transactions and locally-committed w.r.t. none) but trivially
	// stratified — the paper's simplicity/concurrency trade-off point.
	MarkSimple = proto.MarkSimple
)

// Operation is one step of a subtransaction; constructors below build the
// operation repertoire (the restricted model's site interface).
type Operation = proto.Operation

// Read returns a read of key.
func Read(key string) Operation { return proto.Read(key) }

// Write returns a write of key.
func Write(key string, value []byte) Operation { return proto.Write(key, value) }

// Delete returns a delete of key.
func Delete(key string) Operation { return proto.Delete(key) }

// Add returns an unconditional int64 increment of key by delta; its
// semantic inverse is Add(key, -delta).
func Add(key string, delta int64) Operation { return proto.Add(key, delta) }

// AddMin returns an int64 increment that makes the site vote NO when the
// result would fall below min (insufficient funds, no seats left, ...).
func AddMin(key string, delta, min int64) Operation { return proto.AddMin(key, delta, min) }

// CompMode selects how an exposed subtransaction is compensated.
type CompMode = proto.CompMode

// CompMode values.
const (
	// CompSemantic derives inverse operations from the forward operation
	// list (restricted model).
	CompSemantic = proto.CompSemantic
	// CompBeforeImage restores before-images as a fresh transaction
	// (generic model).
	CompBeforeImage = proto.CompBeforeImage
	// CompCustom invokes a compensator registered with a Registry.
	CompCustom = proto.CompCustom
	// CompNone marks a real action: the site retains locks until the
	// decision even under O2PC.
	CompNone = proto.CompNone
)

// Txn is a transaction handle bound to one site, used by local
// transactions (Cluster.RunLocal) and custom compensators.
type Txn = txn.Txn

// Key identifies a data item at a site.
type Key = storage.Key

// OpKind enumerates subtransaction operation kinds (inspection of
// Forward.Ops in custom compensators).
type OpKind = proto.OpKind

// OpKind values.
const (
	OpRead   = proto.OpRead
	OpWrite  = proto.OpWrite
	OpDelete = proto.OpDelete
	OpAdd    = proto.OpAdd
)

// Registry holds application-defined compensators (CompCustom).
type Registry = compensate.Registry

// NewRegistry returns an empty compensator registry.
func NewRegistry() *Registry { return compensate.NewRegistry() }

// CompensatorFunc is an application-defined compensator.
type CompensatorFunc = compensate.Func

// Forward describes the forward subtransaction a compensator undoes.
type Forward = compensate.Forward

// CrashPhase identifies coordinator crash-injection points for failure
// experiments.
type CrashPhase = coord.CrashPhase

// CrashPhase values.
const (
	// CrashAfterVotes crashes the coordinator after collecting votes,
	// before logging a decision (recovery presumes abort).
	CrashAfterVotes = coord.CrashAfterVotes
	// CrashAfterDecisionLogged crashes after the decision is durable but
	// before any participant learns it (recovery re-sends it).
	CrashAfterDecisionLogged = coord.CrashAfterDecisionLogged
)

// Audit is the Section 5 verifier's verdict on a recorded history.
type Audit = sg.Audit

// Clock abstracts time for the whole system; ClusterConfig.Clock accepts
// one. The zero value (nil) means real time.
type Clock = sim.Clock

// VirtualClock is a deterministic discrete-event clock: with it, an entire
// cluster run — crashes, partitions, message loss — executes in virtual
// time with no real sleeping, and a fixed seed reproduces the identical
// execution. See internal/sim.
type VirtualClock = sim.VirtualClock

// NewVirtualClock returns a virtual clock starting at a fixed epoch.
func NewVirtualClock() *VirtualClock { return sim.NewVirtualClock() }

// Group is a clock-aware errgroup-lite: goroutines spawned through it are
// tracked by a virtual clock so waiting on them cannot stall virtual time.
type Group = sim.Group

// NewGroup returns a Group tracked by c (nil means real time).
func NewGroup(c Clock) *Group { return sim.NewGroup(c) }

// WorkloadConfig parameterizes a generated transaction mix.
type WorkloadConfig = workload.Config

// WorkloadReport summarizes a workload run.
type WorkloadReport = workload.Report

// RunWorkload seeds the cluster and drives the configured mix against it.
func RunWorkload(ctx context.Context, cl *Cluster, cfg WorkloadConfig) WorkloadReport {
	return workload.Run(ctx, cl, cfg)
}
