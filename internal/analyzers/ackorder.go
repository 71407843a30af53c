package analyzers

import (
	"go/ast"

	"o2pc/internal/analyzers/framework"
)

// Ackorder enforces decision-durability ordering in the coordinator
// package: every call to deliverDecision — the DECISION fan-out to the
// participants — must be dominated, on the same path through the
// enclosing function, by a call that makes the decision durable first:
// DecisionLog.Decide, DecisionLog.PresumeAbort, DecisionLog.Snapshot
// (leader takeover re-reads — and re-proposes — the majority), or
// Coordinator.adoptPrior (which only returns a deliverable decision that
// is already logged). Under the replicated log "durable" means
// majority-acked: announcing a DECISION before the ballot's majority ack
// would let the decision die with the coordinator after participants
// acted on it — exactly the blocking window Paxos Commit exists to close.
//
// The walk is intraprocedural and path-sensitive like walorder's, with
// one deliberate difference: function literals inherit the flag at their
// syntactic position. Recovery's re-delivery fan-out spawns
// deliverDecision inside per-transaction goroutines after Snapshot has
// re-read the majority, and that dominance is real — the spawn site is
// only reachable through the durability call.
var Ackorder = &framework.Analyzer{
	Name: "ackorder",
	Doc: "in internal/coord, deliverDecision must be dominated by a " +
		"decision-durability call (Decide/PresumeAbort/Snapshot/adoptPrior)",
	Run: runAckorder,
}

// ackorderEstablishers are the DecisionLog methods whose return means the
// decision (or, for Snapshot, every possibly-chosen decision) is durable —
// synced locally, or majority-acked when the log is replicated. Sync is
// deliberately absent: it is a durability wait for records already
// appended, not evidence that this path appended one.
var ackorderEstablishers = map[string]bool{
	"Decide": true, "PresumeAbort": true, "Snapshot": true,
}

func runAckorder(pass *framework.Pass) error {
	if !pathEndsWith(pass.Pkg.Path(), "internal/coord") {
		return nil
	}
	f := &flow[bool]{
		info:  pass.TypesInfo,
		join:  func(a, b bool) bool { return a && b },
		call:  func(acked bool, call *ast.CallExpr) bool { return ackorderCall(pass, call, acked) },
		enter: func(acked bool, _ *ast.FieldList, _ *ast.FuncType) bool { return acked },
	}
	f.funcs(pass.Files, false)
	return nil
}

// ackorderCall reports an undurable decision send at call and returns the
// acked flag after it.
func ackorderCall(pass *framework.Pass, call *ast.CallExpr, acked bool) bool {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return acked
	}
	if !pathEndsWith(funcPkgPath(fn), "internal/coord") {
		return acked
	}
	named := recvNamed(fn)
	if named == nil {
		return acked
	}
	switch named.Obj().Name() {
	case "DecisionLog":
		if ackorderEstablishers[fn.Name()] {
			return true
		}
	case "Coordinator":
		switch fn.Name() {
		case "adoptPrior":
			// adoptPrior only hands back decisions that are already in the
			// log (a prior run's or recovery's), so delivery after it is
			// delivery of a durable decision.
			return true
		case "deliverDecision":
			if !acked {
				pass.Reportf(call.Pos(),
					"coord.Coordinator.deliverDecision is not dominated by a decision-durability call in this function: "+
						"a DECISION announced before DecisionLog.Decide/PresumeAbort/Snapshot returns (majority-acked "+
						"when replicated) can be lost with the coordinator after participants acted on it; "+
						"log the decision first or adopt the prior decided entry")
			}
		}
	}
	return acked
}
