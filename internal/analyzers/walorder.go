package analyzers

import (
	"go/ast"

	"o2pc/internal/analyzers/framework"
)

// Walorder enforces write-ahead ordering in the participant package: every
// direct storage mutation reachable in internal/site must be dominated by
// a WAL append (or a WAL-driven replay helper) on the same path through
// the enclosing function. The paper's semantic-atomicity guarantee
// (Theorem 2) assumes the log captures every exposure-relevant write — a
// store mutation that skips the log is invisible to crash recovery and to
// compensation, which is precisely the SeedInt64 bypass class of bug this
// pass exists to catch.
//
// The walk (flow) is intraprocedural and path-sensitive: branches fork the
// "appended" flag and merge by conjunction, so a mutation is clean only
// when every path from the function entry to it passes through an append.
// Function literals start unappended: they may run anywhere.
var Walorder = &framework.Analyzer{
	Name: "walorder",
	Doc: "in internal/site, storage mutations must be dominated by a " +
		"wal append (or WAL-driven replay) in the same function",
	Run: runWalorder,
}

// walorderMutators is the set of storage.Store methods that mutate
// durable-looking state.
var walorderMutators = map[string]bool{
	"Put": true, "Delete": true, "Restore": true,
	"Remove": true, "LoadSnapshot": true,
}

// walorderAppends is the set of wal package calls that establish
// log-before-store ordering: direct appends plus the replay helpers whose
// inputs are, by construction, records already in the log. Matching is by
// package path and method name, so a decorator's pass-through Append
// qualifies, while Sync — a durability wait, not a log write —
// deliberately does not.
var walorderAppends = map[string]bool{
	"Append": true, "ApplyUndo": true, "ApplyRedo": true,
	"Recover": true, "WriteCheckpoint": true,
}

// walorderMarkMutators is the set of marking-set mutations that must obey
// the same write-ahead discipline as store mutations: a mark that exists
// only in memory vanishes on a crash, and the paper's marking protocols
// rely on undone/lc marks surviving exactly as long as the log says they
// do. Calls on the raw SiteMarks require a dominating append; calls on the
// LoggedMarks decorator log internally and count as appends themselves.
var walorderMarkMutators = map[string]bool{
	"MarkUndone": true, "Unmark": true,
}

func runWalorder(pass *framework.Pass) error {
	if !pathEndsWith(pass.Pkg.Path(), "internal/site") {
		return nil
	}
	f := &flow[bool]{
		info:  pass.TypesInfo,
		join:  func(a, b bool) bool { return a && b },
		call:  func(appended bool, call *ast.CallExpr) bool { return walorderCall(pass, call, appended) },
		enter: func(bool, *ast.FieldList, *ast.FuncType) bool { return false },
	}
	f.funcs(pass.Files, false)
	return nil
}

// walorderCall reports an unlogged mutation at call and returns the
// appended flag after it.
func walorderCall(pass *framework.Pass, call *ast.CallExpr, appended bool) bool {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return appended
	}
	path := funcPkgPath(fn)
	name := fn.Name()

	if pathEndsWith(path, "internal/wal") && walorderAppends[name] {
		return true
	}
	if pathEndsWith(path, "internal/marking") && walorderMarkMutators[name] {
		if named := recvNamed(fn); named != nil {
			switch named.Obj().Name() {
			case "LoggedMarks":
				// The decorator appends RecMark/RecUnmark before touching
				// the in-memory set: it is itself a wal append.
				return true
			case "SiteMarks":
				if !appended {
					pass.Reportf(call.Pos(),
						"marking.SiteMarks.%s is not dominated by a wal append in this function: "+
							"an unlogged mark vanishes on crash recovery; "+
							"mutate through marking.LoggedMarks or append a RecMark/RecUnmark record first", name)
				}
			}
		}
	}
	if pathEndsWith(path, "internal/storage") && walorderMutators[name] {
		if named := recvNamed(fn); named != nil && named.Obj().Name() == "Store" && !appended {
			pass.Reportf(call.Pos(),
				"storage.Store.%s is not dominated by a wal append in this function: "+
					"a crash here loses the mutation (Theorem 2 needs every exposure-relevant write in the log); "+
					"append the records first or route the write through the txn manager", name)
		}
	}
	return appended
}
