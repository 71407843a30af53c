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
// The walk is intraprocedural and path-sensitive: branches fork the
// "appended" flag and merge by conjunction, so a mutation is clean only
// when every path from the function entry to it passes through an append.
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
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					w := &walWalker{pass: pass}
					w.block(fn.Body, false)
				}
				return false
			case *ast.FuncLit:
				w := &walWalker{pass: pass}
				w.block(fn.Body, false)
				return false
			}
			return true
		})
	}
	return nil
}

type walWalker struct {
	pass *framework.Pass
}

// block walks stmts threading the appended flag; it returns the exit flag
// and whether control cannot flow past the block.
func (w *walWalker) block(b *ast.BlockStmt, appended bool) (bool, bool) {
	return w.stmts(b.List, appended)
}

func (w *walWalker) stmts(list []ast.Stmt, appended bool) (bool, bool) {
	for _, stmt := range list {
		var terminated bool
		appended, terminated = w.stmt(stmt, appended)
		if terminated {
			return appended, true
		}
	}
	return appended, false
}

func (w *walWalker) stmt(stmt ast.Stmt, appended bool) (bool, bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		appended = w.expr(s.X, appended)
		if call, ok := s.X.(*ast.CallExpr); ok && isPanic(w.pass.TypesInfo, call) {
			return appended, true
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			appended = w.expr(e, appended)
		}
		for _, e := range s.Lhs {
			appended = w.expr(e, appended)
		}
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt:
		appended = w.exprStmtScan(stmt, appended)
	case *ast.DeferStmt, *ast.GoStmt:
		var call *ast.CallExpr
		if d, ok := s.(*ast.DeferStmt); ok {
			call = d.Call
		} else {
			call = s.(*ast.GoStmt).Call
		}
		if lit, ok := call.Fun.(*ast.FuncLit); ok {
			w.block(lit.Body, false)
		}
		for _, arg := range call.Args {
			appended = w.expr(arg, appended)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			appended = w.expr(e, appended)
		}
		return appended, true
	case *ast.BranchStmt:
		return appended, true
	case *ast.BlockStmt:
		return w.block(s, appended)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, appended)
	case *ast.IfStmt:
		if s.Init != nil {
			appended, _ = w.stmt(s.Init, appended)
		}
		appended = w.expr(s.Cond, appended)
		thenExit, thenTerm := w.block(s.Body, appended)
		elseExit, elseTerm := appended, false
		if s.Else != nil {
			elseExit, elseTerm = w.stmt(s.Else, appended)
		}
		switch {
		case thenTerm && elseTerm:
			return appended, true
		case thenTerm:
			return elseExit, false
		case elseTerm:
			return thenExit, false
		default:
			return thenExit && elseExit, false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			appended, _ = w.stmt(s.Init, appended)
		}
		if s.Cond != nil {
			appended = w.expr(s.Cond, appended)
		}
		w.block(s.Body, appended)
		return appended, false
	case *ast.RangeStmt:
		appended = w.expr(s.X, appended)
		w.block(s.Body, appended)
		return appended, false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.clauses(stmt, appended)
	}
	return appended, false
}

func (w *walWalker) clauses(stmt ast.Stmt, appended bool) (bool, bool) {
	var bodies [][]ast.Stmt
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			appended, _ = w.stmt(s.Init, appended)
		}
		if s.Tag != nil {
			appended = w.expr(s.Tag, appended)
		}
		for _, c := range s.Body.List {
			bodies = append(bodies, c.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			appended, _ = w.stmt(s.Init, appended)
		}
		for _, c := range s.Body.List {
			bodies = append(bodies, c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				w.stmt(cc.Comm, appended)
			}
			bodies = append(bodies, cc.Body)
		}
	}
	merged := true
	allTerm := len(bodies) > 0
	anyLive := false
	for _, body := range bodies {
		exit, term := w.stmts(body, appended)
		if !term {
			merged = merged && exit
			allTerm = false
			anyLive = true
		}
	}
	if !anyLive {
		merged = appended
	}
	return merged, allTerm
}

func (w *walWalker) exprStmtScan(stmt ast.Stmt, appended bool) bool {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			w.block(x.Body, false)
			return false
		case *ast.CallExpr:
			appended = w.call(x, appended)
		}
		return true
	})
	return appended
}

// expr scans one expression in evaluation-ish order for storage mutations
// and wal appends.
func (w *walWalker) expr(e ast.Expr, appended bool) bool {
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			w.block(x.Body, false)
			return false
		case *ast.CallExpr:
			appended = w.call(x, appended)
		}
		return true
	})
	return appended
}

func (w *walWalker) call(call *ast.CallExpr, appended bool) bool {
	fn := calleeFunc(w.pass.TypesInfo, call)
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
					w.pass.Reportf(call.Pos(),
						"marking.SiteMarks.%s is not dominated by a wal append in this function: "+
							"an unlogged mark vanishes on crash recovery; "+
							"mutate through marking.LoggedMarks or append a RecMark/RecUnmark record first", name)
				}
			}
		}
	}
	if pathEndsWith(path, "internal/storage") && walorderMutators[name] {
		if named := recvNamed(fn); named != nil && named.Obj().Name() == "Store" && !appended {
			w.pass.Reportf(call.Pos(),
				"storage.Store.%s is not dominated by a wal append in this function: "+
					"a crash here loses the mutation (Theorem 2 needs every exposure-relevant write in the log); "+
					"append the records first or route the write through the txn manager", name)
		}
	}
	return appended
}
