package analyzers

import (
	"go/ast"
	"go/types"
)

// flow is the intraprocedural, path-sensitive statement walker shared by
// walorder, ackorder and lockheld. It threads a pass-defined state S
// through each function body: branches fork the state and merge it with
// join, a block stops at return, a branch statement or panic, and every
// call and nested function literal goes to the pass's hooks. Hooks must
// not mutate a state they were handed: a fork passes the same value to
// every branch.
//
// A switch's merge includes the entry state only when control can skip
// every clause, that is a switch without a default; such a switch never
// terminates. A select always runs one clause. A loop exits with the join
// of its entry state and its body's exit, the post statement included.
type flow[S any] struct {
	info *types.Info
	join func(a, b S) S
	// call returns the state after call is evaluated in state s.
	call func(s S, call *ast.CallExpr) S
	// enter returns the state a function body starts from, given the
	// state where the function appears (zero for a declaration) and its
	// signature; recv is nil for a literal.
	enter func(s S, recv *ast.FieldList, typ *ast.FuncType) S
}

// funcs walks every function in files: declarations and package-level
// literals from zero, nested literals through enter.
func (f *flow[S]) funcs(files []*ast.File, zero S) {
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				s := f.enter(zero, fn.Recv, fn.Type)
				if fn.Body != nil {
					f.stmts(fn.Body.List, s)
				}
				return false
			case *ast.FuncLit:
				f.lit(fn, zero)
				return false
			}
			return true
		})
	}
}

func (f *flow[S]) lit(lit *ast.FuncLit, s S) {
	f.stmts(lit.Body.List, f.enter(s, nil, lit.Type))
}

// stmts walks list from s; it returns the exit state and whether control
// cannot flow past the list.
func (f *flow[S]) stmts(list []ast.Stmt, s S) (S, bool) {
	for _, st := range list {
		var term bool
		if s, term = f.stmt(st, s); term {
			return s, true
		}
	}
	return s, false
}

// stmt walks one statement from s; a nil statement leaves s unchanged.
func (f *flow[S]) stmt(st ast.Stmt, s S) (S, bool) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		s = f.expr(st.X, s)
		call, ok := st.X.(*ast.CallExpr)
		return s, ok && isPanic(f.info, call)
	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt:
		return f.expr(st, s), false
	case *ast.GoStmt:
		return f.spawn(st.Call, s), false
	case *ast.DeferStmt:
		return f.spawn(st.Call, s), false
	case *ast.ReturnStmt:
		return f.expr(st, s), true
	case *ast.BranchStmt:
		return s, true
	case *ast.BlockStmt:
		return f.stmts(st.List, s)
	case *ast.LabeledStmt:
		return f.stmt(st.Stmt, s)
	case *ast.IfStmt:
		s, _ = f.stmt(st.Init, s)
		s = f.expr(st.Cond, s)
		then, thenTerm := f.stmts(st.Body.List, s)
		els, elseTerm := f.stmt(st.Else, s)
		out, live := f.fold(s, false, then, thenTerm)
		out, live = f.fold(out, live, els, elseTerm)
		return out, !live
	case *ast.ForStmt:
		s, _ = f.stmt(st.Init, s)
		s = f.expr(st.Cond, s)
		body, _ := f.stmts(st.Body.List, s)
		body, _ = f.stmt(st.Post, body)
		return f.join(s, body), false
	case *ast.RangeStmt:
		s = f.expr(st.X, s)
		body, _ := f.stmts(st.Body.List, s)
		return f.join(s, body), false
	case *ast.SwitchStmt:
		s, _ = f.stmt(st.Init, s)
		return f.clauses(st.Body, f.expr(st.Tag, s), true)
	case *ast.TypeSwitchStmt:
		s, _ = f.stmt(st.Init, s)
		s, _ = f.stmt(st.Assign, s)
		return f.clauses(st.Body, s, true)
	case *ast.SelectStmt:
		return f.clauses(st.Body, s, false)
	}
	return s, false
}

// clauses walks a switch or select body from s and merges the clause
// exits. Every case expression is evaluated before any clause body runs;
// control skips every clause only in a switch (isSwitch) with no default.
func (f *flow[S]) clauses(body *ast.BlockStmt, s S, isSwitch bool) (S, bool) {
	skip := isSwitch
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			for _, e := range cc.List {
				s = f.expr(e, s)
			}
			skip = skip && cc.List != nil
		}
	}
	out, live := s, skip
	for _, c := range body.List {
		var exit S
		var term bool
		switch c := c.(type) {
		case *ast.CaseClause:
			exit, term = f.stmts(c.Body, s)
		case *ast.CommClause:
			exit, _ = f.stmt(c.Comm, s)
			exit, term = f.stmts(c.Body, exit)
		}
		out, live = f.fold(out, live, exit, term)
	}
	return out, !live
}

// fold merges one alternative path's exit into out: a terminated path
// adds nothing, and the first live path replaces out, which until then
// holds the entry state.
func (f *flow[S]) fold(out S, live bool, exit S, term bool) (S, bool) {
	switch {
	case term:
		return out, live
	case !live:
		return exit, true
	}
	return f.join(out, exit), true
}

// spawn walks a go or defer call. Only a literal callee's body (from
// enter) and the arguments, which are evaluated at the statement, are
// seen: the call itself runs on another goroutine or at return.
func (f *flow[S]) spawn(call *ast.CallExpr, s S) S {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		f.lit(lit, s)
	}
	for _, arg := range call.Args {
		s = f.expr(arg, s)
	}
	return s
}

// expr hands every call under n, outermost first, to the call hook and
// every function literal to lit; a nil n leaves s unchanged.
func (f *flow[S]) expr(n ast.Node, s S) S {
	if n == nil {
		return s
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			f.lit(x, s)
			return false
		case *ast.CallExpr:
			s = f.call(s, x)
		}
		return true
	})
	return s
}

func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
