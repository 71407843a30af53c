package analyzers

import (
	"go/ast"
	"go/types"

	"o2pc/internal/analyzers/framework"
)

// Maporder flags code where Go's randomized map-iteration order can flow
// into a determinism-critical sink: a WAL append, a trace emission, or an
// rpc payload. The replay and exploration machinery (DESIGN.md §10)
// depends on byte-identical traces across same-seed runs; a `range` over
// a map that feeds the log or the wire in iteration order injects
// scheduler-independent nondeterminism that no seed controls.
//
// The pass runs a lightweight intra-procedural dataflow walk per
// function: ranging over a map (or over a slice that accumulated
// map-ordered elements) opens an "ordered context"; sinks called inside
// one are reported, as are sink arguments whose value is tainted by
// map order. Sorting (sort.*, slices.Sort*) launders the taint, and
// slices.Sorted(maps.Keys(m)) is the canonical clean idiom. Sinks
// propagate interprocedurally via package facts, so a helper that
// forwards to wal.Append is itself a sink for its callers.
var Maporder = &framework.Analyzer{
	Name: "maporder",
	Doc: "map iteration order must not flow into WAL appends, trace " +
		"events, or rpc payloads without an intervening sort",
	Facts: maporderFacts,
	Run:   runMaporder,
}

// maporderBaseSink reports whether fn is a determinism sink by
// definition: bytes or events it receives become part of the durable or
// replayed stream in argument order.
func maporderBaseSink(fn *types.Func) bool {
	path, name := funcPkgPath(fn), fn.Name()
	switch {
	case pathEndsWith(path, "internal/wal"):
		return name == "Append" || name == "Checkpoint"
	case pathEndsWith(path, "internal/trace"):
		return name == "Emit"
	case pathEndsWith(path, "internal/rpc"):
		return name == "Call" || name == "Send"
	}
	return false
}

// maporderFacts exports the set of declared functions that transitively
// call a sink, so cross-package callers treat them as sinks too.
func maporderFacts(pass *framework.Pass) (any, error) {
	fs := newFactSet(pass)
	local := make(map[string]bool)
	for changed := true; changed; {
		changed = false
		for _, f := range pass.Files {
			if isTestFile(pass.Fset.Position(f.Pos()).Filename) {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := declFunc(pass.TypesInfo, fd)
				if fn == nil || local[funcKey(fn)] {
					continue
				}
				found := false
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if found {
						return false
					}
					if call, ok := n.(*ast.CallExpr); ok {
						if maporderSink(pass, fs, local, calleeFunc(pass.TypesInfo, call)) {
							found = true
						}
					}
					return !found
				})
				if found {
					local[funcKey(fn)] = true
					changed = true
				}
			}
		}
	}
	return sortedKeys(local), nil
}

func maporderSink(pass *framework.Pass, fs *factSet, local map[string]bool, fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if maporderBaseSink(fn) {
		return true
	}
	if fn.Pkg() != nil && fn.Pkg() == pass.Pkg {
		return local[funcKey(fn)]
	}
	return fs.has(fn)
}

func runMaporder(pass *framework.Pass) error {
	fs := newFactSet(pass)
	var own []string
	ownSet := make(map[string]bool)
	if pass.ImportFact(pass.Pkg.Path(), &own) {
		for _, k := range own {
			ownSet[k] = true
		}
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset.Position(f.Pos()).Filename) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					w := &mapWalker{pass: pass, fs: fs, own: ownSet, tainted: make(map[types.Object]bool)}
					w.stmts(fn.Body.List)
				}
				return false
			case *ast.FuncLit:
				w := &mapWalker{pass: pass, fs: fs, own: ownSet, tainted: make(map[types.Object]bool)}
				w.stmts(fn.Body.List)
				return false
			}
			return true
		})
	}
	return nil
}

// mapWalker carries the per-function dataflow state: which slice
// variables hold map-ordered elements, and how many map-ordered range
// bodies enclose the current statement.
type mapWalker struct {
	pass    *framework.Pass
	fs      *factSet
	own     map[string]bool
	tainted map[types.Object]bool
	ordered []string // descriptions of enclosing map-ordered ranges
}

func (w *mapWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *mapWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.RangeStmt:
		w.scan(s.X)
		desc := w.orderedSource(s.X)
		if desc != "" {
			w.ordered = append(w.ordered, desc)
			defer func() { w.ordered = w.ordered[:len(w.ordered)-1] }()
		}
		w.stmts(s.Body.List)
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			w.launder(call)
		}
		w.scan(s.X)
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.scan(s.Cond)
		w.stmts(s.Body.List)
		if s.Else != nil {
			w.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.scan(s.Cond)
		}
		if s.Post != nil {
			w.stmt(s.Post)
		}
		w.stmts(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.scan(s.Tag)
		}
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				w.stmt(cc.Comm)
			}
			w.stmts(cc.Body)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scan(e)
		}
	case *ast.DeferStmt:
		w.scan(s.Call)
	case *ast.GoStmt:
		w.scan(s.Call)
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt:
		w.scan(s)
	}
}

// orderedSource classifies a range operand: non-empty when iterating it
// yields elements in map order (a map, or a slice tainted by map order).
func (w *mapWalker) orderedSource(x ast.Expr) string {
	t := w.pass.TypesInfo.Types[x].Type
	if t != nil {
		if _, ok := t.Underlying().(*types.Map); ok {
			return "map " + types.ExprString(x)
		}
	}
	if w.taintedExpr(x) {
		return "map-ordered slice " + types.ExprString(x)
	}
	return ""
}

func (w *mapWalker) taintedExpr(x ast.Expr) bool {
	id, ok := ast.Unparen(x).(*ast.Ident)
	if !ok {
		return false
	}
	obj := w.pass.TypesInfo.Uses[id]
	return obj != nil && w.tainted[obj]
}

// assign updates taint for each assigned variable, then scans the right
// sides for sink calls.
func (w *mapWalker) assign(s *ast.AssignStmt) {
	for i, lhs := range s.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" || i >= len(s.Rhs) {
			continue
		}
		obj := w.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = w.pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		w.tainted[obj] = w.taintSource(obj, ast.Unparen(s.Rhs[i]))
	}
	for _, rhs := range s.Rhs {
		w.scan(rhs)
	}
}

// taintSource decides whether the assigned value carries map order:
// maps.Keys/maps.Values (directly or through slices.Collect), appending
// inside a map-ordered range, or aliasing an already-tainted slice.
// slices.Sorted* and sort-returning forms produce clean values.
func (w *mapWalker) taintSource(dst types.Object, rhs ast.Expr) bool {
	if w.taintedExpr(rhs) {
		return true
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return false
	}
	// append(dst, ...) inside a map-ordered range accumulates elements in
	// iteration order.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if len(w.ordered) > 0 && len(call.Args) > 0 {
			if base, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && w.pass.TypesInfo.Uses[base] == dst {
				return true
			}
		}
		// Appending a tainted slice's elements spreads the taint.
		for _, a := range call.Args {
			if w.taintedExpr(a) {
				return true
			}
		}
		return false
	}
	fn := calleeFunc(w.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "maps":
		return fn.Name() == "Keys" || fn.Name() == "Values"
	case "slices":
		if fn.Name() == "Collect" || fn.Name() == "AppendSeq" {
			// Collecting a maps.Keys/Values iterator keeps map order;
			// slices.Sorted consumes the same iterators cleanly.
			for _, a := range call.Args {
				if inner, ok := ast.Unparen(a).(*ast.CallExpr); ok {
					ifn := calleeFunc(w.pass.TypesInfo, inner)
					if ifn != nil && ifn.Pkg() != nil && ifn.Pkg().Path() == "maps" {
						return true
					}
				}
			}
		}
	}
	return false
}

// launder clears taint from arguments of in-place sorting calls.
func (w *mapWalker) launder(call *ast.CallExpr) {
	fn := calleeFunc(w.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path, name := fn.Pkg().Path(), fn.Name()
	sorts := path == "sort" ||
		(path == "slices" && len(name) >= 4 && name[:4] == "Sort")
	if !sorts {
		return
	}
	for _, a := range call.Args {
		if id, ok := ast.Unparen(a).(*ast.Ident); ok {
			if obj := w.pass.TypesInfo.Uses[id]; obj != nil {
				delete(w.tainted, obj)
			}
		}
	}
}

// scan inspects an expression for sink calls, reporting those reached
// inside a map-ordered context or fed a tainted argument.
func (w *mapWalker) scan(n ast.Node) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			inner := &mapWalker{pass: w.pass, fs: w.fs, own: w.own, tainted: w.tainted, ordered: w.ordered}
			inner.stmts(x.Body.List)
			return false
		case *ast.CallExpr:
			w.checkSink(x)
		}
		return true
	})
}

func (w *mapWalker) checkSink(call *ast.CallExpr) {
	fn := calleeFunc(w.pass.TypesInfo, call)
	if fn == nil {
		return
	}
	isSink := maporderBaseSink(fn) ||
		(fn.Pkg() == w.pass.Pkg && w.own[funcKey(fn)]) ||
		(fn.Pkg() != w.pass.Pkg && w.fs.has(fn))
	if !isSink {
		return
	}
	if len(w.ordered) > 0 {
		w.pass.Reportf(call.Pos(),
			"%s called inside range over %s: map iteration order is randomized per run, "+
				"so the durable/replayed stream is no longer byte-identical across same-seed runs; "+
				"iterate sorted keys (slices.Sorted(maps.Keys(m))) or annotate //o2pcvet:ignore maporder -- reason",
			describeFunc(fn), w.ordered[len(w.ordered)-1])
		return
	}
	for _, a := range call.Args {
		if w.taintedExpr(a) {
			w.pass.Reportf(call.Pos(),
				"argument %s carries map-iteration order into %s: sort it before it reaches "+
					"the durable/replayed stream, or annotate //o2pcvet:ignore maporder -- reason",
				types.ExprString(a), describeFunc(fn))
			return
		}
	}
}
