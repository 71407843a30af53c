package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"o2pc/internal/analyzers/framework"
)

// Lockorder builds the program's mutex acquisition graph and enforces
// one global lock order: no two lock classes may be acquired in
// inconsistent order anywhere in the program, and no two instances of
// one class may be held at once.
//
// A lock class is a (package, type, field) coordinate —
// "o2pc/internal/lock.Manager.mu" — so every instance of a type's mutex
// shares a class. Each package's fact carries per-function summaries
// (classes locked, released, and transiently acquired) plus the
// held-while-acquiring edges observed in its bodies; summaries propagate
// acquisition effects across package boundaries, and a Finish hook
// unions all edges and reports every cycle (a potential deadlock) at its
// lexicographically smallest edge.
//
// Intra-procedurally the pass reports re-acquisition of a held class, and
// locks acquired inside a loop that are still held when the iteration
// ends, since successive iterations would then acquire same-class
// instances in an unprovable order.
var Lockorder = &framework.Analyzer{
	Name: "lockorder",
	Doc: "mutex classes must be acquired in a consistent global order; " +
		"no two instances of one class held at once",
	Facts:  lockorderFactsHook,
	Run:    runLockorder,
	Finish: finishLockorder,
}

// lockorderFunc summarizes one function's lock effects for callers.
type lockorderFunc struct {
	// Locks are classes still held when the function returns.
	Locks []string `json:"locks,omitempty"`
	// Unlocks are classes released without a matching acquire (a
	// function that drops a mutex its caller took).
	Unlocks []string `json:"unlocks,omitempty"`
	// Acquires are all classes transiently acquired anywhere within,
	// including through callees.
	Acquires []string `json:"acquires,omitempty"`
}

// lockorderEdge records "From was held while To was acquired" at a
// source position (serialized file/line — positions must survive the
// fact JSON round-trip).
type lockorderEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	File string `json:"file"`
	Line int    `json:"line"`
}

// lockorderFact is the per-package fact: function summaries plus the
// package's contribution to the global acquisition graph.
type lockorderFact struct {
	Funcs map[string]lockorderFunc `json:"funcs,omitempty"`
	Edges []lockorderEdge          `json:"edges,omitempty"`
}

// lockorderFactsHook computes the package's summaries by intra-package
// fixpoint (imported packages' facts are already available — the
// framework runs Facts in dependency order), then replays the walk once
// more to collect acquisition edges under the stable summaries.
func lockorderFactsHook(pass *framework.Pass) (any, error) {
	lw := newLockContext(pass)
	for changed := true; changed; {
		changed = false
		lw.forEachFunc(func(fd *ast.FuncDecl, fn *types.Func) {
			sum := lw.walkFunc(fd, false)
			key := funcKey(fn)
			if !sameSummary(lw.local[key], sum) {
				lw.local[key] = sum
				changed = true
			}
		})
	}
	lw.collectEdges = true
	lw.forEachFunc(func(fd *ast.FuncDecl, fn *types.Func) {
		lw.walkFunc(fd, false)
	})

	fact := lockorderFact{Edges: lw.edges}
	if len(lw.local) > 0 {
		fact.Funcs = make(map[string]lockorderFunc)
		for k, v := range lw.local {
			if len(v.Locks)+len(v.Unlocks)+len(v.Acquires) > 0 {
				fact.Funcs[k] = v
			}
		}
		if len(fact.Funcs) == 0 {
			fact.Funcs = nil
		}
	}
	if fact.Funcs == nil && len(fact.Edges) == 0 {
		return nil, nil
	}
	return fact, nil
}

func runLockorder(pass *framework.Pass) error {
	lw := newLockContext(pass)
	// Summaries were computed by the Facts hook; reuse them from the
	// store so the reporting walk resolves intra-package calls.
	var own lockorderFact
	if pass.ImportFact(pass.Pkg.Path(), &own) {
		for k, v := range own.Funcs {
			lw.local[k] = v
		}
	}
	lw.forEachFunc(func(fd *ast.FuncDecl, fn *types.Func) {
		lw.walkFunc(fd, true)
	})
	return nil
}

func sameSummary(a, b lockorderFunc) bool {
	return strings.Join(a.Locks, ",") == strings.Join(b.Locks, ",") &&
		strings.Join(a.Unlocks, ",") == strings.Join(b.Unlocks, ",") &&
		strings.Join(a.Acquires, ",") == strings.Join(b.Acquires, ",")
}

// lockContext is the per-package state shared by the fixpoint, edge, and
// reporting walks.
type lockContext struct {
	pass         *framework.Pass
	local        map[string]lockorderFunc
	imported     map[string]*lockorderFact
	edges        []lockorderEdge
	edgeSeen     map[[2]string]bool
	collectEdges bool
}

func newLockContext(pass *framework.Pass) *lockContext {
	return &lockContext{
		pass:     pass,
		local:    make(map[string]lockorderFunc),
		imported: make(map[string]*lockorderFact),
		edgeSeen: make(map[[2]string]bool),
	}
}

func (lc *lockContext) forEachFunc(fn func(*ast.FuncDecl, *types.Func)) {
	for _, f := range lc.pass.Files {
		if isTestFile(lc.pass.Fset.Position(f.Pos()).Filename) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if tfn := declFunc(lc.pass.TypesInfo, fd); tfn != nil {
				fn(fd, tfn)
			}
		}
	}
}

// summary resolves a callee's lock summary from the intra-package map or
// an imported package's fact.
func (lc *lockContext) summary(fn *types.Func) (lockorderFunc, bool) {
	if fn == nil || fn.Pkg() == nil {
		return lockorderFunc{}, false
	}
	if fn.Pkg() == lc.pass.Pkg {
		s, ok := lc.local[funcKey(fn)]
		return s, ok
	}
	path := fn.Pkg().Path()
	fact, ok := lc.imported[path]
	if !ok {
		fact = &lockorderFact{}
		if !lc.pass.ImportFact(path, fact) {
			fact = nil
		}
		lc.imported[path] = fact
	}
	if fact == nil {
		return lockorderFunc{}, false
	}
	s, ok := fact.Funcs[funcKey(fn)]
	return s, ok
}

func (lc *lockContext) addEdge(from, to string, pos token.Pos) {
	if !lc.collectEdges || from == to {
		return
	}
	key := [2]string{from, to}
	if lc.edgeSeen[key] {
		return
	}
	lc.edgeSeen[key] = true
	p := lc.pass.Fset.Position(pos)
	lc.edges = append(lc.edges, lockorderEdge{From: from, To: to, File: p.Filename, Line: p.Line})
}

// walkFunc runs one linear, source-order pass over a function body and
// returns its summary. With report set it also emits the
// intra-procedural diagnostics.
func (lc *lockContext) walkFunc(fd *ast.FuncDecl, report bool) lockorderFunc {
	w := &orderWalker{
		lc:       lc,
		report:   report,
		held:     make(map[string]heldLock),
		acquired: make(map[string]bool),
		released: make(map[string]bool),
	}
	w.stmts(fd.Body.List)
	return w.finish()
}

// heldLock is one held class: the instance expression that acquired it
// (a syntactic heuristic distinguishing sh.mu from other.mu) and where.
type heldLock struct {
	inst string
	pos  token.Pos
}

type orderWalker struct {
	lc       *lockContext
	report   bool
	held     map[string]heldLock
	acquired map[string]bool // every class acquired in this function
	released map[string]bool // classes released without a local acquire
	deferred []string        // classes unlocked by deferred calls
}

func (w *orderWalker) finish() lockorderFunc {
	for _, class := range w.deferred {
		if _, ok := w.held[class]; ok {
			delete(w.held, class)
		} else if !w.acquired[class] {
			w.released[class] = true
		}
	}
	var sum lockorderFunc
	for class := range w.held {
		sum.Locks = append(sum.Locks, class)
	}
	for class := range w.released {
		sum.Unlocks = append(sum.Unlocks, class)
	}
	for class := range w.acquired {
		sum.Acquires = append(sum.Acquires, class)
	}
	sort.Strings(sum.Locks)
	sort.Strings(sum.Unlocks)
	sort.Strings(sum.Acquires)
	return sum
}

func (w *orderWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *orderWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.scan(s.X)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scan(e)
		}
		for _, e := range s.Lhs {
			w.scan(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scan(e)
		}
	case *ast.DeferStmt:
		w.deferCall(s.Call)
	case *ast.GoStmt:
		// The spawned goroutine runs concurrently; its locks are its own
		// (walked standalone), and argument expressions evaluate here.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.standalone(lit)
		}
		for _, a := range s.Call.Args {
			w.scan(a)
		}
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
		before := w.snapshot()
		w.stmts(s.Body.List)
		if s.Post != nil {
			w.stmt(s.Post)
		}
		w.loopEnd(before)
	case *ast.RangeStmt:
		w.scan(s.X)
		before := w.snapshot()
		w.stmts(s.Body.List)
		w.loopEnd(before)
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
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt:
		w.scan(s)
	}
}

func (w *orderWalker) snapshot() map[string]bool {
	out := make(map[string]bool, len(w.held))
	for class := range w.held {
		out[class] = true
	}
	return out
}

// loopEnd flags classes acquired inside the loop body and still held at
// its end: iteration two would re-acquire the class while instance one
// is held, in an order the analysis cannot prove consistent.
func (w *orderWalker) loopEnd(before map[string]bool) {
	if !w.report {
		return
	}
	var classes []string
	for class := range w.held {
		if !before[class] {
			classes = append(classes, class)
		}
	}
	sort.Strings(classes)
	for _, class := range classes {
		w.lc.pass.Reportf(w.held[class].pos,
			"%s is acquired in a loop and still held when the iteration ends: successive "+
				"iterations take same-class instances in an unprovable order; release it "+
				"within the iteration",
			class)
	}
}

// deferCall applies a deferred statement's releases at function end.
func (w *orderWalker) deferCall(call *ast.CallExpr) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		// Deferred literals commonly wrap unlocks; harvest those, and
		// analyze the rest of the literal standalone.
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if class, _, kind := w.mutexOp(c); kind == opUnlock && class != "" {
					w.deferred = append(w.deferred, class)
				}
			}
			return true
		})
		return
	}
	if class, _, kind := w.mutexOp(call); kind == opUnlock && class != "" {
		w.deferred = append(w.deferred, class)
		return
	}
	if sum, ok := w.lc.summary(calleeFunc(w.lc.pass.TypesInfo, call)); ok {
		w.deferred = append(w.deferred, sum.Unlocks...)
	}
	for _, a := range call.Args {
		w.scan(a)
	}
}

// standalone walks a function literal with a fresh lock state (its
// goroutine or escaping closure acquires independently).
func (w *orderWalker) standalone(lit *ast.FuncLit) {
	inner := &orderWalker{
		lc:       w.lc,
		report:   w.report,
		held:     make(map[string]heldLock),
		acquired: make(map[string]bool),
		released: make(map[string]bool),
	}
	inner.stmts(lit.Body.List)
	inner.finish()
}

// scan visits an expression in source order, dispatching lock/unlock
// operations and callee summaries.
func (w *orderWalker) scan(n ast.Node) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			w.standalone(x)
			return false
		case *ast.CallExpr:
			w.call(x)
		}
		return true
	})
}

type mutexOpKind int

const (
	opNone mutexOpKind = iota
	opLock
	opUnlock
)

// mutexOp classifies a call as a blocking acquire or a release of a
// classifiable mutex. TryLock is ignored (non-blocking, no deadlock
// contribution), and mutexes that are not fields of a named struct
// (locals, bare globals) have no class.
func (w *orderWalker) mutexOp(call *ast.CallExpr) (class, inst string, kind mutexOpKind) {
	fn := calleeFunc(w.lc.pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", opNone
	}
	named := recvNamed(fn)
	if named == nil {
		return "", "", opNone
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return "", "", opNone
	}
	switch fn.Name() {
	case "Lock", "RLock":
		kind = opLock
	case "Unlock", "RUnlock":
		kind = opUnlock
	default:
		return "", "", opNone
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", kind
	}
	class, inst = w.mutexClass(ast.Unparen(sel.X))
	return class, inst, kind
}

// mutexClass names the (package, type, field) coordinate of a mutex
// expression: "pkg.Manager.mu" for m.mu, "pkg.Tracer.Mutex" for an
// embedded mutex reached as tr.Lock()/tr.Mutex.Lock(). Returns "" for
// mutexes that are not struct fields.
func (w *orderWalker) mutexClass(recv ast.Expr) (string, string) {
	inst := types.ExprString(recv)
	if fsel, ok := recv.(*ast.SelectorExpr); ok {
		if named := namedOf(w.lc.pass.TypesInfo.Types[fsel.X].Type); named != nil {
			if pkg := named.Obj().Pkg(); pkg != nil && pkg.Path() != "sync" {
				return pkg.Path() + "." + named.Obj().Name() + "." + fsel.Sel.Name, inst
			}
		}
		return "", inst
	}
	// Promoted method on an embedding struct: t.Lock().
	if named := namedOf(w.lc.pass.TypesInfo.Types[recv].Type); named != nil {
		if pkg := named.Obj().Pkg(); pkg != nil && pkg.Path() != "sync" {
			return pkg.Path() + "." + named.Obj().Name() + ".Mutex", inst
		}
	}
	return "", inst
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func (w *orderWalker) call(call *ast.CallExpr) {
	class, inst, kind := w.mutexOp(call)
	switch kind {
	case opLock:
		if class != "" {
			w.lock(class, inst, call.Pos())
		}
		return
	case opUnlock:
		if class == "" {
			return
		}
		if _, ok := w.held[class]; ok {
			delete(w.held, class)
		} else if !w.acquired[class] {
			w.released[class] = true
		}
		return
	case opNone:
		// Not a mutex operation: fall through to callee-summary handling.
	}

	fn := calleeFunc(w.lc.pass.TypesInfo, call)
	sum, ok := w.lc.summary(fn)
	if !ok {
		return
	}
	for _, c := range sum.Acquires {
		if held, isHeld := w.held[c]; isHeld && w.report {
			w.lc.pass.Reportf(call.Pos(),
				"calls %s, which acquires %s while an instance of that class (%s) is already "+
					"held here: two instances of one class have no provable order, which "+
					"admits deadlock; release first or restructure",
				describeFunc(fn), c, held.inst)
		}
		for h := range w.held {
			w.lc.addEdge(h, c, call.Pos())
		}
		w.acquired[c] = true
	}
	for _, c := range sum.Locks {
		if _, isHeld := w.held[c]; !isHeld {
			w.held[c] = heldLock{inst: "via " + describeFunc(fn), pos: call.Pos()}
		}
	}
	for _, c := range sum.Unlocks {
		delete(w.held, c)
	}
}

func (w *orderWalker) lock(class, inst string, pos token.Pos) {
	if prev, ok := w.held[class]; ok && w.report {
		w.lc.pass.Reportf(pos,
			"%s (instance %s) acquired while another instance of the same class (%s) is "+
				"held: two instances of one class have no provable order, which admits "+
				"deadlock; release first or restructure",
			class, inst, prev.inst)
	}
	for h := range w.held {
		w.lc.addEdge(h, class, pos)
	}
	w.acquired[class] = true
	if _, ok := w.held[class]; !ok {
		w.held[class] = heldLock{inst: inst, pos: pos}
	}
}

// finishLockorder unions every package's acquisition edges and reports
// each cycle in the resulting graph: two lock classes acquired in both
// orders somewhere in the program is a deadlock the scheduler only has
// to get unlucky once to hit.
func finishLockorder(f *framework.Finish) error {
	type edgeKey struct{ from, to string }
	best := make(map[edgeKey]lockorderEdge)
	for _, pkg := range f.Pkgs {
		var fact lockorderFact
		if !f.Fact(pkg.ImportPath, &fact) {
			continue
		}
		for _, e := range fact.Edges {
			k := edgeKey{e.From, e.To}
			if prev, ok := best[k]; !ok || e.File < prev.File ||
				(e.File == prev.File && e.Line < prev.Line) {
				best[k] = e
			}
		}
	}
	if len(best) == 0 {
		return nil
	}

	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	for k := range best {
		adj[k.from] = append(adj[k.from], k.to)
		nodes[k.from], nodes[k.to] = true, true
	}
	var order []string
	for n := range nodes {
		order = append(order, n)
	}
	sort.Strings(order)
	for _, tos := range adj {
		sort.Strings(tos)
	}

	for _, scc := range tarjan(order, adj) {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		in := make(map[string]bool, len(scc))
		for _, n := range scc {
			in[n] = true
		}
		var anchor lockorderEdge
		haveAnchor := false
		for k, e := range best {
			if !in[k.from] || !in[k.to] {
				continue
			}
			if !haveAnchor || e.File < anchor.File ||
				(e.File == anchor.File && e.Line < anchor.Line) ||
				(e.File == anchor.File && e.Line == anchor.Line && e.From < anchor.From) {
				anchor, haveAnchor = e, true
			}
		}
		f.Reportf(token.Position{Filename: anchor.File, Line: anchor.Line},
			"lock-order cycle among {%s}: these classes are acquired in inconsistent "+
				"orders across the program, admitting deadlock; impose one global order",
			strings.Join(scc, ", "))
	}
	return nil
}

// tarjan computes strongly connected components over the sorted node
// list, iteratively (no recursion-depth concerns, deterministic output).
func tarjan(order []string, adj map[string][]string) [][]string {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0

	type frame struct {
		node string
		ai   int
	}
	for _, root := range order {
		if _, seen := index[root]; seen {
			continue
		}
		frames := []frame{{node: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			if fr.ai < len(adj[fr.node]) {
				child := adj[fr.node][fr.ai]
				fr.ai++
				if _, seen := index[child]; !seen {
					index[child], low[child] = next, next
					next++
					stack = append(stack, child)
					onStack[child] = true
					frames = append(frames, frame{node: child})
				} else if onStack[child] && index[child] < low[fr.node] {
					low[fr.node] = index[child]
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].node
				if low[fr.node] < low[parent] {
					low[parent] = low[fr.node]
				}
			}
			if low[fr.node] == index[fr.node] {
				var scc []string
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					scc = append(scc, top)
					if top == fr.node {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}
