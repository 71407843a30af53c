package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"o2pc/internal/analyzers/framework"
)

// Lockheld flags blocking operations — virtual-clock sleeps, BlockOn
// parks, clock joins, and RPC calls — made while a sync.Mutex or RWMutex
// acquired in the same function is still held. Under the virtual clock a
// goroutine that sleeps with a mutex held stalls every other goroutine
// that needs the mutex, and since virtual time only advances when all
// tracked goroutines are blocked, the run deadlocks (or, with the baton
// scheduler, serializes unpredictably); under the real clock it is a
// latency bug. The pass also flags mutexes passed by value, which copy the
// lock state and silently split the critical section.
//
// The analysis is an intraprocedural path walk: branches fork the held-set
// and merge by union, so a mutex held on any path to the blocking call is
// reported. TryLock is ignored (its failure path holds nothing), and
// function literals are walked with a fresh held-set (they run on other
// goroutines or after return).
var Lockheld = &framework.Analyzer{
	Name: "lockheld",
	Doc: "forbid Clock.Sleep/BlockOn/Join and RPC calls while a mutex " +
		"acquired in the same function is held; forbid mutexes passed by value",
	Run: runLockheld,
}

func runLockheld(pass *framework.Pass) error {
	f := &flow[lockSet]{
		info: pass.TypesInfo,
		join: func(a, b lockSet) lockSet {
			out := make(lockSet, len(a)+len(b))
			maps.Copy(out, b)
			maps.Copy(out, a) // a's Lock position wins
			return out
		},
		call: func(held lockSet, call *ast.CallExpr) lockSet { return lockheldCall(pass, call, held) },
		enter: func(_ lockSet, recv *ast.FieldList, typ *ast.FuncType) lockSet {
			checkMutexParams(pass, recv, typ)
			return nil
		},
	}
	f.funcs(pass.Files, nil)
	return nil
}

// lockSet maps a canonical mutex expression ("s.mu") to its Lock position.
// Sets are never mutated once built: flow shares one across branches.
type lockSet map[string]token.Pos

// lockheldCall reports a blocking call made with held non-empty and
// returns the held-set after call.
func lockheldCall(pass *framework.Pass, call *ast.CallExpr, held lockSet) lockSet {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return held
	}
	path := funcPkgPath(fn)
	name := fn.Name()

	if path == "sync" && isMutexType(recvNamed(fn)) {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return held
		}
		key := types.ExprString(sel.X)
		switch name {
		case "Lock", "RLock":
			out := make(lockSet, len(held)+1)
			maps.Copy(out, held)
			out[key] = call.Pos()
			return out
		case "Unlock", "RUnlock":
			out := maps.Clone(held)
			delete(out, key)
			return out
		}
		// TryLock/TryRLock are not tracked: on their failure path nothing
		// is held, so treating them as acquisitions would flag the
		// poll-through-the-clock idiom (site.lockPending) that exists
		// precisely to avoid blocking with the lock contended.
		return held
	}

	var verb string
	switch {
	case pathEndsWith(path, "internal/sim") && (name == "Sleep" || name == "BlockOn" || name == "Join"):
		verb = "blocks in virtual time"
	case pathEndsWith(path, "internal/rpc") && (name == "Call" || name == "Send"):
		verb = "performs a network round-trip"
	default:
		return held
	}
	for key, pos := range held {
		pass.Reportf(call.Pos(),
			"%s %s while %s (locked at line %d) is still held; release the mutex first or hand off to a clock-tracked goroutine",
			name, verb, key, pass.Fset.Position(pos).Line)
	}
	return held
}

// checkMutexParams reports receiver and parameter declarations that pass a
// sync.Mutex or RWMutex by value.
func checkMutexParams(pass *framework.Pass, recv *ast.FieldList, ftype *ast.FuncType) {
	check := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			tv, ok := pass.TypesInfo.Types[field.Type]
			if !ok {
				continue
			}
			if named, isNamed := tv.Type.(*types.Named); isNamed && isMutexType(named) {
				pass.Reportf(field.Type.Pos(),
					"sync.%s passed by value copies the lock state; pass a pointer", named.Obj().Name())
			}
		}
	}
	check(recv)
	check(ftype.Params)
}

func isMutexType(named *types.Named) bool {
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	name := named.Obj().Name()
	return named.Obj().Pkg().Path() == "sync" && (name == "Mutex" || name == "RWMutex")
}
