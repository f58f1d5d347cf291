package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SimProc forbids host concurrency in simulation-driven packages. The
// simulation is single-threaded by design — that is what makes it
// deterministic — so concurrency must be modeled through simnet.Proc and
// waiting through the event heap. A `go` statement introduces host
// scheduling into the event order. A channel or a sync/atomic primitive is
// at best inert and at worst a real blocking point: a wait on a simulated
// event deadlocks the event loop, and a receive from a timer's channel
// waits on the wall clock.
//
// Reported: go statements; select, send, receive, close and range over a
// channel; chan-typed declarations (variables, fields, parameters); and any
// reference to a package-level name of sync or sync/atomic. One finding per
// root cause: a sync.Mutex is reported where the type is named in a
// declaration, not again at every Lock/Unlock.
var SimProc = &Analyzer{
	Name: "simproc",
	Doc: "forbid go statements, host channels and sync/atomic primitives in " +
		"simulation-driven packages; model concurrency with simnet.Proc",
	Run: runSimProc,
	// internal/sweep runs sealed simulations on a real goroutine pool by
	// design — the one sanctioned use of host concurrency — so it is exempt.
	InScope: func(pkgPath string) bool {
		return InScope(pkgPath) && pkgPath != "acuerdo/internal/sweep"
	},
}

func runSimProc(pass *Pass) error {
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "%s; the simulation is single-threaded: run code on a simnet.Proc and wait with Sim.After/At", what)
	}
	isChan := func(e ast.Expr) bool {
		t := pass.TypesInfo.TypeOf(e)
		if t == nil {
			return false
		}
		_, ok := t.Underlying().(*types.Chan)
		return ok
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.GoStmt:
				report(st.Pos(), "go statement introduces host scheduling into the event order")
			case *ast.SelectStmt:
				report(st.Pos(), "select blocks on host channels")
			case *ast.SendStmt:
				report(st.Pos(), "channel send blocks on the host scheduler")
			case *ast.UnaryExpr:
				if st.Op == token.ARROW && isChan(st.X) {
					report(st.Pos(), "channel receive blocks on the host scheduler")
				}
			case *ast.RangeStmt:
				if isChan(st.X) {
					report(st.Pos(), "range over a channel blocks on the host scheduler")
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(st.Fun).(*ast.Ident); ok && len(st.Args) == 1 && isChan(st.Args[0]) {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
						report(st.Pos(), "close of a host channel")
					}
				}
			case *ast.Ident:
				if v, ok := pass.TypesInfo.Defs[st].(*types.Var); ok && containsChan(v.Type()) {
					report(st.Pos(), st.Name+" declares a host channel")
				}
				// Method calls (mu.Lock) resolve to a *types.Func with a
				// receiver and are excluded by isSyncPkgObject: the declaration
				// naming the type is the one reported root cause.
				if obj := pass.TypesInfo.Uses[st]; obj != nil && isSyncPkgObject(obj) {
					report(st.Pos(), obj.Pkg().Name()+"."+obj.Name()+" is a host synchronization primitive")
				}
			}
			return true
		})
	}
	return nil
}

// containsChan reports whether t is a channel, possibly behind pointers,
// slices, arrays, maps, or a named type.
func containsChan(t types.Type) bool {
	for hop := 0; t != nil && hop < 8; hop++ {
		switch u := t.Underlying().(type) {
		case *types.Chan:
			return true
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		default:
			return false
		}
	}
	return false
}

// isSyncPkgObject reports whether obj is a package-level type or function of
// sync or sync/atomic (methods on their types are excluded).
func isSyncPkgObject(obj types.Object) bool {
	pkg := obj.Pkg()
	if pkg == nil || (pkg.Path() != "sync" && pkg.Path() != "sync/atomic") {
		return false
	}
	switch o := obj.(type) {
	case *types.TypeName:
		return true
	case *types.Func:
		return o.Type().(*types.Signature).Recv() == nil
	}
	return false
}
