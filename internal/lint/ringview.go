package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RingView enforces the buffer-ownership rule of internal/ringbuf:
// Receiver.Poll returns views into the ring's registered memory, and the
// []byte a ClientLink hands to a Requests or Start callback is one too. A
// view dies when its slot is released to the sender or the Receiver is
// polled again, so whoever keeps one past the current poll copies it first.
//
// The analyzer is function-local and dataflow-driven: a value derived from a
// Poll result or from the view parameter of a callback literal — an element,
// a sub-slice, a struct literal holding one, a call result that can carry a
// byte slice and was handed one — may be passed to callees freely but not
// parked where it outlives the function: a field, a map, a package variable,
// a field-held slice (by append), or a closure handed to Sim.At/After/
// PostAfter. append([]byte(nil), v...), bytes.Clone, string(v) and copy into a
// buffer of one's own produce fresh bytes and end the derivation. Retention
// inside a callee is invisible; DESIGN.md §6.6 lists the unsound cases.
var RingView = &Analyzer{
	Name: "ringview",
	Doc: "forbid storing a ring view (an element of Receiver.Poll's result, or a " +
		"ClientLink callback's []byte) into a field, map, package variable or " +
		"deferred closure without copying it first (function-local)",
	Run: runRingView,
}

// viewBit marks an access path that holds, or holds a value containing, a
// ring view.
const viewBit uint32 = 1

// copyFirst ends both findings: the way out, and why.
const copyFirst = "copy it first (append([]byte(nil), v...) or bytes.Clone): the slot is overwritten once released"

const (
	ringbufPkg = "acuerdo/internal/ringbuf"
	simnetPkg  = "acuerdo/internal/simnet"
)

// viewCallbacks maps the ClientLink methods that hand views to a callback to
// the callback's argument index.
var viewCallbacks = map[string]int{
	ringbufPkg + ".ClientLink.Requests": 1,
	ringbufPkg + ".ClientLink.Start":    0,
}

// deferringCalls run their closure argument in a later event, after the poll
// that produced any view it captured has returned.
var deferringCalls = map[string]bool{
	simnetPkg + ".Sim.PostAfter": true,
	simnetPkg + ".Sim.At":        true,
	simnetPkg + ".Sim.After":     true,
}

func runRingView(pass *Pass) error {
	info := pass.TypesInfo

	// Prepass: callback literals whose []byte parameter is a view.
	viewParam := map[*ast.BlockStmt]string{} // literal body -> parameter path
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			idx, ok := viewCallbacks[calleeKey(info, call)]
			if !ok || idx >= len(call.Args) {
				return true
			}
			lit, ok := ast.Unparen(call.Args[idx]).(*ast.FuncLit)
			if !ok || len(lit.Type.Params.List) == 0 || len(lit.Type.Params.List[0].Names) == 0 {
				return true
			}
			if p := pathOf(info, lit.Type.Params.List[0].Names[0]); p != "" {
				viewParam[lit.Body] = p
			}
			return true
		})
	}

	forEachFunc(pass.Files, func(name string, body *ast.BlockStmt) {
		// Range values derive from the ranged expression; the CFG models
		// only the key, so resolve `for _, rec := range recs` here.
		rangeOf := map[string]ast.Expr{}
		polls := false
		walkSkippingFuncLits(body, func(n ast.Node) {
			switch st := n.(type) {
			case *ast.RangeStmt:
				if st.Value != nil {
					if p := pathOf(info, st.Value); p != "" {
						rangeOf[p] = st.X
					}
				}
			case *ast.CallExpr:
				polls = polls || calleeKey(info, st) == ringbufPkg+".Receiver.Poll"
			}
		})
		seed := facts{}
		if p, ok := viewParam[body]; ok {
			seed[p] = viewBit
		}
		if !polls && len(seed) == 0 {
			return // no view is born in this function
		}

		var isView func(e ast.Expr, f facts, depth int) bool
		isView = func(e ast.Expr, f facts, depth int) bool {
			if depth > 32 {
				return false
			}
			switch e := ast.Unparen(e).(type) {
			case *ast.Ident:
				p := pathOf(info, e)
				if p == "" {
					return false
				}
				if f[p]&viewBit != 0 {
					return true
				}
				if x, ok := rangeOf[p]; ok {
					return isView(x, f, depth+1)
				}
			case *ast.SelectorExpr:
				if p := pathOf(info, e); p != "" && f[p]&viewBit != 0 {
					return true
				}
				return isView(e.X, f, depth+1)
			case *ast.IndexExpr:
				return isView(e.X, f, depth+1)
			case *ast.SliceExpr:
				return isView(e.X, f, depth+1)
			case *ast.StarExpr:
				return isView(e.X, f, depth+1)
			case *ast.UnaryExpr:
				return e.Op == token.AND && isView(e.X, f, depth+1)
			case *ast.CompositeLit:
				for _, elt := range e.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						elt = kv.Value
					}
					if isView(elt, f, depth+1) {
						return true
					}
				}
			case *ast.CallExpr:
				// string(v) and len(v) return nothing that can hold a view.
				return carriesBytes(info.TypeOf(e), 0) &&
					callYieldsView(info, e, func(arg ast.Expr) bool { return isView(arg, f, depth+1) })
			}
			return false
		}
		view := func(e ast.Expr, f facts) bool {
			return carriesBytes(info.TypeOf(e), 0) && isView(e, f, 0)
		}

		// bind applies lhs = rhs for a local lhs. A view assigned to the
		// variable or to an element of it marks the variable; a fresh value
		// assigned to the variable itself unmarks it (a strong update).
		bind := func(lhs ast.Expr, isV bool, f facts) {
			if escapes(info, lhs) {
				return
			}
			root := ast.Unparen(lhs)
			for {
				if ix, ok := root.(*ast.IndexExpr); ok {
					root = ast.Unparen(ix.X)
				} else if sl, ok := root.(*ast.SliceExpr); ok {
					root = ast.Unparen(sl.X)
				} else {
					break
				}
			}
			p := pathOf(info, root)
			if p == "" {
				return
			}
			if isV && carriesBytes(info.TypeOf(lhs), 0) {
				f[p] |= viewBit
			} else if root == ast.Unparen(lhs) {
				f.killPrefix(p)
			}
		}
		// pairs feeds every lhs/value binding of an assignment or var spec
		// to fn; a multi-value call binds each result that can carry bytes.
		pairs := func(lhs, rhs []ast.Expr, f facts, fn func(lhs ast.Expr, isV bool)) {
			switch {
			case len(lhs) == len(rhs):
				for i := range lhs {
					fn(lhs[i], view(rhs[i], f))
				}
			case len(rhs) == 1:
				isV := isView(rhs[0], f, 0)
				for _, l := range lhs {
					fn(l, isV)
				}
			}
		}
		transfer := func(n ast.Node, f facts) {
			switch st := n.(type) {
			case *ast.AssignStmt:
				pairs(st.Lhs, st.Rhs, f, func(l ast.Expr, isV bool) { bind(l, isV, f) })
			case *ast.ValueSpec:
				lhs := make([]ast.Expr, len(st.Names))
				for i, id := range st.Names {
					lhs[i] = id
				}
				pairs(lhs, st.Values, f, func(l ast.Expr, isV bool) { bind(l, isV, f) })
			}
		}
		report := func(n ast.Node, f facts) {
			switch st := n.(type) {
			case *ast.AssignStmt:
				pairs(st.Lhs, st.Rhs, f, func(l ast.Expr, isV bool) {
					if isV && escapes(info, l) && carriesBytes(info.TypeOf(l), 0) {
						pass.Reportf(st.Pos(), "a ring view is stored into %s, which outlives the poll; %s", types.ExprString(l), copyFirst)
					}
				})
			case *ast.CallExpr:
				if !deferringCalls[calleeKey(info, st)] {
					return
				}
				for _, arg := range st.Args {
					lit, ok := ast.Unparen(arg).(*ast.FuncLit)
					if !ok {
						continue
					}
					ast.Inspect(lit.Body, func(sub ast.Node) bool {
						id, ok := sub.(*ast.Ident)
						if !ok || info.Uses[id] == nil {
							return true
						}
						if pos := info.Uses[id].Pos(); pos >= lit.Pos() && pos < lit.End() {
							return true // the literal's own variable
						}
						if view(id, f) {
							pass.Reportf(id.Pos(), "ring view %s is captured by a closure that runs in a later event; %s", id.Name, copyFirst)
						}
						return true
					})
				}
			}
		}
		runFlow(body, flowHooks{entry: seed, transfer: transfer, report: report})
	})
	return nil
}

// callYieldsView decides whether a call's result derives from a view, given
// argIsView for its arguments. Poll is the source. append yields a view when
// its destination is one or an appended element is (a spread []byte appends
// bytes, which are copied); bytes.Clone yields fresh bytes; any other call or
// conversion is assumed to return what it was handed (the caller has checked
// that the result type can carry a byte slice at all).
func callYieldsView(info *types.Info, call *ast.CallExpr, argIsView func(ast.Expr) bool) bool {
	switch calleeKey(info, call) {
	case ringbufPkg + ".Receiver.Poll":
		return true
	case "bytes.Clone":
		return false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			if b.Name() != "append" || len(call.Args) == 0 {
				return false
			}
			for i, arg := range call.Args {
				spread := call.Ellipsis.IsValid() && i == len(call.Args)-1
				if spread && isByteSlice(info.TypeOf(arg)) {
					continue
				}
				if argIsView(arg) {
					return true
				}
			}
			return false
		}
	}
	for _, arg := range call.Args {
		if argIsView(arg) {
			return true
		}
	}
	return false
}

// escapes reports whether storing into lhs parks the value beyond the
// function: a field, a map element, a package variable, or anything reached
// through one of those or a pointer.
func escapes(info *types.Info, lhs ast.Expr) bool {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			return true // a field, or a qualified package variable
		case *ast.StarExpr:
			return true
		case *ast.IndexExpr:
			if _, isMap := info.TypeOf(e.X).Underlying().(*types.Map); isMap {
				return true
			}
			lhs = e.X
		case *ast.SliceExpr:
			lhs = e.X
		case *ast.Ident:
			v, ok := info.ObjectOf(e).(*types.Var)
			return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
		default:
			return false
		}
	}
}

func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// carriesBytes reports whether a value of type t can hold a byte slice:
// directly, or through slices, arrays, maps, pointers, struct fields and
// multi-value results.
func carriesBytes(t types.Type, depth int) bool {
	if t == nil || depth > 6 {
		return false
	}
	if isByteSlice(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return carriesBytes(u.Elem(), depth+1)
	case *types.Array:
		return carriesBytes(u.Elem(), depth+1)
	case *types.Map:
		return carriesBytes(u.Elem(), depth+1)
	case *types.Pointer:
		return carriesBytes(u.Elem(), depth+1)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesBytes(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			if carriesBytes(u.At(i).Type(), depth+1) {
				return true
			}
		}
	}
	return false
}
