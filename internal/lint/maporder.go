package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// MapOrder flags `range` over a map whose loop body has protocol side
// effects. Go randomizes map iteration order on every run, so any
// order-sensitive work inside such a loop breaks the seed-replay invariant:
// messages leave in a different order, or a different key wins.
//
// A map range is reported when its body:
//
//  1. calls a function or method whose name marks a protocol side effect
//     (send*, broadcast*, deliver*, propose*, commit*, apply*, ...);
//  2. writes to state declared outside the loop — a scalar variable, a
//     struct field, or a pointer target — other than by ++ or --: a count
//     is the same in any order, but the analyzer cannot prove any other
//     accumulation commutative, and the last write of a winner is the
//     last key in randomized order;
//  3. collects keys or values with `x = append(x, ...)` but never passes x
//     to a sort call later in the same function (the sanctioned idiom is
//     collect, sort, then act);
//  4. exits early — a direct `break`, or a `return` whose result mentions a
//     loop variable — which selects a winner by randomized iteration order.
//
// Counts (n++), writes keyed by data rather than by iteration order
// (m2[k] = v, arr[k] = v, delete(m2, k)) and the collect-then-sort idiom are
// order-independent and stay legal.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flag range over a map whose body sends, mutates outer state, or " +
		"selects a winner; iterate sorted keys instead",
	Run: runMapOrder,
}

// sideEffectCall matches callee names that protocol code uses for actions
// whose order is observable: message sends, deliveries, state transitions,
// and simulated-CPU charging.
var sideEffectCall = regexp.MustCompile(`(?i)^(send|broadcast|deliver|submit|propose|commit|apply|elect|schedule|pause|push|enqueue|start|become)`)

func runMapOrder(pass *Pass) error {
	for _, f := range pass.Files {
		// Walk function by function so rule 3 can look for a sort call in
		// the statements that follow the loop.
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkMapRanges(pass, body)
			}
			return true
		})
	}
	return nil
}

func checkMapRanges(pass *Pass, funcBody *ast.BlockStmt) {
	ast.Inspect(funcBody, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapBody(pass, funcBody, rs)
		return true
	})
}

func checkMapBody(pass *Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt) {
	loopVars := rangeVars(pass, rs)
	// walk visits root; nested is set inside a loop, switch or select within
	// the body, where an unlabeled break leaves that statement, not rs.
	var walk func(root ast.Node, nested bool)
	walk = func(root ast.Node, nested bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				if !nested {
					walk(st, true)
					return false
				}
			case *ast.BranchStmt:
				if st.Tok == token.BREAK && st.Label == nil && !nested {
					pass.Reportf(st.Pos(), "break inside range over map selects a result by randomized iteration order; iterate sorted keys")
				}
			case *ast.ReturnStmt:
				for _, res := range st.Results {
					if mentionsAny(pass, res, loopVars) {
						pass.Reportf(st.Pos(), "returning a map-iteration variable selects a winner by randomized order; iterate sorted keys")
						break
					}
				}
			case *ast.CallExpr:
				if name, ok := calleeName(pass, st); ok && sideEffectCall.MatchString(name) {
					pass.Reportf(st.Pos(), "protocol side effect %s(...) inside range over map runs in randomized order; iterate sorted keys", name)
				}
			case *ast.AssignStmt:
				if st.Tok == token.DEFINE {
					return true
				}
				if target, ok := appendToSelf(st); ok {
					checkCollectAppend(pass, funcBody, rs, target)
					return true
				}
				for _, lhs := range st.Lhs {
					checkWrite(pass, rs, lhs)
				}
			}
			return true
		})
	}
	walk(rs.Body, false)
}

// rangeVars returns the objects bound by the range statement's key and value.
func rangeVars(pass *Pass, rs *ast.RangeStmt) map[types.Object]bool {
	vars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id == nil || id.Name == "_" {
			continue
		}
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			vars[obj] = true
		} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
			vars[obj] = true // `for k = range m` with pre-declared k
		}
	}
	return vars
}

// mentionsAny reports whether expr references any of the given objects.
func mentionsAny(pass *Pass, expr ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil && objs[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// calleeName extracts the called function or method name, skipping type
// conversions and builtins that are order-neutral (delete, len, append, ...).
func calleeName(pass *Pass, call *ast.CallExpr) (string, bool) {
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return "", false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
			return "", false
		}
		return fun.Name, true
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	}
	return "", false
}

// appendToSelf recognizes `x = append(x, ...)` and returns the x identifier.
func appendToSelf(st *ast.AssignStmt) (*ast.Ident, bool) {
	if st.Tok != token.ASSIGN || len(st.Lhs) != 1 || len(st.Rhs) != 1 {
		return nil, false
	}
	lhs, ok := st.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, false
	}
	call, ok := st.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil, false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return nil, false
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || arg.Name != lhs.Name {
		return nil, false
	}
	return lhs, true
}

// checkWrite flags an assignment target that lives outside the loop: a plain
// variable declared before the range statement, a struct field, or a pointer
// dereference. Index writes (m2[k] = v, arr[k] = v) are keyed by data, not by
// iteration order, and are exempt.
func checkWrite(pass *Pass, rs *ast.RangeStmt, lhs ast.Expr) {
	switch e := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return
		}
		obj := pass.TypesInfo.Uses[e]
		if obj == nil || obj.Pos() >= rs.Pos() {
			return // loop-local: defined by or inside the range statement
		}
		pass.Reportf(e.Pos(), "write to %s (declared outside the loop) accumulates across randomized map order; iterate sorted keys", e.Name)
	case *ast.SelectorExpr:
		pass.Reportf(e.Pos(), "write to field %s inside range over map mutates protocol state in randomized order; iterate sorted keys", e.Sel.Name)
	case *ast.StarExpr:
		pass.Reportf(e.Pos(), "write through pointer inside range over map mutates state in randomized order; iterate sorted keys")
	case *ast.IndexExpr:
		// Keyed by data — order-independent.
	}
}

// checkCollectAppend enforces the collect-then-sort idiom: appending map keys
// or values to an outer slice is fine only if the slice is later passed to a
// sort call in the same function.
func checkCollectAppend(pass *Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt, target *ast.Ident) {
	obj := pass.TypesInfo.Uses[target]
	if obj == nil || obj.Pos() >= rs.Pos() {
		return // collecting into a loop-local; whatever consumes it is in scope
	}
	if sortedAfter(pass, funcBody, rs.End(), obj) {
		return
	}
	pass.Reportf(target.Pos(), "%s collects map keys in randomized order and is never sorted in this function; sort before acting on it", target.Name)
}

// sortedAfter reports whether obj is passed to a sort.* / slices.Sort* call
// (or any callee whose name contains "sort") after position after.
func sortedAfter(pass *Pass, funcBody *ast.BlockStmt, after token.Pos, obj types.Object) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after {
			return true
		}
		name, ok := calleeName(pass, call)
		if !ok {
			return true
		}
		isSort := sortName.MatchString(name)
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && !isSort {
			if pkgID, ok := sel.X.(*ast.Ident); ok {
				if pn, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName); ok {
					p := pn.Imported().Path()
					isSort = p == "sort" || p == "slices"
				}
			}
		}
		if !isSort {
			return true
		}
		for _, arg := range call.Args {
			if mentionsAny(pass, arg, map[types.Object]bool{obj: true}) {
				found = true
			}
		}
		return true
	})
	return found
}

var sortName = regexp.MustCompile(`(?i)sort`)
