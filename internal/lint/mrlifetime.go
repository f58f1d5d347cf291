package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MRLifetime enforces the memory-ownership side of the RDMA contract:
// Fabric.Release returns every registered region to the process-wide MR pool
// (DESIGN.md §6.5), so any MR, Node, or QP obtained from a fabric — and
// any alias of one, including aliases parked in struct fields — is dead the
// moment Release (or bench.Instance.Close, which wraps it) returns. Touching
// such a value afterwards reads or writes pooled memory that the next
// simulation may already own.
//
// The analyzer is function-local and dataflow-driven: Release/Close call
// sites mark the canonical path of their receiver released, and any later use
// of a value whose derivation chain (alias links plus the rdma API's
// AddNode/Node/RegisterMemory/Connect summaries) reaches a released root is
// reported. Values that escape the function before the release — returned,
// stored globally, or captured by a goroutine — are outside the function-local
// view; DESIGN.md §6.6 lists the unsound cases.
var MRLifetime = &Analyzer{
	Name: "mrlifetime",
	Doc: "forbid using MR/Node/QP values (or aliases of them) after the " +
		"owning Fabric.Release or bench Instance.Close (function-local)",
	// internal/rdma implements Release itself and may touch its own pool.
	InScope: func(pkgPath string) bool {
		return InScope(pkgPath) && pkgPath != rdmaPkg
	},
	Run: runMRLifetime,
}

// mrReleased marks an abstract value whose owning fabric has been released.
const mrReleased uint32 = 1

const benchPkg = "acuerdo/internal/bench"

// releasingCalls are the methods that return a fabric's memory to the pool.
var releasingCalls = map[string]bool{
	rdmaPkg + ".Fabric.Release":  true,
	benchPkg + ".Instance.Close": true,
}

func runMRLifetime(pass *Pass) error {
	info := pass.TypesInfo
	forEachFunc(pass.Files, func(name string, body *ast.BlockStmt) {
		env := buildPathEnv(info, body)

		// Prepass: classify release call sites once.
		releaseSite := map[*ast.CallExpr]string{} // call -> released root path
		walkSkippingFuncLits(body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || !releasingCalls[calleeKey(info, call)] {
				return
			}
			if p := env.canon(pathOf(info, recvExpr(call))); p != "" {
				releaseSite[call] = p
			}
		})
		if len(releaseSite) == 0 {
			return
		}

		transfer := func(n ast.Node, f facts) {
			switch st := n.(type) {
			case *ast.CallExpr:
				if p, ok := releaseSite[st]; ok {
					f[p] |= mrReleased
				}
			case *ast.AssignStmt:
				killDefines(env, f, st)
			}
		}
		// suppressUntil implements outermost-wins: the report pass walks each
		// atomic node in pre-order, so the widest flagged expression is seen
		// first and its span masks the nested sub-accesses.
		var suppressUntil token.Pos
		report := func(n ast.Node, f facts) {
			expr := accessExpr(info, n)
			if expr == nil || expr.Pos() < suppressUntil {
				return
			}
			if !isFabricValue(info.TypeOf(expr)) {
				return
			}
			p := env.canon(pathOf(info, expr))
			if p == "" || !releasedOrigin(env, f, p) {
				return
			}
			suppressUntil = expr.End()
			pass.Reportf(expr.Pos(), "%s is used after its owning fabric was released; the memory is back in the MR pool",
				types.ExprString(expr))
		}
		runFlow(body, flowHooks{transfer: transfer, report: report})
	})
	return nil
}

// releasedOrigin reports whether path, any syntactic prefix of it, or any
// root it derives from (via the rdma API summaries) carries the released bit.
func releasedOrigin(env *pathEnv, f facts, path string) bool {
	seen := map[string]bool{}
	queue := []string{env.canon(path)}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		if f[p]&mrReleased != 0 {
			return true
		}
		queue = append(queue, parentPath(p))
		if pre, _, ok := env.longestPrefix(env.derived, p); ok {
			queue = append(queue, env.canon(env.derived[pre]))
		}
	}
	return false
}

// isFabricValue reports whether t is a type whose storage returns to the MR
// pool on release: the rdma handles themselves, the bench Instance wrapper,
// or a registered buffer ([]byte reached through an MR's Buf — the type alone
// cannot tell, so plain []byte is included only when the access path says so;
// see the .Buf suffix check in the caller's path, handled here by accepting
// byte slices).
func isFabricValue(t types.Type) bool {
	if t == nil {
		return false
	}
	for _, name := range []string{"MR", "Node", "QP", "Fabric"} {
		if namedTypeIs(t, rdmaPkg, name) {
			return true
		}
	}
	if namedTypeIs(t, benchPkg, "Instance") {
		return true
	}
	// A []byte is fabric memory when it is an MR's Buf (or a slice of one);
	// the caller's path check keeps unrelated byte slices out because their
	// canonical paths never derive from a fabric root.
	return isByteSlice(t)
}
