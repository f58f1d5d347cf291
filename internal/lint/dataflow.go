package lint

// This file implements the function-local dataflow engine that ringview runs
// on. The design, in the order a run proceeds (DESIGN.md §6.6 has the full
// treatment):
//
//  1. Access paths. Values are named by normalized access paths over the
//     go/types-resolved AST: a local variable is "v#<pos>" (object identity,
//     not spelling), a field chain appends ".Field", and an index or slice
//     collapses to "[*]" — so c.queue[i] and c.queue[j] share the path
//     "c#123.queue[*]".
//
//  2. CFG. A statement-level control-flow graph over the function body:
//     straight-line statements group into blocks, if/for/range/switch/
//     type-switch/select/branch/return statements introduce edges, and
//     branch conditions are evaluated in the predecessor block. Function
//     literals are control-flow boundaries: the engine analyzes each literal
//     as its own function and never inlines its body at the creation site.
//
//  3. Facts and fixpoint. A fact set maps access paths to analyzer-defined
//     state bits. Transfer functions are gen/kill per statement, the join is
//     per-path bitwise OR ("on any path" = may-analysis), and a worklist
//     iterates to fixpoint — gen/kill transfer over a finite bit lattice is
//     monotone, so termination is structural. A final report pass replays
//     each reachable block from its fixed input and hands every statement its
//     pre-state, which is what "a store on some path from the poll" means
//     operationally.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ---------------------------------------------------------------------------
// Access paths
// ---------------------------------------------------------------------------

// pathOf normalizes expr to an access path, or "" when the expression has no
// stable name (call results, literals, arithmetic). Paths are built from the
// defining object of the root identifier, so shadowed or same-named variables
// in different scopes never collide.
func pathOf(info *types.Info, expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return ""
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			// Package-level variable: position-independent name.
			return v.Pkg().Path() + "." + v.Name()
		}
		return fmt.Sprintf("%s#%d", v.Name(), v.Pos())
	case *ast.SelectorExpr:
		// Qualified package identifier (pkg.Var) resolves through Uses.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				if v, ok := info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
					return v.Pkg().Path() + "." + v.Name()
				}
				return ""
			}
		}
		base := pathOf(info, e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.IndexExpr:
		base := pathOf(info, e.X)
		if base == "" {
			return ""
		}
		return base + "[*]"
	case *ast.SliceExpr:
		return pathOf(info, e.X)
	case *ast.StarExpr:
		return pathOf(info, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return pathOf(info, e.X)
		}
		return ""
	case *ast.ParenExpr:
		return pathOf(info, e.X)
	case *ast.TypeAssertExpr:
		return pathOf(info, e.X)
	}
	return ""
}

// calleeKey returns "pkgpath.Type.Method" for a resolved method call and
// "pkgpath.Func" for a package-level call, or "" for anything unresolvable
// (builtins, function values, interface calls without type info).
func calleeKey(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
		}
		named, isNamed := t.(*types.Named)
		if !isNamed {
			return ""
		}
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// walkSkippingFuncLits visits every node under root except the bodies of
// nested function literals.
func walkSkippingFuncLits(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && n != root {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// forEachFunc invokes fn for every function body in the file set: every
// FuncDecl with a body and every FuncLit, each treated as an independent
// function-local analysis unit.
func forEachFunc(files []*ast.File, fn func(name string, body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					fn(d.Name.Name, d.Body)
				}
			case *ast.FuncLit:
				fn("func literal", d.Body)
			}
			return true
		})
	}
}

// ---------------------------------------------------------------------------
// Facts
// ---------------------------------------------------------------------------

// facts maps canonical access paths to analyzer-defined state bits.
type facts map[string]uint32

func (f facts) clone() facts {
	out := make(facts, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// join ORs other into f, reporting whether f changed.
func (f facts) join(other facts) bool {
	changed := false
	for k, v := range other {
		if f[k]|v != f[k] {
			f[k] |= v
			changed = true
		}
	}
	return changed
}

// killPrefix clears every fact on path and on paths nested under it; an
// assignment to a variable is a strong update that invalidates stale state.
func (f facts) killPrefix(path string) {
	for k := range f {
		if k == path || (strings.HasPrefix(k, path) && len(k) > len(path) &&
			(k[len(path)] == '.' || k[len(path)] == '[')) {
			delete(f, k)
		}
	}
}

// ---------------------------------------------------------------------------
// CFG
// ---------------------------------------------------------------------------

// cfgBlock is one straight-line run of atomic nodes. An atomic node is a
// non-compound statement or a branch-condition expression; compound
// statements contribute edges, not nodes.
type cfgBlock struct {
	nodes []ast.Node
	succs []*cfgBlock
	index int
}

// cfg is the control-flow graph of one function body.
type cfg struct {
	blocks []*cfgBlock
	entry  *cfgBlock
}

type loopTargets struct {
	label         string
	brk, cont     *cfgBlock
	isSwitchOrSel bool
}

type cfgBuilder struct {
	g     *cfg
	loops []loopTargets
	// pendingLabel carries a LabeledStmt's name to the loop/switch statement
	// it labels (the builder recurses through LabeledStmt).
	pendingLabel string
}

// takeLabel consumes the pending label for the statement being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// buildCFG constructs the statement-level CFG of body.
func buildCFG(body *ast.BlockStmt) *cfg {
	b := &cfgBuilder{g: &cfg{}}
	entry := b.newBlock()
	b.g.entry = entry
	b.stmtList(body.List, entry)
	for i, blk := range b.g.blocks {
		blk.index = i
	}
	return b.g
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.g.blocks = append(b.g.blocks, blk)
	return blk
}

func edge(from, to *cfgBlock) {
	if from == nil || to == nil {
		return
	}
	from.succs = append(from.succs, to)
}

// stmtList threads stmts through cur, returning the live exit block (nil when
// control cannot fall out the bottom).
func (b *cfgBuilder) stmtList(stmts []ast.Stmt, cur *cfgBlock) *cfgBlock {
	for _, s := range stmts {
		if cur == nil {
			// Dead code after return/branch still needs its reports wired to
			// *some* block so nested defs parse; give it an unreachable one.
			cur = b.newBlock()
		}
		cur = b.stmt(s, cur)
	}
	return cur
}

// stmt adds one statement, returning the live exit block.
func (b *cfgBuilder) stmt(s ast.Stmt, cur *cfgBlock) *cfgBlock {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(st.List, cur)

	case *ast.IfStmt:
		if st.Init != nil {
			cur = b.stmt(st.Init, cur)
		}
		cur.nodes = append(cur.nodes, st.Cond)
		thenB := b.newBlock()
		edge(cur, thenB)
		thenExit := b.stmtList(st.Body.List, thenB)
		join := b.newBlock()
		edge(thenExit, join)
		if st.Else != nil {
			elseB := b.newBlock()
			edge(cur, elseB)
			elseExit := b.stmt(st.Else, elseB)
			edge(elseExit, join)
		} else {
			edge(cur, join)
		}
		return join

	case *ast.ForStmt:
		lbl := b.takeLabel()
		if st.Init != nil {
			cur = b.stmt(st.Init, cur)
		}
		head := b.newBlock()
		edge(cur, head)
		if st.Cond != nil {
			head.nodes = append(head.nodes, st.Cond)
		}
		after := b.newBlock()
		post := b.newBlock()
		bodyB := b.newBlock()
		edge(head, bodyB)
		if st.Cond != nil {
			edge(head, after) // condition false
		}
		b.pushLoop(lbl, after, post)
		bodyExit := b.stmtList(st.Body.List, bodyB)
		b.popLoop()
		edge(bodyExit, post)
		if st.Post != nil {
			postExit := b.stmt(st.Post, post)
			edge(postExit, head)
		} else {
			edge(post, head)
		}
		// for {} without cond: only break reaches after.
		return after

	case *ast.RangeStmt:
		lbl := b.takeLabel()
		cur.nodes = append(cur.nodes, st.X)
		head := b.newBlock()
		edge(cur, head)
		// Key (re)defines per iteration; model as a kill in the head.
		if st.Key != nil {
			head.nodes = append(head.nodes, &ast.AssignStmt{Lhs: []ast.Expr{st.Key}, Tok: st.Tok, Rhs: []ast.Expr{st.Key}})
		}
		after := b.newBlock()
		bodyB := b.newBlock()
		edge(head, bodyB)
		edge(head, after)
		b.pushLoop(lbl, after, head)
		bodyExit := b.stmtList(st.Body.List, bodyB)
		b.popLoop()
		edge(bodyExit, head)
		return after

	case *ast.SwitchStmt:
		lbl := b.takeLabel()
		if st.Init != nil {
			cur = b.stmt(st.Init, cur)
		}
		if st.Tag != nil {
			cur.nodes = append(cur.nodes, st.Tag)
		}
		return b.switchClauses(st.Body.List, cur, lbl, false)

	case *ast.TypeSwitchStmt:
		lbl := b.takeLabel()
		if st.Init != nil {
			cur = b.stmt(st.Init, cur)
		}
		cur = b.stmt(st.Assign, cur)
		return b.switchClauses(st.Body.List, cur, lbl, false)

	case *ast.SelectStmt:
		return b.switchClauses(st.Body.List, cur, b.takeLabel(), true)

	case *ast.LabeledStmt:
		b.pendingLabel = st.Label.Name
		return b.stmt(st.Stmt, cur)

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, st)
		return nil

	case *ast.BranchStmt:
		switch st.Tok {
		case token.BREAK:
			if t := b.findLoop(st.Label, true); t != nil {
				edge(cur, t.brk)
			}
			return nil
		case token.CONTINUE:
			if t := b.findLoop(st.Label, false); t != nil {
				edge(cur, t.cont)
			}
			return nil
		case token.FALLTHROUGH:
			// Handled by switchClauses (clause exit falls into next body).
			cur.nodes = append(cur.nodes, st)
			return cur
		default: // goto: treat as opaque fallthrough (none in the corpus)
			cur.nodes = append(cur.nodes, st)
			return cur
		}

	default:
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

// switchClauses wires case/comm clause bodies: every clause is a successor of
// cur, every clause exit joins after, fallthrough chains clause bodies.
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, cur *cfgBlock, label string, isSelect bool) *cfgBlock {
	after := b.newBlock()
	hasDefault := false
	type built struct {
		body []ast.Stmt
		blk  *cfgBlock
	}
	var parts []built
	for _, cl := range clauses {
		blk := b.newBlock()
		edge(cur, blk)
		switch c := cl.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				hasDefault = true
			}
			for _, e := range c.List {
				blk.nodes = append(blk.nodes, e)
			}
			parts = append(parts, built{body: c.Body, blk: blk})
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				blk.nodes = append(blk.nodes, c.Comm)
			}
			parts = append(parts, built{body: c.Body, blk: blk})
		}
	}
	if !hasDefault || isSelect {
		// No default: the switch can fall through with no clause taken.
		// (For select without default this models "no channel ready yet".)
		edge(cur, after)
	}
	b.loops = append(b.loops, loopTargets{label: label, brk: after, isSwitchOrSel: true})
	var exits []*cfgBlock
	for _, p := range parts {
		exits = append(exits, b.stmtList(p.body, p.blk))
	}
	b.loops = b.loops[:len(b.loops)-1]
	for i, ex := range exits {
		if ex == nil {
			continue
		}
		// A trailing fallthrough chains into the next clause body.
		if n := len(ex.nodes); n > 0 {
			if br, ok := ex.nodes[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH && i+1 < len(parts) {
				ex.nodes = ex.nodes[:n-1]
				edge(ex, parts[i+1].blk)
				continue
			}
		}
		edge(ex, after)
	}
	return after
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *cfgBlock) {
	b.loops = append(b.loops, loopTargets{label: label, brk: brk, cont: cont})
}

func (b *cfgBuilder) popLoop() { b.loops = b.loops[:len(b.loops)-1] }

// findLoop resolves a break/continue target; break also matches switch/select
// scopes, continue skips them.
func (b *cfgBuilder) findLoop(label *ast.Ident, isBreak bool) *loopTargets {
	for i := len(b.loops) - 1; i >= 0; i-- {
		t := &b.loops[i]
		if !isBreak && t.isSwitchOrSel {
			continue
		}
		if label == nil || t.label == label.Name {
			return t
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Fixpoint + report driver
// ---------------------------------------------------------------------------

// flowHooks are the analyzer-supplied callbacks of one function-local run.
// entry, when non-nil, is the fact set on entry to the function (facts about
// its parameters); transfer mutates the fact set for one atomic node; report
// sees each node with its pre-state during the final stable pass.
type flowHooks struct {
	entry    facts
	transfer func(n ast.Node, f facts)
	report   func(n ast.Node, f facts)
}

// runFlow builds the CFG of body, iterates the transfer function to fixpoint,
// and replays the report pass over every reachable block.
func runFlow(body *ast.BlockStmt, hooks flowHooks) {
	g := buildCFG(body)

	in := make([]facts, len(g.blocks))
	in[g.entry.index] = hooks.entry.clone()
	work := []*cfgBlock{g.entry}
	inWork := make([]bool, len(g.blocks))
	inWork[g.entry.index] = true
	for iter := 0; len(work) > 0 && iter < 10000; iter++ {
		blk := work[0]
		work = work[1:]
		inWork[blk.index] = false
		cur := in[blk.index].clone()
		for _, n := range blk.nodes {
			applyNode(n, cur, hooks.transfer)
		}
		for _, succ := range blk.succs {
			if in[succ.index] == nil {
				in[succ.index] = cur.clone()
			} else if !in[succ.index].join(cur) {
				continue
			}
			if !inWork[succ.index] {
				inWork[succ.index] = true
				work = append(work, succ)
			}
		}
	}

	if hooks.report == nil {
		return
	}
	// Deterministic order: blocks are created in syntactic order.
	for _, blk := range g.blocks {
		if in[blk.index] == nil {
			continue // unreachable
		}
		cur := in[blk.index].clone()
		for _, n := range blk.nodes {
			applyNode(n, cur, hooks.report)
			applyNode(n, cur, hooks.transfer)
		}
	}
}

// applyNode feeds n and every sub-node (excluding nested function literals)
// to fn in syntactic order, giving hooks a single walk-granularity contract.
func applyNode(n ast.Node, f facts, fn func(ast.Node, facts)) {
	walkSkippingFuncLits(n, func(sub ast.Node) { fn(sub, f) })
}
