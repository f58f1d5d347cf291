package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseFunc type-checks one import-free source file and returns the file,
// its type info, and the fileset.
func parseFunc(t *testing.T, src string) (*ast.File, *types.Info, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := newTypesInfo()
	conf := types.Config{}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatal(err)
	}
	return file, info, fset
}

// exprByString finds the first expression whose printed form matches want.
func exprByString(t *testing.T, file *ast.File, want string) ast.Expr {
	t.Helper()
	var found ast.Expr
	ast.Inspect(file, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if e, ok := n.(ast.Expr); ok && types.ExprString(e) == want {
			found = e
			return false
		}
		return true
	})
	if found == nil {
		t.Fatalf("no expression %q in source", want)
	}
	return found
}

func TestPathOf(t *testing.T) {
	src := `package p

type inner struct{ g int }
type outer struct {
	ms  []inner
	ack inner
}

func f(c *outer, i, j int) {
	_ = c.ms[i].g
	_ = c.ms[j].g
	_ = c.ack.g
	_ = (*c).ack
	_ = c.ms[i:j]
}
`
	file, info, _ := parseFunc(t, src)
	path := func(expr string) string { return pathOf(info, exprByString(t, file, expr)) }

	// Index collapse: two elements of one slice are one abstract region.
	if a, b := path("c.ms[i].g"), path("c.ms[j].g"); a == "" || a != b {
		t.Errorf("collapsed element paths differ: %q vs %q", a, b)
	}
	// Distinct fields are distinct regions.
	if a, b := path("c.ms[i].g"), path("c.ack.g"); a == b {
		t.Errorf("distinct fields share path %q", a)
	}
	// Dereference and slicing are transparent.
	if a, b := path("(*c).ack"), path("c.ack"); a != b {
		t.Errorf("deref path %q != plain path %q", a, b)
	}
	if a, b := path("c.ms[i:j]"), path("c.ms"); a != b {
		t.Errorf("slice path %q != base path %q", a, b)
	}
	// Call results have no stable name.
	if p := pathOf(info, &ast.CallExpr{Fun: ast.NewIdent("g")}); p != "" {
		t.Errorf("call result got path %q", p)
	}
}

func TestFacts(t *testing.T) {
	f := facts{"a": 1, "a.b": 2, "a.b[*]": 4, "ab": 8}
	f.killPrefix("a.b")
	if _, ok := f["a.b"]; ok {
		t.Error("killPrefix left the path itself")
	}
	if _, ok := f["a.b[*]"]; ok {
		t.Error("killPrefix left a nested path")
	}
	if f["a"] != 1 || f["ab"] != 8 {
		t.Errorf("killPrefix clobbered unrelated paths: %v", f)
	}

	g := facts{"a": 1}
	if changed := g.join(facts{"a": 1}); changed {
		t.Error("join of equal facts reported a change")
	}
	if changed := g.join(facts{"a": 2, "c": 4}); !changed || g["a"] != 3 || g["c"] != 4 {
		t.Errorf("join = %v (changed=%v), want a:3 c:4 changed", g, changed)
	}
}

// TestRunFlow drives the fixpoint engine with a toy gen/kill analyzer:
// post() sets a bit, poll() clears it, and use() records the bit's pre-state.
// The cases pin the may-analysis semantics over joins, back edges, and
// zero-iteration loop paths.
func TestRunFlow(t *testing.T) {
	src := `package p

func post() {}
func poll() {}
func use()  {}

func joined(c bool) {
	post()
	if c {
		poll()
	}
	use()
}

func sequenced() {
	post()
	poll()
	use()
}

func backEdge(c bool) {
	for c {
		use()
		post()
	}
}

func zeroIteration(c bool, n int) {
	post()
	for i := 0; i < n; i++ {
		poll()
	}
	use()
}

func pollOnEveryPath(c bool) {
	post()
	if c {
		poll()
	} else {
		poll()
	}
	use()
}
`
	file, _, _ := parseFunc(t, src)

	dirtyAtUse := map[string]bool{}
	forEachFunc([]*ast.File{file}, func(name string, body *ast.BlockStmt) {
		calleeName := func(n ast.Node) string {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return ""
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok {
				return ""
			}
			return id.Name
		}
		runFlow(body, flowHooks{
			transfer: func(n ast.Node, f facts) {
				switch calleeName(n) {
				case "post":
					f["x"] |= 1
				case "poll":
					delete(f, "x")
				}
			},
			report: func(n ast.Node, f facts) {
				if calleeName(n) == "use" {
					dirtyAtUse[name] = f["x"]&1 != 0
				}
			},
		})
	})

	want := map[string]bool{
		"joined":          true,  // the c==false path skips the poll
		"sequenced":       false, // straight line: poll dominates use
		"backEdge":        true,  // post flows around the loop back edge
		"zeroIteration":   true,  // n==0 skips the loop body entirely
		"pollOnEveryPath": false, // both arms poll; the join is clean
	}
	for fn, wantDirty := range want {
		got, ok := dirtyAtUse[fn]
		if !ok {
			t.Errorf("%s: report hook never saw use()", fn)
			continue
		}
		if got != wantDirty {
			t.Errorf("%s: dirty at use = %v, want %v", fn, got, wantDirty)
		}
	}
}

// TestCFGSwitch pins clause wiring: every case is reachable from the tag
// block, a missing default adds a fall-past edge, and fallthrough chains
// bodies.
func TestCFGSwitch(t *testing.T) {
	src := `package p

func post() {}
func poll() {}
func use()  {}

func switchNoDefault(k int) {
	post()
	switch k {
	case 0:
		poll()
	case 1:
		poll()
	}
	use()
}

func switchWithDefault(k int) {
	post()
	switch k {
	case 0:
		poll()
	default:
		poll()
	}
	use()
}
`
	file, _, _ := parseFunc(t, src)

	dirtyAtUse := map[string]bool{}
	forEachFunc([]*ast.File{file}, func(name string, body *ast.BlockStmt) {
		calleeName := func(n ast.Node) string {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok {
					return id.Name
				}
			}
			return ""
		}
		runFlow(body, flowHooks{
			transfer: func(n ast.Node, f facts) {
				switch calleeName(n) {
				case "post":
					f["x"] |= 1
				case "poll":
					delete(f, "x")
				}
			},
			report: func(n ast.Node, f facts) {
				if calleeName(n) == "use" {
					dirtyAtUse[name] = f["x"]&1 != 0
				}
			},
		})
	})

	if !dirtyAtUse["switchNoDefault"] {
		t.Error("switchNoDefault: k==2 takes no clause and skips both polls; want dirty")
	}
	if dirtyAtUse["switchWithDefault"] {
		t.Error("switchWithDefault: every path polls; want clean")
	}
}
