package lint

import (
	"go/ast"
	"strings"
)

// ExportDoc requires a doc comment on every exported top-level identifier —
// functions, methods, types, constants, and variables. It is scoped to the
// packages whose exported surface is the repository's harness API
// (internal/sweep, internal/bench, internal/chaos, internal/trace,
// internal/observe, internal/disk, internal/placement, internal/abcast,
// internal/digest, internal/chunks):
// those packages are what ARCHITECTURE.md points readers at, so an
// undocumented export there is a documentation regression, not a style nit. internal/observe qualifies
// because every protocol package calls its hooks — an undocumented hook is
// an instrumentation API nobody can place correctly. internal/disk qualifies
// because every protocol's durable mode builds on its Device/LogStore
// surface, and the chaos fault injectors call straight into it.
// internal/placement qualifies because its Config/Map surface is how every
// multi-group experiment is specified and reproduced. internal/abcast
// qualifies because its Group contract is the one interface every protocol
// package implements and every harness drives. internal/digest qualifies
// because every committed fingerprint is built from its folds. internal/chunks
// qualifies because the protocols' logs, the latency samples and the checker's
// order are built on its List.
var ExportDoc = &Analyzer{
	Name: "exportdoc",
	Doc: "require doc comments on exported identifiers in the harness API " +
		"packages (sweep, bench, chaos, trace, observe, disk, placement, abcast, digest, chunks)",
	Run: runExportDoc,
	InScope: func(pkgPath string) bool {
		switch pkgPath {
		case "acuerdo/internal/sweep", "acuerdo/internal/bench",
			"acuerdo/internal/chaos", "acuerdo/internal/trace",
			"acuerdo/internal/observe", "acuerdo/internal/disk",
			"acuerdo/internal/placement", "acuerdo/internal/abcast",
			"acuerdo/internal/digest", "acuerdo/internal/chunks":
			return true
		}
		return false
	},
}

func runExportDoc(pass *Pass) error {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Name.IsExported() && d.Doc == nil {
					kind := "function"
					if d.Recv != nil {
						kind = "method"
					}
					pass.Reportf(d.Name.Pos(), "exported %s %s is missing a doc comment", kind, d.Name.Name)
				}
			case *ast.GenDecl:
				checkGenDecl(pass, d)
			}
		}
	}
	return nil
}

// checkGenDecl handles type/const/var declarations. A doc comment on the
// grouped declaration covers every spec inside it (the usual idiom for
// enum-like const blocks); otherwise each spec with an exported name needs
// its own.
func checkGenDecl(pass *Pass, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
				pass.Reportf(s.Name.Pos(), "exported type %s is missing a doc comment", s.Name.Name)
			}
		case *ast.ValueSpec:
			// Only preceding comments document a name; a trailing comment on
			// the same line does not (the go/doc convention).
			if d.Doc != nil || s.Doc != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					kind := "var"
					if d.Tok.String() == "const" {
						kind = "const"
					}
					pass.Reportf(name.Pos(), "exported %s %s is missing a doc comment", kind, name.Name)
				}
			}
		}
	}
}
