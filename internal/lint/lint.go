// Package lint implements the determinism and ring-view lint suite that
// guards the simulation's core invariants: two runs with the same seed
// execute the same events and report identical latencies (see
// internal/simnet), and whoever keeps a record polled from a ring copies it
// first (internal/ringbuf). Syntactic analyzers enforce the determinism
// discipline, one dataflow analyzer (see dataflow.go and DESIGN.md §6.6)
// checks the ring views, and one pass guards the documentation of the
// harness API:
//
//   - nowallclock: protocol and fabric code must use the simnet clock and the
//     Sim's seeded RNG, never the wall clock (time.Now, time.Sleep, ...) or
//     the global math/rand source.
//   - maporder: Go's map iteration order is randomized per run; ranging over
//     a map with protocol side effects in the loop body (sending, mutating
//     replica state, selecting a winner) silently breaks seed-replay unless
//     the keys are sorted first.
//   - simproc: simulation-driven packages model concurrency with simnet.Proc;
//     raw goroutines, host channels and sync / sync/atomic primitives race or
//     block against the single-threaded event loop.
//   - ringview (dataflow): a record polled from a ring is a view into ring
//     memory; storing it where it outlives the poll needs a copy.
//   - exportdoc: exported identifiers in the harness API packages (sweep,
//     bench, chaos, trace, ...) must carry doc comments.
//
// Each of the four bug-class analyzers kills a mutant in production code that
// no test, race run or CI lane kills; DESIGN.md §6.6 has the verdict table,
// and each such mutant is a want case in the analyzer's fixture.
//
// internal/sweep is the deliberate exception to the determinism rules: it
// runs independent simulations on real goroutines and measures host
// wall-clock, so nowallclock and simproc exempt it (per-analyzer InScope)
// while exportdoc covers it.
//
// Suppression: a finding is waived by "//lint:ignore <analyzer>
// <justification>" on, or directly above, the offending line. The
// justification is mandatory — a directive missing it, or naming an unknown
// analyzer, is itself a diagnostic (analyzer name "directive") and
// suppresses nothing. The whole repository is held to zero diagnostics by
// TestCorpusClean in corpus_test.go.
//
// The API mirrors golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic)
// so the passes could be lifted onto the real driver if the dependency ever
// becomes available; the container this repository builds in has no network,
// so the framework is implemented here on the standard library alone.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one lint pass, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the pass in diagnostics and //lint:ignore comments.
	Name string
	// Doc is the one-paragraph rule description shown by the driver.
	Doc string
	// Run executes the pass, reporting findings through pass.Reportf.
	Run func(*Pass) error
	// InScope, when non-nil, overrides the suite-wide InScope default for
	// this pass — either widening it (exportdoc covers only the harness API
	// packages) or narrowing it (nowallclock and simproc exempt
	// internal/sweep, the one package that deliberately uses real
	// goroutines and the wall clock). The driver consults it through
	// AppliesTo; fixture tests call RunAnalyzers directly and bypass
	// scoping entirely.
	InScope func(pkgPath string) bool
}

// AppliesTo reports whether the analyzer should run over the package with
// the given import path: the per-analyzer InScope override when set, the
// suite default otherwise.
func (az *Analyzer) AppliesTo(pkgPath string) bool {
	if az.InScope != nil {
		return az.InScope(pkgPath)
	}
	return InScope(pkgPath)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{NoWallClock, MapOrder, SimProc, ExportDoc, RingView}
}

// directiveAnalyzer is the pseudo-analyzer name attached to diagnostics about
// malformed //lint:ignore directives themselves.
const directiveAnalyzer = "directive"

// knownAnalyzerNames returns the set of names a //lint:ignore directive may
// target: every suite analyzer, the "*" wildcard, and "directive" itself.
func knownAnalyzerNames() map[string]bool {
	names := map[string]bool{"*": true, directiveAnalyzer: true}
	for _, az := range All() {
		names[az.Name] = true
	}
	return names
}

// InScope reports whether the determinism analyzers apply to the package with
// the given import path. The suite covers every simulation-driven package in
// the module — protocols, fabrics, harnesses — but not the lint tooling
// itself, the command-line front-ends, or the examples.
func InScope(pkgPath string) bool {
	if !strings.HasPrefix(pkgPath, "acuerdo/internal/") {
		return false
	}
	return !strings.HasPrefix(pkgPath, "acuerdo/internal/lint")
}

// RunAnalyzers runs each analyzer over pkg and returns the surviving
// diagnostics in position order. A finding is suppressed when its line (or
// the line above it) carries a "//lint:ignore <name> <reason>" comment naming
// the analyzer.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, az := range analyzers {
		pass := &Pass{
			Analyzer:  az,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := az.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", az.Name, pkg.PkgPath, err)
		}
	}
	diags = suppress(pkg, diags)
	// Nested map ranges can attribute one offending statement to both loops;
	// keep a single copy of identical findings.
	seen := map[Diagnostic]bool{}
	uniq := diags[:0]
	for _, d := range diags {
		if !seen[d] {
			seen[d] = true
			uniq = append(uniq, d)
		}
	}
	diags = uniq
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// suppress drops diagnostics overridden by well-formed //lint:ignore
// comments and reports malformed directives as diagnostics of their own: an
// unjustified suppression is a finding, not a free pass, so a directive that
// omits the analyzer name, names an unknown analyzer, or carries no
// justification suppresses nothing and is flagged where it stands.
func suppress(pkg *Package, diags []Diagnostic) []Diagnostic {
	known := knownAnalyzerNames()
	// ignores maps file -> line -> analyzer names ignored on that line.
	ignores := map[string]map[int][]string{}
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "lint:ignore") {
					continue
				}
				fields := strings.Fields(text)
				switch {
				case len(fields) < 2:
					diags = append(diags, Diagnostic{
						Pos:      c.Pos(),
						Message:  "malformed lint:ignore directive: want //lint:ignore <analyzer> <justification>",
						Analyzer: directiveAnalyzer,
					})
					continue
				case !known[fields[1]]:
					diags = append(diags, Diagnostic{
						Pos:      c.Pos(),
						Message:  fmt.Sprintf("lint:ignore names unknown analyzer %q", fields[1]),
						Analyzer: directiveAnalyzer,
					})
					continue
				case len(fields) < 3:
					diags = append(diags, Diagnostic{
						Pos:      c.Pos(),
						Message:  fmt.Sprintf("lint:ignore %s has no justification; say why the exemption is sound", fields[1]),
						Analyzer: directiveAnalyzer,
					})
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := ignores[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					ignores[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], fields[1])
			}
		}
	}
	if len(ignores) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		suppressed := false
		// An ignore comment applies to its own line (trailing comment) and
		// to the line directly below it (preceding comment).
		for _, line := range []int{pos.Line, pos.Line - 1} {
			for _, name := range ignores[pos.Filename][line] {
				if name == d.Analyzer || name == "*" {
					suppressed = true
				}
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	return kept
}
