package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"acuerdo/internal/lint"
	"acuerdo/internal/lint/linttest"
)

// TestIgnoreComments verifies that //lint:ignore waives a finding on the same
// line or the line below, and that unwaived findings survive (the fixture's
// want comment covers the surviving one).
func TestIgnoreComments(t *testing.T) {
	linttest.Run(t, linttest.Testdata(t, "."), lint.NoWallClock, "ignore")
}

// TestInScope pins the analyzer scope: every simulation-driven internal
// package is covered, the lint tooling and external-looking paths are not.
func TestInScope(t *testing.T) {
	for path, want := range map[string]bool{
		"acuerdo/internal/zab":           true,
		"acuerdo/internal/simnet":        true,
		"acuerdo/internal/rdma":          true,
		"acuerdo/internal/abcast":        true,
		"acuerdo/internal/lint":          false,
		"acuerdo/internal/lint/linttest": false,
		"acuerdo/cmd/acuerdo-sim":        false,
		"fmt":                            false,
	} {
		if got := lint.InScope(path); got != want {
			t.Errorf("InScope(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestLoadModulePackage loads a real module package through the go-list-based
// loader and checks that syntax and type information came back usable.
func TestLoadModulePackage(t *testing.T) {
	loader := lint.NewLoader(".")
	pkgs, err := loader.Load("acuerdo/internal/simnet")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.PkgPath != "acuerdo/internal/simnet" || pkg.Name != "simnet" {
		t.Fatalf("loaded %s (package %s)", pkg.PkgPath, pkg.Name)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	if len(pkg.Syntax) == 0 || pkg.Types == nil || pkg.TypesInfo == nil {
		t.Fatal("missing syntax or type information")
	}
	// The suite must run cleanly over the package it protects. Scope the
	// analyzers the way the driver does (exportdoc does not cover simnet).
	var active []*lint.Analyzer
	for _, az := range lint.All() {
		if az.AppliesTo(pkg.PkgPath) {
			active = append(active, az)
		}
	}
	diags, err := lint.RunAnalyzers(pkg, active)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding in simnet: %s: %s (%s)",
			pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}

// TestDirectiveValidation pins the lint:ignore contract: a directive with no
// analyzer name, an unknown name, or no justification is itself a diagnostic
// and suppresses nothing, while a well-formed directive still waives its
// finding. The directive fixture has four Sleep calls; only the last is
// covered by a valid directive.
func TestDirectiveValidation(t *testing.T) {
	td := linttest.Testdata(t, ".")
	loader := lint.NewLoader(td)
	pkg, err := loader.LoadDir("directive", filepath.Join(td, "src", "directive"))
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{lint.NoWallClock})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		analyzer string
		contains string
	}{
		{"directive", "malformed lint:ignore directive"},
		{"nowallclock", "time.Sleep"},
		{"directive", "no justification"},
		{"nowallclock", "time.Sleep"},
		{"directive", `unknown analyzer "nosuchpass"`},
		{"nowallclock", "time.Sleep"},
	}
	if len(diags) != len(want) {
		for _, d := range diags {
			t.Logf("got: %s: %s (%s)", pkg.Fset.Position(d.Pos), d.Message, d.Analyzer)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(want))
	}
	for i, w := range want {
		if diags[i].Analyzer != w.analyzer || !strings.Contains(diags[i].Message, w.contains) {
			t.Errorf("diagnostic %d = %q (%s), want %s message containing %q",
				i, diags[i].Message, diags[i].Analyzer, w.analyzer, w.contains)
		}
	}
}

// TestAnalyzerScopes pins the per-analyzer scope rules so a regression in an
// InScope override (the sweep exemption, exportdoc's package list) is caught
// by go test, not by a surprise CI diagnostic.
func TestAnalyzerScopes(t *testing.T) {
	byName := map[string]*lint.Analyzer{}
	for _, az := range lint.All() {
		byName[az.Name] = az
	}
	cases := []struct {
		analyzer string
		pkgPath  string
		want     bool
	}{
		// Suite default: internal packages minus the lint tooling.
		{"maporder", "acuerdo/internal/zab", true},
		{"maporder", "acuerdo/internal/lint", false},
		{"maporder", "acuerdo/cmd/acuerdo-sim", false},
		// sweep is the sanctioned host-concurrency/wall-clock layer.
		{"nowallclock", "acuerdo/internal/sweep", false},
		{"simproc", "acuerdo/internal/sweep", false},
		{"nowallclock", "acuerdo/internal/apus", true},
		{"simproc", "acuerdo/internal/apus", true},
		{"simproc", "acuerdo/internal/rdma", true},
		// ringview follows the suite default: every ring consumer, and
		// ringbuf's own ClientLink.
		{"ringview", "acuerdo/internal/apus", true},
		{"ringview", "acuerdo/internal/ringbuf", true},
		// exportdoc covers only the harness API packages.
		{"exportdoc", "acuerdo/internal/sweep", true},
		{"exportdoc", "acuerdo/internal/bench", true},
		{"exportdoc", "acuerdo/internal/observe", true},
		{"exportdoc", "acuerdo/internal/disk", true},
		{"exportdoc", "acuerdo/internal/placement", true},
		{"exportdoc", "acuerdo/internal/abcast", true},
		{"exportdoc", "acuerdo/internal/digest", true},
		{"exportdoc", "acuerdo/internal/chunks", true},
		{"exportdoc", "acuerdo/internal/zab", false},
		// The placement map is pure computation on the simulation side of
		// the wall, so the determinism analyzers cover it too.
		{"maporder", "acuerdo/internal/placement", true},
		{"nowallclock", "acuerdo/internal/placement", true},
		{"simproc", "acuerdo/internal/placement", true},
		{"maporder", "acuerdo/internal/digest", true},
		{"nowallclock", "acuerdo/internal/digest", true},
		// The simulated disk runs on the simnet clock, so the determinism
		// analyzers cover it like any protocol package.
		{"maporder", "acuerdo/internal/disk", true},
		{"nowallclock", "acuerdo/internal/disk", true},
		{"simproc", "acuerdo/internal/disk", true},
		// The observer package and its hook call-sites sit inside the
		// determinism suite's default scope.
		{"maporder", "acuerdo/internal/observe", true},
		{"nowallclock", "acuerdo/internal/observe", true},
		{"simproc", "acuerdo/internal/observe", true},
	}
	for _, c := range cases {
		az := byName[c.analyzer]
		if az == nil {
			t.Fatalf("no analyzer named %q", c.analyzer)
		}
		if got := az.AppliesTo(c.pkgPath); got != c.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.analyzer, c.pkgPath, got, c.want)
		}
	}
}

// TestAnalyzerMetadata keeps the suite's registry stable: five analyzers,
// documented, uniquely named.
func TestAnalyzerMetadata(t *testing.T) {
	all := lint.All()
	if len(all) != 5 {
		t.Fatalf("All() returned %d analyzers, want 5", len(all))
	}
	seen := map[string]bool{}
	for _, az := range all {
		if az.Name == "" || az.Doc == "" || az.Run == nil {
			t.Errorf("analyzer %+v missing name, doc, or run", az)
		}
		if seen[az.Name] {
			t.Errorf("duplicate analyzer name %q", az.Name)
		}
		seen[az.Name] = true
		if strings.ToLower(az.Name) != az.Name {
			t.Errorf("analyzer name %q should be lowercase", az.Name)
		}
	}
}
