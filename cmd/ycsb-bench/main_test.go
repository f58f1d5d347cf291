package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"acuerdo/internal/bench"
)

// run builds the command and runs it with args, returning its stdout, stderr
// and exit code.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ycsb-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var so, se bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &so, &se
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return so.String(), se.String(), code
}

// TestFigure9ObservedArtifact: Figure 9 mode takes -observe and -json like
// the scale-out ladder does — one placement point per Figure 9 system, each
// checked by its group's observer.
func TestFigure9ObservedArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.json")
	stdout, stderr, code := run(t, "-counts", "3", "-observe", "-json", path)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout, stderr)
	}
	if !strings.HasPrefix(stdout, "Figure 9:") {
		t.Fatalf("not the Figure 9 table:\n%s", stdout)
	}
	a, err := bench.ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Kind != "placement" || len(a.Points) != len(bench.YCSBSystems) {
		t.Fatalf("kind %q with %d points, want placement with %d", a.Kind, len(a.Points), len(bench.YCSBSystems))
	}
	for i, k := range bench.YCSBSystems {
		p := a.Points[i].(map[string]any)
		g := p["groups"].([]any)[0].(map[string]any)
		if p["system"] != string(k) || g["observe_checks"] == nil {
			t.Errorf("point %d: system %v, observe_checks %v; want %s, observed", i, p["system"], g["observe_checks"], k)
		}
	}
}

// TestUnknownSystemRefused: a typo in -system exits 2 with the known names
// before any world is built.
func TestUnknownSystemRefused(t *testing.T) {
	stdout, stderr, code := run(t, "-system", "acuerdo,nosuch")
	if code != 2 || stdout != "" || !strings.Contains(stderr, `"nosuch"`) || !strings.Contains(stderr, "zookeeper") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}
