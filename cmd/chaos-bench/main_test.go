package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// run builds the command and runs it with args, returning its stdout, stderr
// and exit code.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "chaos-bench")
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

// TestUnknownScenarioRefused: a typo in -scenarios exits 2 with the known
// names before any world is built, even when the other names are known.
func TestUnknownScenarioRefused(t *testing.T) {
	stdout, stderr, code := run(t, "-short", "-systems", "apus", "-scenarios", "flaky-link,no-such-scenario")
	if code != 2 || stdout != "" || !strings.Contains(stderr, `"no-such-scenario"`) || !strings.Contains(stderr, "torn-write-restart") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestKnownScenariosRun: a list of known names runs each of them, in the
// canonical order, and exits 0.
func TestKnownScenariosRun(t *testing.T) {
	stdout, stderr, code := run(t, "-short", "-systems", "apus", "-scenarios", "torn-write-restart, disk-stall-storm")
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout, stderr)
	}
	var ran []string
	for _, line := range strings.Split(stdout, "\n") {
		if name, ok := strings.CutPrefix(line, "scenario "); ok {
			ran = append(ran, strings.Fields(name)[0])
		}
	}
	if strings.Join(ran, ",") != "disk-stall-storm,torn-write-restart" {
		t.Fatalf("ran %v, want disk-stall-storm then torn-write-restart:\n%s", ran, stdout)
	}
}
