package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// bin is the command, built once for every test.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "chaos-bench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "chaos-bench")
	code := 1
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// run runs the command with args, returning its stdout, stderr and exit
// code.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
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

// TestCPUProfile: -cpuprofile writes a profile and changes nothing the run
// prints.
func TestCPUProfile(t *testing.T) {
	args := []string{"-short", "-observe", "-durability", "durable", "-systems", "acuerdo", "-scenarios", "torn-write-restart"}
	plain, stderr, code := run(t, args...)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, plain, stderr)
	}
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	profiled, stderr, code := run(t, append(args, "-cpuprofile", prof)...)
	if code != 0 {
		t.Fatalf("with -cpuprofile: exit %d\n%s%s", code, profiled, stderr)
	}
	if profiled != plain {
		t.Fatalf("-cpuprofile changed stdout:\n%s\nwithout it:\n%s", profiled, plain)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("no profile written: %v", err)
	}
}
