// Command bench-compare diffs two benchmark JSON artifacts — of any kind:
// abcast-bench, chaos-bench and ycsb-bench -pgs all write the one envelope —
// and exits non-zero on a regression. Deterministic fields must match
// exactly; wall-clock is compared only within -wall-tolerance, and a negative
// tolerance (the default) skips it: use that across machines. The rules live
// in internal/bench (Compare).
//
// Given a producer command after "--" instead of -current, it is the
// determinism check the CI lanes share: the producer runs twice, in two fresh
// directories, as "<producer> -parallel 1 -json out.json" and "<producer>
// -parallel 0 -json out.json" — so name a built binary, not "go run ./cmd/x".
// The two stdouts must be byte-identical, the parallel artifact must match
// the serial one (within -wall-tolerance: same machine), and the serial one
// must match -baseline when given (wall-clock never compared). Both
// directories ($TMPDIR/bench-compare-{serial,parallel}-*) are kept.
//
// Exit status: 0 match, 1 regression or producer failure, 2 usage or
// unreadable input.
//
// Usage:
//
//	bench-compare -baseline BENCH_baseline.json -current out.json
//	bench-compare -baseline a.json -current b.json -wall-tolerance 0.10
//	bench-compare -baseline BENCH_chaos.json -- /tmp/bin/chaos-bench -observe
//	bench-compare -- /tmp/bin/chaos-bench -short
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"

	"acuerdo/internal/bench"
)

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench-compare: "+format+"\n", args...)
	os.Exit(code)
}

func read(path string) *bench.Artifact {
	a, err := bench.ReadArtifact(path)
	if err != nil {
		fatal(2, "%v", err)
	}
	return a
}

// check exits 1 unless cur matches base, which the report calls baseName
// ("baseline F", "the serial run").
func check(baseName string, base, cur *bench.Artifact, wallTol float64) {
	if base.Kind != cur.Kind {
		fatal(2, "artifact kinds differ: baseline %q, current %q", base.Kind, cur.Kind)
	}
	if len(base.Points) == 0 {
		fatal(2, "%s has no points: nothing would be checked", baseName)
	}
	if err := bench.Compare(base, cur, wallTol); err != nil {
		fatal(1, "REGRESSION vs %s: %v", baseName, err)
	}
	fmt.Printf("bench-compare: %d points match %s\n", len(cur.Points), baseName)
}

// runTwice is the "--" mode: serial and parallel runs of producer must agree
// with each other and, when named, with the baseline.
func runTwice(producer []string, baseline string, wallTol float64) {
	var base *bench.Artifact
	if baseline != "" {
		base = read(baseline) // before the runs: a bad path should not cost minutes
	}
	bin, err := exec.LookPath(producer[0])
	if err == nil {
		bin, err = filepath.Abs(bin) // the runs start in other directories
	}
	if err != nil {
		fatal(2, "%v", err)
	}
	var dirs [2]string
	var stdout [2][]byte
	var arts [2]*bench.Artifact
	for i, mode := range []string{"serial", "parallel"} {
		if dirs[i], err = os.MkdirTemp("", "bench-compare-"+mode+"-"); err != nil {
			fatal(2, "%v", err)
		}
		cmd := exec.Command(bin, append(slices.Clone(producer[1:]), "-parallel", strconv.Itoa(1-i), "-json", "out.json")...)
		cmd.Dir, cmd.Stderr = dirs[i], os.Stderr
		out, runErr := cmd.Output()
		if err := os.WriteFile(filepath.Join(dirs[i], "stdout.txt"), out, 0o644); err != nil {
			fatal(2, "%v", err)
		}
		if runErr != nil {
			fatal(1, "%s run of %s: %v (outputs kept in %s)", mode, producer[0], runErr, dirs[i])
		}
		stdout[i], arts[i] = out, read(filepath.Join(dirs[i], "out.json"))
	}
	if !bytes.Equal(stdout[0], stdout[1]) {
		fatal(1, "REGRESSION: serial and parallel stdout differ: diff %s/stdout.txt %s/stdout.txt", dirs[0], dirs[1])
	}
	check("the serial run", arts[0], arts[1], wallTol)
	if base != nil {
		check("baseline "+baseline, base, arts[0], -1)
	}
	fmt.Printf("bench-compare: outputs kept in %s and %s\n", dirs[0], dirs[1])
}

func main() {
	baseline := flag.String("baseline", "", "baseline artifact (required with -current)")
	current := flag.String("current", "", "artifact to check against the baseline")
	wallTol := flag.Float64("wall-tolerance", -1, "allowed fractional wall-clock growth (0.10 = +10%); negative skips the wall-clock check")
	flag.Parse()

	producer := flag.Args()
	switch {
	case len(producer) > 0 && *current != "":
		fatal(2, "-current and a producer command after -- are mutually exclusive")
	case len(producer) > 0:
		runTwice(producer, *baseline, *wallTol)
	case *baseline == "" || *current == "":
		fmt.Fprintln(os.Stderr, "bench-compare: need -baseline and -current, or a producer command after --")
		flag.Usage()
		os.Exit(2)
	default:
		check("baseline "+*baseline, read(*baseline), read(*current), *wallTol)
	}
}
