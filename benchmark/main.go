// Command benchmark is the repo's benchmark: five fixed workloads, each
// measured on two clocks (simulated time, which repeats bit for bit from a
// seed, and host time, which is what the simulator costs to run), with a
// per-layer ledger taken from outside the layers and a correctness gate in
// the same command. README.md is the manual; BENCHMARK.json at the repo root
// is the contract the driver reads.
//
//	go run . [-workload NAME] [-seed N]          every metric of both passes, by name (each workload in its own process)
//	go run . -workload NAME -trace 0|1 ...       one pass, last stdout line is the driver's JSON
//	go run . -json out.json; go run . -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// passResult is one pass over one workload, as written to a result file.
type passResult struct {
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   map[string]stat `json:"metrics"`
}

// workloadResult holds whichever passes ran.
type workloadResult struct {
	EndToEnd *passResult `json:"end_to_end,omitempty"`
	PerLayer *passResult `json:"per_layer,omitempty"`
}

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Env       map[string]string          `json:"env"`
	Seed      int64                      `json:"seed"`
	Quick     bool                       `json:"quick,omitempty"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (default: all five)")
	seed := fs.Int64("seed", 1, "seed every world and input is built from")
	seconds := fs.Float64("seconds", 10, "wall seconds of timed reps per workload (at least five reps run regardless)")
	traceMode := fs.Int("trace", -1, "0: end-to-end pass only, 1: per-layer pass only, -1: both")
	quick := fs.Bool("quick", false, "10x shorter simulated phases, two reps, no kernels (tests; host numbers are not medians)")
	jsonOut := fs.String("json", "", "write the results to this file, for -compare")
	outDir := fs.String("out", "", "directory for <workload>.trace.json span files (default: out/ beside the sources)")
	compare := fs.Bool("compare", false, "compare two -json files: benchmark -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "unexpected arguments %q\n", fs.Args())
		return 2
	}

	if *outDir == "" {
		*outDir = "out"
		if _, err := os.Stat("benchmark/go.mod"); err == nil { // run from the repo root
			*outDir = filepath.Join("benchmark", "out")
		}
	}
	if *name == "" {
		return runEach(args, *jsonOut, *outDir, stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "unknown workload %q; have:", *name)
		for _, w := range workloads {
			fmt.Fprintf(stderr, " %s", w.name)
		}
		fmt.Fprintln(stderr)
		return 2
	}

	// The simulation is single-threaded; the second thread is for the
	// garbage collector. Pinned so a larger machine measures the same thing.
	procs := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(procs)
	env := environment(procs)
	fmt.Fprintf(stdout, "# go=%s nproc=%s GOMAXPROCS=%s GOGC=%s commit=%s seed=%d seconds=%g quick=%v\n",
		env["go"], env["nproc"], env["gomaxprocs"], env["gogc"], env["commit"], *seed, *seconds, *quick)

	cfg := runConfig{seed: *seed, seconds: *seconds, quick: *quick, log: stdout}
	wr := &workloadResult{}
	sp := &spanLog{workload: w.name}
	var last *passResult // the pass the driver's line reports
	if *traceMode != 1 {
		out, err := runEndToEnd(w, cfg, sp)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		wr.EndToEnd = report(w, "end_to_end", out, stdout, stderr)
		last = wr.EndToEnd
	}
	if *traceMode != 0 {
		out, err := runPerLayer(w, cfg, sp)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		wr.PerLayer = report(w, "per_layer", out, stdout, stderr)
		last = wr.PerLayer
		path := filepath.Join(*outDir, w.name+".trace.json")
		if err := sp.writeChrome(path); err != nil {
			fmt.Fprintln(stderr, "benchmark: writing spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "# %s: %d spans written to %s\n", w.name, len(sp.spans), path)
	}
	if *jsonOut != "" {
		file := resultFile{Env: env, Seed: *seed, Quick: *quick, Workloads: map[string]*workloadResult{w.name: wr}}
		if err := writeResults(*jsonOut, &file); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *traceMode >= 0 {
		// The driver's contract: the last line of stdout is one JSON object
		// with exactly these keys, each metric exactly {value, unit}.
		type driverMetric struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		line := struct {
			Correct   bool                    `json:"correct"`
			Attempted int                     `json:"attempted"`
			Failed    int                     `json:"failed"`
			Metrics   map[string]driverMetric `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, map[string]driverMetric{}}
		for n, s := range last.Metrics {
			line.Metrics[n] = driverMetric{s.Value, s.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", b)
	}
	if (wr.EndToEnd != nil && !wr.EndToEnd.Correct) || (wr.PerLayer != nil && !wr.PerLayer.Correct) {
		return 1
	}
	return 0
}

// runEach runs every workload in a process of its own, one after another:
// peak RSS, the MR free lists and the collector's pacing are per process, so
// a workload measured after another in one process would not measure what
// the driver's one-workload runs measure. Each child leaves its results in
// out/<workload>.json; jsonOut, if set, receives them merged.
func runEach(args []string, jsonOut, outDir string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var merged *resultFile
	code := 0
	for _, w := range workloads {
		path := filepath.Join(outDir, w.name+".json")
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		// Later flags win, so the child's -workload and -json override ours.
		cmd := exec.Command(self, append(append([]string{}, args...), "-workload", w.name, "-json", path, "-out", outDir)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			if _, exited := err.(*exec.ExitError); !exited {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			code = 1 // the child printed why
		}
		f, err := loadResults(path)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		if merged == nil {
			merged = f
		} else {
			merged.Workloads[w.name] = f.Workloads[w.name]
		}
	}
	if jsonOut != "" {
		if err := writeResults(jsonOut, merged); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

func writeResults(path string, f *resultFile) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}

// report prints one pass's metrics by name, with unit and clock, and any
// witnesses of incorrect output.
func report(w *workload, pass string, out *outcome, stdout, stderr io.Writer) *passResult {
	for _, wit := range out.witnesses {
		fmt.Fprintf(stderr, "benchmark: INCORRECT %s\n", wit)
	}
	fmt.Fprintf(stdout, "# %s %s: correct=%v attempted=%d failed=%d\n", w.name, pass, out.correct(), out.attempted, out.failed)
	for _, d := range out.metrics.defs {
		s := out.metrics.m[d.Name]
		fmt.Fprintf(stdout, "%-16s %-32s %16.6f %-7s %-4s", w.name, d.Name, s.Value, s.Unit, s.Clock)
		if s.N > 0 {
			fmt.Fprintf(stdout, " q1=%.6f q3=%.6f n=%d", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(stdout)
	}
	return &passResult{Correct: out.correct(), Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics.m}
}

// environment is the header every run prints, so a number can be traced to
// the machine and commit it came from.
func environment(procs int) map[string]string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	commit := "unknown" // the driver's checkout is not a git repository
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	return map[string]string{
		"go":         runtime.Version(),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(procs),
		"gogc":       gogc,
		"commit":     commit,
	}
}
