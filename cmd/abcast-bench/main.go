// Command abcast-bench regenerates the paper's Figure 8: broadcast latency
// versus throughput under varying closed-loop load, for Acuerdo and all six
// baselines, at the paper's four configurations (3/7 nodes x 10/1000 byte
// messages).
//
// Usage:
//
//	abcast-bench                         # all four subfigures
//	abcast-bench -nodes 3 -size 10       # one subfigure
//	abcast-bench -systems acuerdo,apus   # subset of systems
//	abcast-bench -measure 50ms -windows 1,4,16,64,256
//	abcast-bench -parallel 0 -fp -json BENCH_figure8.json
//
// Every load point is an independent simulation, so -parallel spreads the
// grid over a worker pool; the tables (and every deterministic field of the
// -json artifact) are byte-identical for every worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"acuerdo/internal/bench"
	"acuerdo/internal/trace"
)

func main() {
	nodes := flag.Int("nodes", 0, "replica count (0 = both 3 and 7)")
	size := flag.Int("size", 0, "message size in bytes (0 = both 10 and 1000)")
	systems := flag.String("systems", "", "comma-separated system subset (default: all)")
	windows := flag.String("windows", "", "comma-separated window ladder (default: 1..256 by powers of two)")
	measure := flag.Duration("measure", 20*time.Millisecond, "simulated measurement interval per load point")
	warmup := flag.Duration("warmup", 4*time.Millisecond, "simulated warmup per load point")
	seed := flag.Int64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", 1, "worker pool size: 0 = GOMAXPROCS, 1 = serial")
	jsonOut := flag.String("json", "", "write the sweep as a machine-readable JSON artifact to this file")
	fp := flag.Bool("fp", false, "trace every load point so results carry replay fingerprints (same tables, slower)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the last load point to this file (also enables the latency-decomposition and layer-counter reports)")
	observe := flag.Bool("observe", false, "run every load point under the runtime invariant observers; a violation aborts with the witness report")
	flag.Parse()

	kinds, err := bench.ParseKinds(*systems, bench.AllKinds)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var ws []int
	if *windows != "" {
		for _, s := range strings.Split(*windows, ",") {
			w, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || w < 1 {
				fmt.Fprintf(os.Stderr, "bad window %q\n", s)
				os.Exit(2)
			}
			ws = append(ws, w)
		}
	}

	nodeCounts := []int{3, 7}
	if *nodes != 0 {
		nodeCounts = []int{*nodes}
	}
	sizes := []int{10, 1000}
	if *size != 0 {
		sizes = []int{*size}
	}

	sub := map[[2]int]string{
		{3, 10}: "Figure 8a", {3, 1000}: "Figure 8b",
		{7, 10}: "Figure 8c", {7, 1000}: "Figure 8d",
	}
	var art *bench.Artifact
	if *jsonOut != "" {
		art = bench.NewArtifact("figure8", "")
	}
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wallStart := time.Now()

	var lastTrace *trace.Tracer
	for _, n := range nodeCounts {
		for _, sz := range sizes {
			cfg := bench.DefaultFig8(n, sz)
			cfg.Measure = *measure
			cfg.Warmup = *warmup
			cfg.Seed = *seed
			cfg.Observe = *observe
			if ws != nil {
				cfg.Windows = ws
			}
			if *traceOut != "" {
				cfg.TraceEvents = trace.DefaultRing
			} else if *fp {
				// Fingerprints, counters, and the decomposition cover
				// the whole stream no matter how deep the ring is; a
				// small ring keeps emit cache-resident.
				cfg.TraceEvents = trace.FingerprintRing
			}
			title := sub[[2]int{n, sz}]
			if title == "" {
				title = "Figure 8 (custom)"
			}
			results, rep := bench.Figure8Parallel(cfg, kinds, *parallel)
			bench.PrintFigure8(os.Stdout, title, cfg, results, kinds)
			if art != nil {
				art.AddFigure8(cfg, results, kinds)
				art.Workers = rep.Workers
			}
			if *traceOut != "" {
				bench.PrintLayerReport(os.Stdout, results, kinds)
				for _, k := range kinds {
					if rs := results[k]; len(rs) > 0 && rs[len(rs)-1].Trace != nil {
						lastTrace = rs[len(rs)-1].Trace
					}
				}
			}
			fmt.Println()
		}
	}
	if art != nil {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		art.WallNS = int64(time.Since(wallStart))
		art.Allocs = m1.Mallocs - m0.Mallocs
		art.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
		if err := art.WriteFile(*jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d points to %s\n", len(art.Points), *jsonOut)
	}
	if *traceOut != "" && lastTrace != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := lastTrace.WriteChrome(f); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote Chrome trace of the last load point to %s (open in Perfetto or chrome://tracing)\n", *traceOut)
	}
}
