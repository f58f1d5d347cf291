// Command ycsb-bench drives the replicated hash table with YCSB load in
// two modes.
//
// Without -pgs it regenerates the paper's Figure 9: YCSB-load throughput
// (ops/sec, 100% writes with zipfian-.99 key popularity) across node
// counts, for Acuerdo versus ZooKeeper and etcd.
//
// With -pgs it runs the scale-out experiment instead: for each listed
// placement-group count, one simulation partitions the keyspace across
// that many independent broadcast rings (internal/placement), places them
// on a shared fleet with leaders round-robined, and measures aggregate
// throughput as co-located replicas contend for the fleet's CPUs.
//
// Usage:
//
//	ycsb-bench
//	ycsb-bench -counts 3,5 -measure 50ms -window 128
//	ycsb-bench -parallel 0               # one worker per core, same table
//	ycsb-bench -pgs 1,4,16,64            # scale-out figure
//	ycsb-bench -pgs 16 -pgsize 3 -fleet 12 -domains 4 -observe -json out.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"acuerdo/internal/bench"
)

// parseCounts parses a comma-separated integer list, enforcing min.
func parseCounts(s string, min int, what string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < min {
			fmt.Fprintf(os.Stderr, "bad %s %q\n", what, f)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}

func main() {
	counts := flag.String("counts", "3,5,7,9", "comma-separated node counts (Figure 9 mode)")
	window := flag.Int("window", 64, "concurrent client operations (per PG in scale-out mode)")
	records := flag.Uint64("records", 10000, "keyspace size")
	value := flag.Int("value", 100, "value bytes per write")
	measure := flag.Duration("measure", 30*time.Millisecond, "simulated measurement interval")
	seed := flag.Int64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", 1, "worker pool size: 0 = GOMAXPROCS, 1 = serial")
	pgs := flag.String("pgs", "", "comma-separated placement-group counts; selects scale-out mode")
	pgsize := flag.Int("pgsize", 3, "replicas per placement group (scale-out mode)")
	fleet := flag.Int("fleet", 12, "fleet nodes hosting the groups (scale-out mode)")
	domains := flag.Int("domains", 4, "failure domains across the fleet (scale-out mode)")
	system := flag.String("system", "acuerdo", "system every group's ring runs (scale-out mode)")
	observe := flag.Bool("observe", false, "attach a runtime invariant observer per group (scale-out mode)")
	jsonOut := flag.String("json", "", "write the scale-out results as a JSON artifact")
	flag.Parse()

	if *pgs == "" {
		if *jsonOut != "" || *observe || *system != flag.Lookup("system").DefValue {
			fmt.Fprintln(os.Stderr, "ycsb-bench: -json, -observe and -system apply to scale-out mode only: add -pgs")
			os.Exit(2)
		}
		var cfgs []bench.YCSBConfig
		for _, n := range parseCounts(*counts, 3, "node count") {
			cfg := bench.DefaultYCSB(n)
			cfg.Window = *window
			cfg.Records = *records
			cfg.Value = *value
			cfg.Measure = *measure
			cfg.Seed = *seed
			cfgs = append(cfgs, cfg)
		}
		out, _ := bench.RunYCSBAllParallel(bench.YCSBSystems, cfgs, *parallel)
		bench.PrintFigure9(os.Stdout, out)
		return
	}

	kind := bench.Kind(*system)
	known := false
	for _, k := range bench.AllKinds {
		if k == kind {
			known = true
		}
	}
	if !known {
		fmt.Fprintf(os.Stderr, "unknown system %q (want one of %v)\n", *system, bench.AllKinds)
		os.Exit(2)
	}
	var cfgs []bench.PlacementConfig
	for _, n := range parseCounts(*pgs, 1, "placement-group count") {
		cfg := bench.DefaultPlacement(kind, n)
		cfg.Placement.PGSize = *pgsize
		cfg.Placement.Fleet = *fleet
		cfg.Placement.Domains = *domains
		cfg.Placement.Seed = *seed
		cfg.WindowPerPG = *window
		cfg.Records = *records
		cfg.Value = *value
		cfg.Measure = *measure
		cfg.Seed = *seed
		cfg.Observe = *observe
		if err := cfg.Placement.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cfgs = append(cfgs, cfg)
	}

	start := time.Now()
	results, rep := bench.RunPlacementSweep(cfgs, *parallel)
	bench.PrintPlacement(os.Stdout, results)

	if *jsonOut != "" {
		f := bench.NewArtifact("placement", "placement")
		f.Workers = rep.Workers
		f.WallNS = int64(time.Since(start))
		for i := range results {
			f.AddPlacement(&results[i])
		}
		if err := f.WriteFile(*jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d points)\n", *jsonOut, len(f.Points))
	}
}
