// Command ycsb-bench drives the replicated hash table with YCSB load
// (100% writes with zipfian-.99 key popularity) over closed-loop groups
// placed on a fleet (internal/placement). One harness runs both of its
// tables; the flags only choose the list of configurations and the view.
//
// Without -pgs it regenerates the paper's Figure 9: throughput (ops/sec)
// across node counts, for Acuerdo versus ZooKeeper and etcd — one group per
// cell, on a fleet of its own size, so every member has a CPU to itself.
//
// With -pgs it runs the scale-out ladder instead: for each listed
// placement-group count, one simulation partitions the keyspace across
// that many independent broadcast rings, places them on a shared fleet
// with leaders round-robined, and measures aggregate throughput as
// co-located replicas contend for the fleet's CPUs.
//
// Usage:
//
//	ycsb-bench
//	ycsb-bench -counts 3,5 -measure 50ms -window 128
//	ycsb-bench -parallel 0               # one worker per core, same table
//	ycsb-bench -observe -json out.json   # Figure 9 under the observers, as an artifact
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

// parseKinds reads -system, defaulting to the mode's comparison set.
func parseKinds(s string, def []bench.Kind) []bench.Kind {
	kinds, err := bench.ParseKinds(s, def)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return kinds
}

func main() {
	counts := flag.String("counts", "3,5,7,9", "comma-separated node counts (Figure 9)")
	window := flag.Int("window", 64, "concurrent client operations per group")
	records := flag.Uint64("records", 10000, "keyspace size")
	value := flag.Int("value", 100, "value bytes per write")
	measure := flag.Duration("measure", 30*time.Millisecond, "simulated measurement interval")
	seed := flag.Int64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", 1, "worker pool size: 0 = GOMAXPROCS, 1 = serial")
	pgs := flag.String("pgs", "", "comma-separated placement-group counts; selects the scale-out ladder")
	pgsize := flag.Int("pgsize", 3, "replicas per placement group (scale-out)")
	fleet := flag.Int("fleet", 12, "fleet nodes hosting the groups (scale-out)")
	domains := flag.Int("domains", 4, "failure domains across the fleet (scale-out)")
	system := flag.String("system", "", "comma-separated systems every group's ring runs (default: acuerdo,etcd,zookeeper for Figure 9, acuerdo for scale-out)")
	observe := flag.Bool("observe", false, "attach a runtime invariant observer per group")
	jsonOut := flag.String("json", "", "write the results as a JSON artifact")
	flag.Parse()

	// -counts and -pgs choose the list of configurations and the table
	// printed; everything after is one path.
	var cfgs []bench.PlacementConfig
	print := bench.PrintFigure9
	if *pgs == "" {
		nodes := parseCounts(*counts, 3, "node count")
		for _, k := range parseKinds(*system, bench.YCSBSystems) {
			for _, n := range nodes {
				cfgs = append(cfgs, bench.Figure9(k, n))
			}
		}
	} else {
		print = bench.PrintPlacement
		groups := parseCounts(*pgs, 1, "placement-group count")
		for _, k := range parseKinds(*system, []bench.Kind{bench.Acuerdo}) {
			for _, n := range groups {
				cfg := bench.DefaultPlacement(k, n)
				cfg.Placement.PGSize = *pgsize
				cfg.Placement.Fleet = *fleet
				cfg.Placement.Domains = *domains
				cfgs = append(cfgs, cfg)
			}
		}
	}
	for i := range cfgs {
		cfg := &cfgs[i]
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
	}

	start := time.Now()
	results, rep := bench.RunPlacementSweep(cfgs, *parallel)
	print(os.Stdout, results)

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
