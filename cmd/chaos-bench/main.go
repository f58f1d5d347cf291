// Command chaos-bench runs the cross-system recovery benchmark: every
// system in the Figure 8 comparison is driven with closed-loop load under
// identical, seed-deterministic fault schedules while the abcast safety
// checker watches every delivery. It prints one recovery table per
// scenario — fault counts, client-visible mean/worst MTTR, unavailability
// windows, and whether the run wedged (the no-progress watchdog turns
// permanent halts like APUS-after-leader-death into bounded, reported
// exits). Re-running with the same seed reproduces every table bit for
// bit, fingerprints included.
//
// Usage:
//
//	chaos-bench                          # all systems, all scenarios
//	chaos-bench -short                   # trimmed horizons (CI lane)
//	chaos-bench -systems acuerdo,etcd    # subset of systems
//	chaos-bench -scenarios leader-kill-storm
//	chaos-bench -nodes 5 -seed 7 -v      # fired-action detail per run
//	chaos-bench -parallel 0              # one worker per core, same tables
//	chaos-bench -observe                 # runtime invariant observers on
//	chaos-bench -observe -json out.json  # machine-readable artifact
//	chaos-bench -durability durable      # per-replica simulated disks
//	chaos-bench -durability amnesia      # disks wiped at every crash
//	chaos-bench -memprofile mem.pprof    # heap profile at exit (go tool pprof)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"acuerdo/internal/bench"
	"acuerdo/internal/chaos"
)

func main() {
	nodes := flag.Int("nodes", 3, "replica count")
	seed := flag.Int64("seed", 1, "simulation seed (same seed = identical tables)")
	systems := flag.String("systems", "", "comma-separated system subset (default: all)")
	scenarios := flag.String("scenarios", "", "comma-separated scenario subset (default: all)")
	short := flag.Bool("short", false, "trimmed horizons for the CI chaos lane")
	parallel := flag.Int("parallel", 1, "worker pool size: 0 = GOMAXPROCS, 1 = serial")
	verbose := flag.Bool("v", false, "print per-run fired actions and unavailability windows")
	observe := flag.Bool("observe", false, "run every system under the runtime invariant observers; any violation fails the run")
	jsonPath := flag.String("json", "", "write a chaos artifact (bench-compare understands it) to this path")
	durability := flag.String("durability", "", "storage model: empty = volatile, 'durable' = per-replica simulated disks, 'amnesia' = disks wiped at every crash (systems with no durable mode stay volatile)")
	memprofile := flag.String("memprofile", "", "write a heap profile (the run's allocations by site, sampled at the runtime's default rate; go tool pprof reads it) to this file at exit")
	flag.Parse()

	switch bench.Durability(*durability) {
	case bench.Volatile, bench.Durable, bench.Amnesia:
	default:
		fmt.Fprintf(os.Stderr, "unknown -durability %q (want '', 'durable', or 'amnesia')\n", *durability)
		os.Exit(2)
	}

	kinds, err := bench.ParseKinds(*systems, bench.AllKinds)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := bench.DefaultChaos(*nodes, *seed)
	cfg.Observe = *observe
	cfg.Durability = bench.Durability(*durability)
	if *short {
		cfg.Horizon = 80 * time.Millisecond
		cfg.Drain = 30 * time.Millisecond
	}

	all := []chaos.Scenario{
		chaos.LeaderKillStorm(35*time.Millisecond, 10*time.Millisecond),
		chaos.FlakyLink(0.3, 20*time.Microsecond, 10*time.Millisecond, 15*time.Millisecond),
		chaos.RollingRestart(8*time.Millisecond, 25*time.Millisecond),
		chaos.QuorumLossAndHeal(20*time.Millisecond, 30*time.Millisecond),
		chaos.DiskStallStorm(3*time.Millisecond, 25*time.Millisecond),
		chaos.TornWriteRestart(35*time.Millisecond, 10*time.Millisecond),
	}
	if *short && *scenarios == "" {
		all = all[:2] // the two acceptance scenarios
	}
	if *scenarios != "" {
		want := map[string]bool{}
		for _, s := range strings.Split(*scenarios, ",") {
			want[strings.TrimSpace(s)] = true
		}
		var sel []chaos.Scenario
		for _, sc := range all {
			if want[sc.Name] {
				sel = append(sel, sc)
			}
		}
		if len(sel) == 0 {
			fmt.Fprintf(os.Stderr, "no matching scenario in %q\n", *scenarios)
			os.Exit(2)
		}
		all = sel
	}

	exit := 0
	name := "chaos"
	if *short {
		name = "chaos-short"
	}
	artifact := bench.NewArtifact(name, "chaos")
	start := time.Now()
	for _, sc := range all {
		fmt.Printf("scenario %s (%d nodes, seed %d)\n", sc.Name, *nodes, *seed)
		results, _ := bench.RunScenarioAllParallel(sc, cfg, kinds, *parallel)
		bench.PrintRecoveryTable(os.Stdout, results)
		for _, r := range results {
			if *verbose {
				bench.PrintChaosDetail(os.Stdout, r)
			}
			if r.SafetyErr != nil {
				fmt.Fprintf(os.Stderr, "SAFETY VIOLATION: %s under %s: %v\n", r.Kind, r.Plan, r.SafetyErr)
				exit = 1
			}
			if r.Violations > 0 {
				fmt.Fprintf(os.Stderr, "INVARIANT VIOLATIONS: %s under %s: %d\n", r.Kind, r.Plan, r.Violations)
				for _, rep := range r.ViolationReports {
					fmt.Fprintf(os.Stderr, "  %s\n", rep)
				}
				exit = 1
			}
		}
		artifact.AddChaos(cfg, results)
		fmt.Println()
	}
	if *jsonPath != "" {
		artifact.WallNS = int64(time.Since(start))
		if err := artifact.WriteFile(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "chaos-bench: writing %s: %v\n", *jsonPath, err)
			exit = 1
		} else {
			fmt.Printf("wrote %d cells to %s\n", len(artifact.Points), *jsonPath)
		}
	}
	if *memprofile != "" {
		runtime.GC() // the profile reports as of the last completed collection
		f, err := os.Create(*memprofile)
		if err == nil {
			err = pprof.Lookup("allocs").WriteTo(f, 0)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos-bench: writing %s: %v\n", *memprofile, err)
			exit = 1
		}
	}
	os.Exit(exit)
}
