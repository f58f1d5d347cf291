package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"acuerdo/internal/placement"
)

// YCSBSystems is the Figure 9 comparison set.
var YCSBSystems = []Kind{Acuerdo, Etcd, Zookeeper}

// Figure9 returns the calibrated configuration of one Figure 9 cell: the
// YCSB-load workload (100% writes, zipfian .99) against the replicated hash
// table over one kind ring of n nodes. It is the placement ladder's
// one-group rung — a single group spanning a fleet of its own size, so every
// member has a CPU to itself — and runs through RunPlacementSweep.
func Figure9(kind Kind, n int) PlacementConfig {
	return PlacementConfig{
		Kind:        kind,
		Placement:   placement.Config{PGs: 1, PGSize: n, Fleet: n, Domains: 1, Seed: 1},
		WindowPerPG: 64,
		Records:     10000,
		Value:       100,
		Warmup:      5 * time.Millisecond,
		Measure:     30 * time.Millisecond,
		Seed:        1,
	}
}

// PrintFigure9 renders Figure 9 from its cells, one row each in the order
// given (the paper's: YCSBSystems, node counts ascending within a system).
func PrintFigure9(w io.Writer, results []PlacementResult) {
	fmt.Fprintln(w, "Figure 9: YCSB-load throughput (ops/sec) vs node count")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "system\tnodes\tops/sec\tlat-mean(us)\tlat-p50(us)\tlat-p99(us)\n")
	for i := range results {
		r := &results[i]
		s := r.Latency.Export()
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.1f\t%.1f\t%.1f\n",
			r.System, r.Config.Placement.PGSize, r.OpsPerSec, us(s.Mean), us(s.P50), us(s.P99))
	}
	tw.Flush()
}
