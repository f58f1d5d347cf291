package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json -compare needs: the bound per
// end-to-end metric.
type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repo root, whether the command
// runs from there or from the benchmark's own directory.
func loadSpec() (*spec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// Verdicts of the comparison rule (choosing-metrics guide, sections 6 and 8).
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judgeMetric compares one metric of the parent (a) and the change (b).
// A sim metric repeats exactly, so any difference is real: it regresses as
// soon as it is worse by more than the bound and improves as soon as it is
// better at all. A host metric is taken over reps and carries their
// quartiles: when the parent's own spread is wider than the bound the pair
// cannot be resolved; otherwise it regresses when worse by more than the
// bound, and improves only when better by more than the parent's spread.
func judgeMetric(d metricDef, a, b stat) (verdict string, change float64) {
	if a.Value == 0 {
		if b.Value == 0 {
			return unchanged, 0
		}
		return unresolved, 0
	}
	change = (b.Value - a.Value) / a.Value // positive: b is larger
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	if a.Clock == "sim" {
		switch {
		case worse > d.Bound:
			return regressed, change
		case worse < 0:
			return improved, change
		}
		return unchanged, change
	}
	// The reported value rests on N reps, so its own spread is about the
	// reps' interquartile range over the square root of N. A gain has to
	// clear the whole range, and a tenth of the bound, before one run per
	// side may call it one.
	noise, gain := d.Bound, d.Bound // a single reading (peak RSS) has no spread of its own
	if a.N > 0 {
		gain = max((a.Q3-a.Q1)/a.Value, d.Bound/10)
		noise = (a.Q3 - a.Q1) / a.Value / math.Sqrt(float64(a.N))
	}
	switch {
	case noise > d.Bound:
		return unresolved, change
	case worse > d.Bound:
		return regressed, change
	case worse < -gain:
		return improved, change
	}
	return unchanged, change
}

func loadResults(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (workload, end-to-end metric), then every
// count-kind per-layer metric that moved. It exits 1 on any regression.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark: -compare needs BENCHMARK.json:", err)
		return 2
	}
	a, err := loadResults(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := loadResults(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if a.Seed != b.Seed || a.Quick != b.Quick {
		fmt.Fprintf(stderr, "benchmark: %s (seed %d, quick %v) and %s (seed %d, quick %v) did not measure the same thing\n",
			pathA, a.Seed, a.Quick, pathB, b.Seed, b.Quick)
		return 2
	}
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		if b.Workloads[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	counts := map[string]int{}
	fmt.Fprintf(stdout, "%-16s %-24s %-5s %16s %16s %9s  %s\n", "workload", "metric", "clock", "A", "B", "change", "verdict (bound)")
	for _, n := range names {
		wa, wb := a.Workloads[n], b.Workloads[n]
		if wa.EndToEnd != nil && wb.EndToEnd != nil {
			for _, d := range sp.EndToEnd {
				sa, sb := wa.EndToEnd.Metrics[d.Name], wb.EndToEnd.Metrics[d.Name]
				v, change := judgeMetric(d, sa, sb)
				counts[v]++
				fmt.Fprintf(stdout, "%-16s %-24s %-5s %16.6f %16.6f %+8.2f%%  %s (%.0f%%)\n",
					n, d.Name, sa.Clock, sa.Value, sb.Value, 100*change, v, 100*d.Bound)
			}
		}
		if wa.PerLayer != nil && wb.PerLayer != nil {
			for _, d := range sp.PerLayer {
				sa, sb := wa.PerLayer.Metrics[d.Name], wb.PerLayer.Metrics[d.Name]
				if sa.Clock == "sim" && sa.Value != sb.Value {
					fmt.Fprintf(stdout, "%-16s %-24s %-5s %16.6f %16.6f  layer count moved\n", n, d.Name, sa.Clock, sa.Value, sb.Value)
				}
			}
		}
	}
	fmt.Fprintf(stdout, "%d improved, %d unchanged, %d regressed, %d unresolved\n",
		counts[improved], counts[unchanged], counts[regressed], counts[unresolved])
	if counts[regressed] > 0 {
		return 1
	}
	return 0
}
