package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/kvstore"
	"acuerdo/internal/metrics"
	"acuerdo/internal/sweep"
	"acuerdo/internal/ycsb"
)

// YCSBConfig parameterizes the Figure 9 experiment: the YCSB-load workload
// (100% writes, zipfian .99) against the replicated hash table.
type YCSBConfig struct {
	Nodes   int
	Window  int // concurrent client operations
	Records uint64
	Value   int // value bytes per write
	Warmup  time.Duration
	Measure time.Duration
	Seed    int64
}

// DefaultYCSB returns the calibrated Figure 9 configuration.
func DefaultYCSB(nodes int) YCSBConfig {
	return YCSBConfig{
		Nodes:   nodes,
		Window:  64,
		Records: 10000,
		Value:   100,
		Warmup:  5 * time.Millisecond,
		Measure: 30 * time.Millisecond,
		Seed:    1,
	}
}

// YCSBResult is one Figure 9 point.
type YCSBResult struct {
	System    string
	Nodes     int
	Committed int
	OpsPerSec float64
	Latency   metrics.Histogram
}

// YCSBSystems is the Figure 9 comparison set.
var YCSBSystems = []Kind{Acuerdo, Etcd, Zookeeper}

// RunYCSB drives the replicated hash table over one system with a
// closed-loop YCSB-load client.
func RunYCSB(kind Kind, cfg YCSBConfig) YCSBResult {
	inst := NewInstance(kind, cfg.Nodes, cfg.Seed, Options{})
	rm := kvstore.NewReplicated(inst.Sys, cfg.Nodes)
	inst.Group.SetDeliver(func(replica int, payload []byte) {
		// Engine payloads are always ops here.
		if err := rm.ApplyAt(replica, payload); err != nil {
			panic(fmt.Sprintf("bench: bad op delivered: %v", err))
		}
	})
	w := ycsb.NewWorkload(cfg.Records, cfg.Value, 0.99, cfg.Seed)
	res := YCSBResult{System: inst.Sys.Name(), Nodes: cfg.Nodes}
	measuring := false

	abcast.Loop(inst.Sim, inst.Sys, cfg.Window, func(_ uint64, next func()) {
		key, value := w.NextOp()
		sent := inst.Sim.Now()
		rm.Set(key, value, func() {
			if measuring {
				res.Committed++
				res.Latency.Add(inst.Sim.Now().Sub(sent))
			}
			next()
		})
	})
	inst.Sim.RunFor(cfg.Warmup)
	measuring = true
	start := inst.Sim.Now()
	inst.Sim.RunFor(cfg.Measure)
	measuring = false
	res.OpsPerSec = metrics.Throughput(res.Committed, inst.Sim.Now().Sub(start))
	return res
}

// RunYCSBAllParallel runs every (system, config) pair on a worker pool and
// merges the results per system, in configuration order. Each point boots
// its own instance from its config's seed, so results are identical for
// every worker count. workers <= 0 selects GOMAXPROCS.
func RunYCSBAllParallel(kinds []Kind, cfgs []YCSBConfig, workers int) (map[Kind][]YCSBResult, sweep.Report) {
	type job struct {
		k Kind
		c YCSBConfig
	}
	jobs := make([]job, 0, len(kinds)*len(cfgs))
	for _, k := range kinds {
		for _, c := range cfgs {
			jobs = append(jobs, job{k, c})
		}
	}
	results, rep := sweep.Run(len(jobs), workers, func(j int) YCSBResult {
		return RunYCSB(jobs[j].k, jobs[j].c)
	})
	out := make(map[Kind][]YCSBResult)
	for j, r := range results {
		out[jobs[j].k] = append(out[jobs[j].k], r)
	}
	return out, rep
}

// PrintFigure9 renders Figure 9.
func PrintFigure9(w io.Writer, results map[Kind][]YCSBResult) {
	fmt.Fprintln(w, "Figure 9: YCSB-load throughput (ops/sec) vs node count")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "system\tnodes\tops/sec\tlat-mean(us)\tlat-p50(us)\tlat-p99(us)\n")
	for _, k := range YCSBSystems {
		for _, r := range results[k] {
			s := r.Latency.Export()
			fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.1f\t%.1f\t%.1f\n",
				r.System, r.Nodes, r.OpsPerSec, us(s.Mean), us(s.P50), us(s.P99))
		}
	}
	tw.Flush()
}
