// Package acuerdobench holds the top-level benchmark suite: one benchmark
// per table and figure in the paper's evaluation (§4), the ablations called
// out in DESIGN.md §8, and micro-benchmarks of the substrates.
//
// Each benchmark iteration runs a complete simulated experiment; reported
// custom metrics (MB/s, msg/s, latency in microseconds, election ms,
// ops/sec) are the paper's units. Wall-clock ns/op only measures simulator
// speed and is not the experiment's result.
//
//	go test -bench=. -benchmem
package acuerdobench

import (
	"fmt"
	"testing"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/acuerdo"
	"acuerdo/internal/bench"
	"acuerdo/internal/rdma"
	"acuerdo/internal/ringbuf"
	"acuerdo/internal/simnet"
	"acuerdo/internal/sst"
)

// benchFig8 runs one (system, nodes, size) cell at a low-load and a
// high-load window and reports the paper's metrics.
func benchFig8(b *testing.B, kind bench.Kind, nodes, size int) {
	b.Helper()
	cfg := bench.DefaultFig8(nodes, size)
	cfg.Windows = []int{1, 64}
	cfg.Measure = 10 * time.Millisecond
	var low, high abcast.LoadResult
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, _ := bench.Figure8Parallel(cfg, []bench.Kind{kind}, 1)
		low, high = res[kind][0], res[kind][1]
	}
	b.ReportMetric(us(low.Latency.Mean()), "lat-us(w=1)")
	b.ReportMetric(us(low.Latency.Percentile(99)), "p99-us(w=1)")
	b.ReportMetric(high.MBPerSec, "MB/s(w=64)")
	b.ReportMetric(high.MsgsPerSec, "msg/s(w=64)")
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func benchFigure8(b *testing.B, nodes, size int) {
	for _, k := range bench.AllKinds {
		k := k
		b.Run(string(k), func(b *testing.B) { benchFig8(b, k, nodes, size) })
	}
}

// BenchmarkFigure8a: 3 nodes, 10-byte messages.
func BenchmarkFigure8a(b *testing.B) { benchFigure8(b, 3, 10) }

// BenchmarkFigure8b: 3 nodes, 1000-byte messages.
func BenchmarkFigure8b(b *testing.B) { benchFigure8(b, 3, 1000) }

// BenchmarkFigure8c: 7 nodes, 10-byte messages.
func BenchmarkFigure8c(b *testing.B) { benchFigure8(b, 7, 10) }

// BenchmarkFigure8d: 7 nodes, 1000-byte messages.
func BenchmarkFigure8d(b *testing.B) { benchFigure8(b, 7, 1000) }

// BenchmarkTable1 measures Acuerdo election duration per replica count.
func BenchmarkTable1(b *testing.B) {
	for _, n := range []int{3, 5, 7, 9} {
		n := n
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			var avg time.Duration
			for i := 0; i < b.N; i++ {
				cfg := bench.DefaultElection(n)
				cfg.Rounds = 10
				cfg.Seed = int64(i + 1)
				avg = bench.ElectionBench(cfg).Avg()
			}
			b.ReportMetric(float64(avg)/1e6, "election-ms")
		})
	}
}

// BenchmarkFigure9 measures YCSB-load ops/sec per system and node count.
func BenchmarkFigure9(b *testing.B) {
	for _, k := range bench.YCSBSystems {
		for _, n := range []int{3, 5, 7, 9} {
			k, n := k, n
			b.Run(fmt.Sprintf("%s/nodes=%d", k, n), func(b *testing.B) {
				var r bench.PlacementResult
				for i := 0; i < b.N; i++ {
					cfg := bench.Figure9(k, n)
					cfg.Measure = 15 * time.Millisecond
					cfg.Seed = int64(i + 1)
					r = bench.RunPlacementYCSB(cfg)
				}
				b.ReportMetric(r.OpsPerSec, "ops/s")
				b.ReportMetric(us(r.Latency.Mean()), "lat-us")
			})
		}
	}
}

// --- ablations (DESIGN.md §8) ---

func benchAcuerdoVariant(b *testing.B, mutate func(*acuerdo.Config)) {
	b.Helper()
	cfgR := acuerdo.DefaultConfig()
	if mutate != nil {
		mutate(&cfgR)
	}
	f8 := bench.DefaultFig8(3, 10)
	f8.Windows = []int{1, 64}
	f8.Measure = 10 * time.Millisecond
	var low, high abcast.LoadResult
	for i := 0; i < b.N; i++ {
		var res []abcast.LoadResult
		for j, w := range f8.Windows {
			inst := bench.NewInstance(bench.Acuerdo, 3, int64(i*10+j+1), bench.Options{AcuerdoConfig: &cfgR})
			res = append(res, abcast.RunClosedLoop(inst.Sim, inst.Sys, abcast.LoadConfig{
				Window: w, MsgSize: 10, Warmup: f8.Warmup, Measure: f8.Measure,
			}))
		}
		low, high = res[0], res[1]
	}
	b.ReportMetric(us(low.Latency.Mean()), "lat-us(w=1)")
	b.ReportMetric(high.MBPerSec, "MB/s(w=64)")
}

// BenchmarkAblationAckEvery isolates the FIFO implicit-ack optimization:
// pushing the acceptance SST per message (Zab-style explicit acks) instead
// of once per receiver-side batch. A coarser follower event loop (4us)
// makes batches several messages deep, which is where the optimization
// pays: followers post far fewer acknowledgment writes per message.
func BenchmarkAblationAckEvery(b *testing.B) {
	run := func(b *testing.B, every bool) {
		var res abcast.LoadResult
		var pushesPerMsg float64
		for i := 0; i < b.N; i++ {
			cfg := acuerdo.DefaultConfig()
			cfg.PollInterval = 4 * time.Microsecond
			cfg.AckEveryMessage = every
			inst := bench.NewInstance(bench.Acuerdo, 3, int64(i+1), bench.Options{AcuerdoConfig: &cfg})
			res = abcast.RunClosedLoop(inst.Sim, inst.Sys, abcast.LoadConfig{
				Window: 64, MsgSize: 10,
				Warmup: 2 * time.Millisecond, Measure: 10 * time.Millisecond,
			})
			var pushes, accepted uint64
			for _, r := range inst.AcuerdoCluster.Replicas {
				if !r.IsLeader() {
					pushes += r.Stats.SSTPushes
					accepted += r.Stats.Accepted
				}
			}
			if accepted > 0 {
				pushesPerMsg = float64(pushes) / float64(accepted)
			}
		}
		b.ReportMetric(res.MBPerSec, "MB/s")
		b.ReportMetric(us(res.Latency.Mean()), "lat-us")
		b.ReportMetric(pushesPerMsg, "ack-pushes/msg")
	}
	b.Run("batched-acks", func(b *testing.B) { run(b, false) })
	b.Run("ack-every-message", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationSlotReuse isolates the ring-slot reuse policy: reuse on
// acceptance (Acuerdo) versus only after commit at all nodes (Derecho's
// policy). A small ring plus one periodically-pausing follower shows the
// difference: with commit-based release, the slow node's stalled commits
// freeze slot recycling toward *everyone*, so even the fast quorum stalls.
func BenchmarkAblationSlotReuse(b *testing.B) {
	run := func(b *testing.B, onCommit bool) {
		var res abcast.LoadResult
		for i := 0; i < b.N; i++ {
			cfg := acuerdo.DefaultConfig()
			cfg.RingBytes = 16 << 10
			cfg.ReleaseOnCommit = onCommit
			inst := bench.NewInstance(bench.Acuerdo, 3, int64(i+1), bench.Options{AcuerdoConfig: &cfg})
			ldr := inst.AcuerdoCluster.LeaderIdx()
			victim := inst.AcuerdoCluster.Replicas[(ldr+1)%3].Node
			victim.Proc.SetDesched(&simnet.DeschedConfig{
				Interval: simnet.Constant{D: 6 * time.Millisecond},
				Pause:    simnet.Constant{D: 2 * time.Millisecond},
			})
			res = abcast.RunClosedLoop(inst.Sim, inst.Sys, abcast.LoadConfig{
				Window: 16, MsgSize: 10,
				Warmup: 2 * time.Millisecond, Measure: 20 * time.Millisecond,
			})
		}
		b.ReportMetric(us(res.Latency.Mean()), "lat-us")
		b.ReportMetric(us(res.Latency.Max()), "max-us")
		b.ReportMetric(res.MsgsPerSec, "msg/s")
	}
	b.Run("release-on-accept", func(b *testing.B) { run(b, false) })
	b.Run("release-on-commit", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationTwoWrite isolates the coupled metadata+data write: one
// ring write per message (Acuerdo) versus a separate data write and counter
// write (Derecho's format) — the 2x small-message bandwidth claim.
func BenchmarkAblationTwoWrite(b *testing.B) {
	b.Run("one-write", func(b *testing.B) { benchAcuerdoVariant(b, nil) })
	b.Run("two-writes", func(b *testing.B) {
		benchAcuerdoVariant(b, func(c *acuerdo.Config) { c.TwoWriteRing = true })
	})
}

// BenchmarkAblationSlowNode isolates quorum commit vs all-node commit: one
// follower of three suffers periodic 200us pauses; Acuerdo commits at the
// fastest quorum's speed while Derecho-leader waits for the slow node.
func BenchmarkAblationSlowNode(b *testing.B) {
	run := func(b *testing.B, kind bench.Kind) {
		var res abcast.LoadResult
		for i := 0; i < b.N; i++ {
			inst := bench.NewInstance(kind, 3, int64(i+1), bench.Options{})
			// Periodically pause one non-leader node.
			var victim *rdma.Node
			switch kind {
			case bench.Acuerdo:
				ldr := inst.AcuerdoCluster.LeaderIdx()
				victim = inst.AcuerdoCluster.Replicas[(ldr+1)%3].Node
			default:
				victim = nil
			}
			if victim != nil {
				victim.Proc.SetDesched(&simnet.DeschedConfig{
					Interval: simnet.Constant{D: time.Millisecond},
					Pause:    simnet.Constant{D: 200 * time.Microsecond},
				})
			}
			res = abcast.RunClosedLoop(inst.Sim, inst.Sys, abcast.LoadConfig{
				Window: 16, MsgSize: 10,
				Warmup: 2 * time.Millisecond, Measure: 10 * time.Millisecond,
			})
		}
		b.ReportMetric(us(res.Latency.Mean()), "lat-us")
		b.ReportMetric(us(res.Latency.Percentile(99)), "p99-us")
		b.ReportMetric(res.MsgsPerSec, "msg/s")
	}
	b.Run("acuerdo-slow-follower", func(b *testing.B) { run(b, bench.Acuerdo) })
	b.Run("derecho-leader-slow-member", func(b *testing.B) { runDerechoSlow(b) })
}

func runDerechoSlow(b *testing.B) {
	var res abcast.LoadResult
	for i := 0; i < b.N; i++ {
		inst := bench.NewInstance(bench.DerechoLeader, 3, int64(i+1), bench.Options{})
		// Member 2 is never the leader-mode sender (member 0 is).
		// Pauses stay well below the 4ms failure timeout, so no view
		// change happens: the group simply waits, per virtual synchrony.
		inst.Group.Proc(2).SetDesched(&simnet.DeschedConfig{
			Interval: simnet.Constant{D: time.Millisecond},
			Pause:    simnet.Constant{D: 200 * time.Microsecond},
		})
		res = abcast.RunClosedLoop(inst.Sim, inst.Sys, abcast.LoadConfig{
			Window: 16, MsgSize: 10,
			Warmup: 2 * time.Millisecond, Measure: 10 * time.Millisecond,
		})
	}
	b.ReportMetric(us(res.Latency.Mean()), "lat-us")
	b.ReportMetric(us(res.Latency.Percentile(99)), "p99-us")
	b.ReportMetric(res.MsgsPerSec, "msg/s")
}

// --- substrate micro-benchmarks ---

// BenchmarkSimEventThroughput measures raw simulator event processing.
func BenchmarkSimEventThroughput(b *testing.B) {
	sim := simnet.New(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		sim.After(100, tick)
	}
	tick()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkRingBufferSend measures ring-buffer sends through the simulated
// fabric (one write per message).
func BenchmarkRingBufferSend(b *testing.B) {
	sim := simnet.New(1)
	f := rdma.NewFabric(sim, rdma.DefaultParams())
	s := ringbuf.NewSender(f.AddNode("s"), ringbuf.DefaultConfig())
	r := s.AddPeer(f.AddNode("r"))
	payload := make([]byte, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Send(1, payload); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 0 {
			sim.RunFor(time.Millisecond)
			r.Poll(0)
			s.Release(1, r.Consumed())
		}
	}
}

// BenchmarkSSTPush measures shared-state-table row pushes.
func BenchmarkSSTPush(b *testing.B) {
	sim := simnet.New(1)
	f := rdma.NewFabric(sim, rdma.DefaultParams())
	nodes := []*rdma.Node{f.AddNode("a"), f.AddNode("b"), f.AddNode("c")}
	tabs := sst.Build[acuerdo.MsgHdr](nodes, acuerdo.HdrCodec{})
	h := acuerdo.MsgHdr{E: acuerdo.Epoch{Round: 1, Ldr: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Cnt = uint32(i)
		tabs[0].Set(h)
		tabs[0].PushMine()
		if i%4096 == 0 {
			sim.RunFor(time.Millisecond)
		}
	}
}

// BenchmarkLogInsert measures the ordered-log append path.
func BenchmarkLogInsert(b *testing.B) {
	var l acuerdo.Log
	e := acuerdo.Epoch{Round: 1, Ldr: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(acuerdo.Entry{Hdr: acuerdo.MsgHdr{E: e, Cnt: uint32(i + 1)}})
		if l.Len() > 1<<16 {
			l.TrimBelow(acuerdo.MsgHdr{E: e, Cnt: uint32(i - 100)})
		}
	}
}
