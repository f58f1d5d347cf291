package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/acuerdo"
	"acuerdo/internal/disk"
	"acuerdo/internal/kvstore"
	"acuerdo/internal/metrics"
	"acuerdo/internal/placement"
	"acuerdo/internal/rdma"
	"acuerdo/internal/ringbuf"
	"acuerdo/internal/simnet"
	"acuerdo/internal/sst"
	"acuerdo/internal/tcpnet"
	"acuerdo/internal/trace"
	"acuerdo/internal/ycsb"
)

// A kernel is a fixed-count loop over one layer's public API, in the shape
// of the repo's never-recorded microbenchmarks (BenchmarkEventDispatch,
// WRPost, TCPSend, RingBufferSend, SSTPush, LogInsert), sized with the
// workload's message size. setup builds the loop's world and returns the
// loop; the loop performs iters operations and returns the part of its host
// time that belongs to a second metric (aux: ringbuf's Poll share), which is
// reported on its own and subtracted from the first.
type kernel struct {
	layer string // the workload must use this layer, or the kernel reports 0
	iters int
	setup func(size int) func(iters int) (aux time.Duration)
	// Metric names: ns per op, allocs per op (optional), aux ns per op
	// (optional).
	ns, allocs, aux string
}

const kernelRuns = 5 // loops per kernel

var kernels = []kernel{
	{
		layer: "simnet", iters: 400_000, ns: "simnet.dispatch_host_ns", allocs: "simnet.dispatch_host_allocs",
		setup: func(int) func(int) time.Duration {
			s := simnet.New(1)
			n := 0
			fn := func() { n++ }
			return func(iters int) time.Duration {
				for i := 0; i < iters; i++ {
					s.After(time.Microsecond, fn)
					s.Step()
				}
				return 0
			}
		},
	},
	{
		layer: "rdma", iters: 40_000, ns: "rdma.post_host_ns", allocs: "rdma.post_host_allocs",
		setup: func(size int) func(int) time.Duration {
			sim := simnet.New(1)
			f := rdma.NewFabric(sim, rdma.DefaultParams())
			src, dst := f.AddNode("src"), f.AddNode("dst")
			qp := src.Connect(dst, rdma.NewCQ())
			mr := dst.RegisterMemory(4096)
			data := make([]byte, size)
			return func(iters int) time.Duration {
				for i := 0; i < iters; i++ {
					if _, err := qp.Write(mr, 0, data); err != nil {
						panic(err)
					}
					sim.RunFor(25 * time.Microsecond)
				}
				return 0
			}
		},
	},
	{
		layer: "tcpnet", iters: 40_000, ns: "tcpnet.send_host_ns",
		setup: func(size int) func(int) time.Duration {
			sim := simnet.New(1)
			n := tcpnet.New(sim, tcpnet.DefaultParams())
			conn := n.AddNode("src").Connect(n.AddNode("dst"), func([]byte) {})
			msg := make([]byte, size)
			return func(iters int) time.Duration {
				for i := 0; i < iters; i++ {
					conn.Send(msg)
					sim.RunFor(500 * time.Microsecond)
				}
				return 0
			}
		},
	},
	{
		layer: "ringbuf", iters: 100_000, ns: "ringbuf.send_host_ns", allocs: "ringbuf.send_host_allocs", aux: "ringbuf.poll_host_ns",
		setup: func(size int) func(int) time.Duration {
			sim := simnet.New(1)
			f := rdma.NewFabric(sim, rdma.DefaultParams())
			s := ringbuf.NewSender(f.AddNode("s"), ringbuf.DefaultConfig())
			r := s.AddPeer(f.AddNode("r"))
			payload := make([]byte, size)
			return func(iters int) time.Duration {
				var polling time.Duration
				for i := 1; i <= iters; i++ {
					if _, err := s.Send(1, payload); err != nil {
						panic(err)
					}
					if i%256 == 0 {
						sim.RunFor(time.Millisecond)
						t := time.Now()
						r.Poll(0)
						polling += time.Since(t)
						s.Release(1, r.Consumed())
					}
				}
				return polling
			}
		},
	},
	{
		layer: "sst", iters: 100_000, ns: "sst.push_host_ns",
		setup: func(int) func(int) time.Duration {
			sim := simnet.New(1)
			f := rdma.NewFabric(sim, rdma.DefaultParams())
			nodes := []*rdma.Node{f.AddNode("a"), f.AddNode("b"), f.AddNode("c")}
			tabs := sst.Build[acuerdo.MsgHdr](nodes, acuerdo.HdrCodec{})
			h := acuerdo.MsgHdr{E: acuerdo.Epoch{Round: 1, Ldr: 1}}
			return func(iters int) time.Duration {
				for i := 1; i <= iters; i++ {
					h.Cnt++
					tabs[0].Set(h)
					tabs[0].PushMine()
					if i%64 == 0 { // a commit-row push interval's worth, not a backlog no replica builds
						sim.RunFor(time.Millisecond)
					}
				}
				return 0
			}
		},
	},
	{
		layer: "acuerdo", iters: 400_000, ns: "acuerdo.log_insert_host_ns",
		setup: func(size int) func(int) time.Duration {
			var l acuerdo.Log
			e := acuerdo.Epoch{Round: 1, Ldr: 1}
			payload := make([]byte, size)
			cnt := uint32(0)
			return func(iters int) time.Duration {
				for i := 0; i < iters; i++ {
					cnt++
					l.Insert(acuerdo.Entry{Hdr: acuerdo.MsgHdr{E: e, Cnt: cnt}, Payload: payload})
					if l.Len() > 1<<16 {
						l.TrimBelow(acuerdo.MsgHdr{E: e, Cnt: cnt - 100})
					}
				}
				return 0
			}
		},
	},
	{
		// One op = one delivery: each id is broadcast once and delivered
		// at three replicas, the per-group shape of placement-16pg.
		layer: "abcast", iters: 300_000, ns: "abcast.checker_host_ns",
		setup: func(int) func(int) time.Duration {
			c := abcast.NewChecker(3)
			id := uint64(0)
			return func(iters int) time.Duration {
				for i := 0; i < iters; i += 3 {
					id++
					c.OnBroadcast(id)
					for node := 0; node < 3; node++ {
						if err := c.OnDeliver(node, id); err != nil {
							panic(err)
						}
					}
				}
				return 0
			}
		},
	},
	{
		// The acuerdo durable path: an entry append per commit, one group
		// commit per commit-row push.
		layer: "disk", iters: 100_000, ns: "disk.append_host_ns",
		setup: func(size int) func(int) time.Duration {
			sim := simnet.New(1)
			store := disk.NewLogStore(disk.NewDevice(sim, 0, disk.DefaultParams()), "kernel.wal")
			rec := acuerdo.EncodeMessage(acuerdo.MsgHdr{}, make([]byte, size))
			seq := uint64(0)
			return func(iters int) time.Duration {
				for i := 1; i <= iters; i++ {
					seq++
					store.AppendEntry(seq, 0, rec, nil)
					if i%64 == 0 {
						store.Flush(nil)
						sim.RunFor(100 * time.Microsecond)
					}
				}
				// Each loop starts from an empty file, so the device's
				// append cost does not grow across the five runs.
				store.Reset()
				return 0
			}
		},
	},
	{
		layer: "trace", iters: 2_000_000, ns: "trace.emit_host_ns",
		setup: func(int) func(int) time.Duration {
			tr := trace.New(trace.FingerprintRing)
			ts := int64(0)
			return func(iters int) time.Duration {
				for i := 0; i < iters; i++ {
					ts++
					tr.Instant(trace.KPoll, 1, ts, 0, 0)
				}
				return 0
			}
		},
	},
	{
		layer: "kvstore", iters: 200_000, ns: "kvstore.apply_host_ns",
		setup: func(size int) func(int) time.Duration {
			rm := kvstore.NewReplicated(nil, 1)
			ops := make([][]byte, 1024)
			for i := range ops {
				ops[i] = kvstore.Op{ID: uint64(i + 1), Kind: kvstore.OpSet, Key: fmt.Sprintf("user%016d", i), Value: make([]byte, size)}.Encode()
			}
			return func(iters int) time.Duration {
				for i := 0; i < iters; i++ {
					if err := rm.ApplyAt(0, ops[i%len(ops)]); err != nil {
						panic(err)
					}
				}
				return 0
			}
		},
	},
	{
		layer: "ycsb", iters: 1_000_000, ns: "ycsb.next_host_ns",
		setup: func(int) func(int) time.Duration {
			z := ycsb.NewZipfian(10000/16, 0.99) // one group's key shard
			rng := rand.New(rand.NewSource(1))
			return func(iters int) time.Duration {
				for i := 0; i < iters; i++ {
					z.Next(rng)
				}
				return 0
			}
		},
	},
	{
		layer: "metrics", iters: 1_000_000, ns: "metrics.hist_add_host_ns",
		setup: func(int) func(int) time.Duration {
			return func(iters int) time.Duration {
				var h metrics.Histogram
				for i := 0; i < iters; i++ {
					h.Add(time.Duration(i))
				}
				return 0
			}
		},
	},
}

// runKernel returns the fastest loop's host ns per op and aux ns per op and
// the median allocs per op over kernelRuns loops, after one untimed loop that
// fills free lists.
func runKernel(k kernel, size int, sp *spanLog) (ns, allocs, aux float64) {
	loop := k.setup(size)
	loop(k.iters / 10)
	var nss, allocss, auxs []float64
	for run := 0; run < kernelRuns; run++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		pop := sp.push(k.ns)
		a := loop(k.iters)
		d := pop()
		runtime.ReadMemStats(&m1)
		nss = append(nss, float64(d-a)/float64(k.iters))
		allocss = append(allocss, float64(m1.Mallocs-m0.Mallocs)/float64(k.iters))
		auxs = append(auxs, float64(a)/float64(k.iters))
	}
	_, allocs, _ = quartiles(allocss)
	return fastest(nss), allocs, fastest(auxs)
}

// placementBuildUS is the placement kernel: building the 16-group map.
func placementBuildUS(sp *spanLog) float64 {
	cfg := placement.DefaultConfig(16)
	var us []float64
	for run := 0; run < kernelRuns; run++ {
		pop := sp.push("placement.build_host_us")
		const iters = 20
		for i := 0; i < iters; i++ {
			if _, err := placement.Build(cfg); err != nil {
				panic(err)
			}
		}
		us = append(us, float64(pop())/1e3/iters)
	}
	return fastest(us)
}
