// Command acuerdo-sim runs a single interactive Acuerdo scenario and prints
// a protocol-level trace: elections, broadcasts, commits, and (optionally) a
// leader failure mid-run. It is the quickest way to watch the protocol work.
//
// Usage:
//
//	acuerdo-sim                      # 3 nodes, 20 messages, no failure
//	acuerdo-sim -nodes 5 -msgs 50 -kill-leader
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/acuerdo"
	"acuerdo/internal/rdma"
	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

func main() {
	nodes := flag.Int("nodes", 3, "replica count (odd)")
	msgs := flag.Int("msgs", 20, "messages to broadcast")
	kill := flag.Bool("kill-leader", false, "crash the leader halfway through")
	seed := flag.Int64("seed", 1, "simulation seed")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the run to this file")
	flag.Parse()

	sim := simnet.New(*seed)
	var tr *trace.Tracer
	if *traceOut != "" {
		tr = trace.New(trace.DefaultRing)
		sim.SetTracer(tr)
	}
	fabric := rdma.NewFabric(sim, rdma.DefaultParams())
	c := acuerdo.NewCluster(sim, fabric, acuerdo.DefaultClusterConfig(*nodes))

	for i, r := range c.Replicas {
		i, r := i, r
		r.OnElected = func(e acuerdo.Epoch) {
			fmt.Printf("%12v  node %d wins election, leads epoch %v (election took %v)\n",
				sim.Now(), i, e, r.ElectionTook)
		}
	}
	c.OnDeliver = func(replica int, hdr acuerdo.MsgHdr, payload []byte) {
		if replica == 0 || replica == c.LeaderIdx() {
			fmt.Printf("%12v  node %d delivers %v (msg id %d)\n",
				sim.Now(), replica, hdr, abcast.MsgID(payload))
		}
	}
	c.Start()
	sim.RunFor(20 * time.Millisecond)
	fmt.Printf("%12v  initial leader: node %d, epoch %v\n",
		sim.Now(), c.LeaderIdx(), c.Leader().Epoch())

	committed := 0
	for i := 1; i <= *msgs; i++ {
		payload := make([]byte, 16)
		abcast.PutMsgID(payload, uint64(i))
		sent := sim.Now()
		i := i
		c.Submit(payload, func() {
			committed++
			fmt.Printf("%12v  client sees msg %d committed (%v)\n", sim.Now(), i, sim.Now().Sub(sent))
		})
		sim.RunFor(50 * time.Microsecond)
		if *kill && i == *msgs/2 {
			ldr := c.LeaderIdx()
			fmt.Printf("%12v  *** crashing leader node %d ***\n", sim.Now(), ldr)
			c.Replicas[ldr].Crash()
			sim.RunFor(30 * time.Millisecond)
		}
	}
	sim.RunFor(30 * time.Millisecond)
	fmt.Printf("\n%d of %d messages committed; final leader node %d in epoch %v\n",
		committed, *msgs, c.LeaderIdx(), c.Leader().Epoch())
	for i, r := range c.Replicas {
		st := r.Stats
		fmt.Printf("node %d: role=%v delivered=%d accepted=%d broadcasts=%d elections=%d\n",
			i, r.Role(), st.Delivered, st.Accepted, st.Broadcasts, st.Elections)
	}
	if tr != nil {
		fmt.Println()
		fmt.Println("layer counters:")
		tr.WriteCounters(os.Stdout)
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := tr.WriteChrome(f); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote Chrome trace to %s (open in Perfetto or chrome://tracing)\n", *traceOut)
	}
}
