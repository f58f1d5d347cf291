package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

// layerCounts are the counters the layers keep themselves (outside the
// tracer), summed over a world. A workload that lacks a layer leaves its
// fields zero.
type layerCounts struct {
	sstPushes, accepts, broadcasts, elections uint64 // acuerdo.Replica.Stats, all replicas
	diskWrites, diskFsyncs, diskFsyncBytes    int64  // disk.Device.Stats, all devices
	obsChecks                                 uint64 // observe.Observer.Checks
	diskRecovered, fabricRecovery             int64  // Instance recovery accounting
}

// snapshot is the state of both clocks at one instant of a rep.
type snapshot struct {
	wall     time.Time
	simNow   simnet.Time
	events   uint64
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	cpu      time.Duration // process user+system time (getrusage)
	gcCPU    float64       // seconds, runtime/metrics
	totalCPU float64
	ctr      [trace.NumCounters]int64
	emitted  uint64          // trace events emitted
	busy     []time.Duration // Proc.BusyTime per sim.Procs() entry
	layers   layerCounts
}

// probe brackets the measured phase of a rep. The harness functions the
// benchmark drives (abcast.RunClosedLoop, bench.RunPlacementLoad) run their
// warm-up and measured phases inside one call, so the probe plants two
// marker events on the simulator at the phase boundaries and snapshots both
// clocks when they fire. Marker events read no simulated state and draw no
// randomness, so they leave every simulated result as it was.
type probe struct {
	sim    *simnet.Sim
	layers func() layerCounts // nil when the world has none to report
	b, e   snapshot
}

// arm plants the markers warmup and warmup+measure after the current
// simulated time.
func (p *probe) arm(warmup, measure time.Duration) {
	p.sim.After(warmup, p.begin)
	p.sim.After(warmup+measure, p.end)
}

func (p *probe) begin() {
	p.b = p.snap()
	p.b.wall = time.Now() // after the snapshot's own cost
}

func (p *probe) end() {
	now := time.Now() // before the snapshot's own cost
	p.e = p.snap()
	p.e.wall = now
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func (p *probe) snap() snapshot {
	var s snapshot
	s.simNow = p.sim.Now()
	s.events = p.sim.Processed()
	if tr := p.sim.Tracer(); tr != nil {
		for c := range s.ctr {
			s.ctr[c] = tr.Counter(trace.Counter(c))
		}
		s.emitted = tr.Emitted()
	}
	for _, pr := range p.sim.Procs() {
		s.busy = append(s.busy, pr.BusyTime())
	}
	if p.layers != nil {
		s.layers = p.layers()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs, s.bytes, s.gcCycles = ms.Mallocs, ms.TotalAlloc, ms.NumGC
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	metrics.Read(cpuSamples)
	s.gcCPU, s.totalCPU = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	return s
}

// ctrDelta is a tracer counter's growth over the measured phase.
func (p *probe) ctrDelta(c trace.Counter) float64 { return float64(p.e.ctr[c] - p.b.ctr[c]) }

// busyMaxFrac is the busiest simulated CPU's share of the measured phase.
// Procs created after the phase began are ignored (none are, in these
// worlds).
func (p *probe) busyMaxFrac() float64 {
	elapsed := p.e.simNow.Sub(p.b.simNow)
	if elapsed <= 0 {
		return 0
	}
	var max time.Duration
	for i := range p.b.busy {
		if d := p.e.busy[i] - p.b.busy[i]; d > max {
			max = d
		}
	}
	return float64(max) / float64(elapsed)
}
