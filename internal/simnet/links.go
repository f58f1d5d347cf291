package simnet

import (
	"time"

	"acuerdo/internal/trace"
)

// Links is what the simulated interconnects (rdma.Fabric, tcpnet.Net) share
// by embedding it: the link-fault table and the queued-CPU hand-out for
// their AddNode calls.
//
// Faults are directed: every cut, loss window and latency spike applies to
// one direction of a link, keyed by (from, to) node id; the symmetric calls
// are two-call conveniences. Neither transport drops or reorders data, so a
// cut parks traffic in the transport (flushed by its heal hook) and a lost
// transmission costs a retransmission delay.
type Links struct {
	sim    *Sim
	onHeal func(a, b int)
	// faults holds the directions with any fault installed, keyed [from,
	// to]; a direction whose faults all clear leaves it, so a fault-free
	// fabric's table is empty and its transports skip the lookup.
	faults map[[2]int]linkFault

	procs []*Proc // queued by ProvideProcs for the next NextProc calls
}

// linkFault is one direction's installed faults.
type linkFault struct {
	cut   bool          // partitioned
	loss  float64       // loss probability window, 0 when none
	spike time.Duration // extra-latency window, 0 when none
}

// NewLinks creates an empty table. onHeal runs whenever a cut a→b direction
// is restored: the transport flushes the traffic it parked on it there.
func NewLinks(sim *Sim, onHeal func(a, b int)) *Links {
	return &Links{sim: sim, onHeal: onHeal, faults: make(map[[2]int]linkFault)}
}

// fault returns the a→b direction's faults, zero when none is installed.
func (l *Links) fault(a, b int) linkFault {
	if len(l.faults) == 0 {
		return linkFault{}
	}
	return l.faults[[2]int{a, b}]
}

// set installs f on the a→b direction, or removes the direction when f
// holds no fault.
func (l *Links) set(a, b int, f linkFault) {
	if f == (linkFault{}) {
		delete(l.faults, [2]int{a, b})
	} else {
		l.faults[[2]int{a, b}] = f
	}
}

// ProvideProcs queues CPUs for the next len(procs) NextProc calls, in order.
// The placement layer lands each ring replica on its fleet node's CPU this
// way: co-located replicas of different rings then serialize on the shared
// core, the contention a real multi-group deployment pays.
func (l *Links) ProvideProcs(procs []*Proc) {
	l.procs = append(l.procs, procs...)
}

// NextProc returns the CPU for the interconnect's next node: the next queued
// one or, beyond the queue (a cluster's client node), a fresh Proc.
func (l *Links) NextProc(id int, name string) *Proc {
	if len(l.procs) > 0 {
		p := l.procs[0]
		l.procs = l.procs[1:]
		return p
	}
	return NewProc(l.sim, id, name)
}

// Partition cuts both directions of the link between nodes a and b.
func (l *Links) Partition(a, b int) {
	l.PartitionOneWay(a, b)
	l.PartitionOneWay(b, a)
}

// Heal restores both directions of the a-b link.
func (l *Links) Heal(a, b int) {
	l.HealOneWay(a, b)
	l.HealOneWay(b, a)
}

// PartitionOneWay cuts the a→b direction only; b→a traffic is unaffected —
// the asymmetric failure that breaks failure detectors which assume "I can
// reach you" implies "you can reach me".
func (l *Links) PartitionOneWay(a, b int) {
	f := l.fault(a, b)
	if f.cut {
		return
	}
	f.cut = true
	l.set(a, b, f)
	if tr := l.sim.Tracer(); tr != nil {
		tr.Instant(trace.KLinkCut, a, int64(l.sim.Now()), int64(a), int64(b))
		tr.Add(trace.CtrLinkCuts, 1)
	}
}

// HealOneWay restores the a→b direction and runs the heal hook.
func (l *Links) HealOneWay(a, b int) {
	f := l.fault(a, b)
	if !f.cut {
		return
	}
	f.cut = false
	l.set(a, b, f)
	if tr := l.sim.Tracer(); tr != nil {
		tr.Instant(trace.KLinkHeal, a, int64(l.sim.Now()), int64(a), int64(b))
		tr.Add(trace.CtrLinkHeals, 1)
	}
	l.onHeal(a, b)
}

// Partitioned reports whether either direction of the a-b link is cut.
func (l *Links) Partitioned(a, b int) bool {
	return l.CutOneWay(a, b) || l.CutOneWay(b, a)
}

// CutOneWay reports whether the a→b direction is cut.
func (l *Links) CutOneWay(a, b int) bool { return l.fault(a, b).cut }

// SetLossOneWay installs (or, with p <= 0, clears) a loss window on the a→b
// direction: each transmission attempt is lost with probability p and costs
// the transport's retransmit delay (see FaultDelay).
func (l *Links) SetLossOneWay(a, b int, p float64) {
	f := l.fault(a, b)
	f.loss = max(p, 0)
	l.set(a, b, f)
}

// SetLoss installs or clears a loss window on both directions of a-b.
func (l *Links) SetLoss(a, b int, p float64) {
	l.SetLossOneWay(a, b, p)
	l.SetLossOneWay(b, a, p)
}

// SetLatencySpikeOneWay adds d of extra one-way latency to every message on
// the a→b direction (d <= 0 clears the spike).
func (l *Links) SetLatencySpikeOneWay(a, b int, d time.Duration) {
	d = max(d, 0)
	f := l.fault(a, b)
	f.spike = d
	l.set(a, b, f)
	if tr := l.sim.Tracer(); tr != nil {
		tr.Instant(trace.KLatSpike, a, int64(l.sim.Now()), int64(d), int64(b))
	}
}

// SetLatencySpike adds or clears a latency spike on both directions of a-b.
func (l *Links) SetLatencySpike(a, b int, d time.Duration) {
	l.SetLatencySpikeOneWay(a, b, d)
	l.SetLatencySpikeOneWay(b, a, d)
}

// maxRetransmits caps the attempts charged per message, so a p=1 loss window
// stalls a link by a bounded, deterministic amount.
const maxRetransmits = 16

// FaultDelay returns the extra one-way latency the active spike and loss
// windows inject on from→to, charging retransmit per lost attempt. It draws
// simulator randomness only while a loss window is installed on that
// direction, so chaos-free runs keep the random stream they always had.
func (l *Links) FaultDelay(from, to int, retransmit time.Duration) time.Duration {
	var d time.Duration
	f := l.fault(from, to)
	if ex := f.spike; ex > 0 {
		d += ex
		if tr := l.sim.Tracer(); tr != nil {
			tr.Add(trace.CtrSpikeDelay, int64(ex))
		}
	}
	if p := f.loss; p > 0 {
		for i := 0; i < maxRetransmits && l.sim.Rand().Float64() < p; i++ {
			d += retransmit
			if tr := l.sim.Tracer(); tr != nil {
				tr.Instant(trace.KLossDrop, from, int64(l.sim.Now()), int64(retransmit), int64(to))
				tr.Add(trace.CtrLossDrops, 1)
				tr.Add(trace.CtrLossDelay, int64(retransmit))
			}
		}
	}
	return d
}
