package chaos

import (
	"math/rand"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/disk"
	"acuerdo/internal/simnet"
)

// Member is one replica group of a Fleet: the group's own lifecycle
// surface, its interconnect's link faults, and (in durable worlds) its
// per-replica disks.
type Member struct {
	Group abcast.Group
	Links *simnet.Links
	// Disks holds one device per replica, or nil for a volatile group, on
	// which every disk action is a no-op.
	Disks []*disk.Device
	// BeforeRestart and AfterCrash, when non-nil, run around the group's
	// own recovery and crash paths. Harnesses hook them to open a safety
	// checker's replay window or to wipe the victim's disk (amnesia).
	BeforeRestart func(i int)
	AfterCrash    func(i int)
}

// Fleet is the one Target: replica groups hosted on a fleet of nodes, each
// node one CPU its co-hosted replicas time-share. Plan indices are fleet
// nodes, and every action fans out to the replicas a node hosts — crashing
// node k crashes each of them through its own group's crash path (a shared
// CPU's crash kills every poll loop on it, so a partial crash would leave
// sibling replicas as zombies). Link actions reach only intra-group links,
// translated to each interconnect's node ids here, so plans are portable
// across systems whose node-id layouts differ. A single group is the fleet
// whose node i hosts replica i (OneGroup).
type Fleet struct {
	Members []*Member
	// Hosts[g][r] is the fleet node replica r of Members[g] runs on.
	Hosts [][]int
	// Procs holds one CPU per fleet node.
	Procs []*simnet.Proc
	// Rand draws the bit DiskCorrupt flips (the simulator's seeded source).
	Rand *rand.Rand
}

// OneGroup returns the fleet of m alone: node i hosts replica i on the
// replica's own CPU.
func OneGroup(m *Member, rng *rand.Rand) *Fleet {
	n := m.Group.Size()
	f := &Fleet{Members: []*Member{m}, Hosts: [][]int{make([]int, n)}, Procs: make([]*simnet.Proc, n), Rand: rng}
	for i := range f.Procs {
		f.Hosts[0][i], f.Procs[i] = i, m.Group.Proc(i)
	}
	return f
}

// hosted applies fn to every replica fleet node k hosts, in member order.
func (f *Fleet) hosted(k int, fn func(m *Member, r int)) {
	for g, hosts := range f.Hosts {
		for r, node := range hosts {
			if node == k {
				fn(f.Members[g], r)
			}
		}
	}
}

// links applies fn to every intra-group link from a replica on fleet node i
// to one on node j, as interconnect node ids. Groups never talk across
// rings, so these are the only links a fleet-level link fault can touch.
func (f *Fleet) links(i, j int, fn func(l *simnet.Links, from, to int)) {
	for g, hosts := range f.Hosts {
		m := f.Members[g]
		for ri, ni := range hosts {
			for rj, nj := range hosts {
				if ni == i && nj == j && ri != rj {
					fn(m.Links, m.Group.NodeID(ri), m.Group.NodeID(rj))
				}
			}
		}
	}
}

// disks applies fn to the disk of every replica fleet node k hosts; volatile
// members have none.
func (f *Fleet) disks(k int, fn func(d *disk.Device)) {
	f.hosted(k, func(m *Member, r int) {
		if m.Disks != nil {
			fn(m.Disks[r])
		}
	})
}

// Replicas implements Target: the fleet size.
func (f *Fleet) Replicas() int { return len(f.Procs) }

// Leader implements Target: the fleet node hosting the first member's
// leader — a multi-group storm's designated victim group.
func (f *Fleet) Leader() int {
	li := f.Members[0].Group.LeaderIdx()
	if li < 0 {
		return -1
	}
	return f.Hosts[0][li]
}

// Crash implements Target.
func (f *Fleet) Crash(k int) {
	f.hosted(k, func(m *Member, r int) {
		m.Group.Crash(r)
		if m.AfterCrash != nil {
			m.AfterCrash(r)
		}
	})
}

// Restart implements Target.
func (f *Fleet) Restart(k int) {
	f.hosted(k, func(m *Member, r int) {
		if m.BeforeRestart != nil {
			m.BeforeRestart(r)
		}
		m.Group.Restart(r)
	})
}

// Pause implements Target: every co-hosted replica stalls at once.
func (f *Fleet) Pause(k int, d time.Duration) { f.Procs[k].Pause(d) }

// CutOneWay implements Target.
func (f *Fleet) CutOneWay(i, j int) { f.links(i, j, (*simnet.Links).PartitionOneWay) }

// HealOneWay implements Target.
func (f *Fleet) HealOneWay(i, j int) { f.links(i, j, (*simnet.Links).HealOneWay) }

// SetLoss implements Target.
func (f *Fleet) SetLoss(i, j int, p float64) {
	f.links(i, j, func(l *simnet.Links, from, to int) { l.SetLoss(from, to, p) })
}

// SetLatencySpike implements Target.
func (f *Fleet) SetLatencySpike(i, j int, d time.Duration) {
	f.links(i, j, func(l *simnet.Links, from, to int) { l.SetLatencySpike(from, to, d) })
}

// DiskStall implements Target.
func (f *Fleet) DiskStall(k int, d time.Duration) {
	f.disks(k, func(dev *disk.Device) { dev.StallFsync(d) })
}

// DiskTorn implements Target.
func (f *Fleet) DiskTorn(k int) { f.disks(k, (*disk.Device).ArmTornWrite) }

// DiskCorrupt implements Target.
func (f *Fleet) DiskCorrupt(k int) {
	f.disks(k, func(dev *disk.Device) { dev.CorruptDurable(f.Rand) })
}

var _ Target = (*Fleet)(nil)
