package chaos

import (
	"math/rand"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/disk"
	"acuerdo/internal/simnet"
)

// GroupTarget is the Target over one replica group: the group's own
// lifecycle surface, its interconnect's link faults, and (in durable
// worlds) its per-replica disks. Link actions arrive in replica-index space
// and are translated to interconnect node ids here, so plans are portable
// across systems whose node-id layouts differ.
type GroupTarget struct {
	Group abcast.Group
	Links *simnet.Links
	// Disks holds one device per replica, or nil for a volatile group, on
	// which every disk action is a no-op.
	Disks []*disk.Device
	// Rand draws the bit DiskCorrupt flips (the simulator's seeded source).
	Rand *rand.Rand
	// BeforeRestart and AfterCrash, when non-nil, run around the group's
	// own recovery and crash paths. Harnesses hook them to open a safety
	// checker's replay window or to wipe the victim's disk (amnesia).
	BeforeRestart func(i int)
	AfterCrash    func(i int)
}

// Replicas implements Target.
func (t *GroupTarget) Replicas() int { return t.Group.Size() }

// Leader implements Target.
func (t *GroupTarget) Leader() int { return t.Group.LeaderIdx() }

// Crash implements Target.
func (t *GroupTarget) Crash(i int) {
	t.Group.Crash(i)
	if t.AfterCrash != nil {
		t.AfterCrash(i)
	}
}

// Restart implements Target.
func (t *GroupTarget) Restart(i int) {
	if t.BeforeRestart != nil {
		t.BeforeRestart(i)
	}
	t.Group.Restart(i)
}

// Pause implements Target.
func (t *GroupTarget) Pause(i int, d time.Duration) { t.Group.Proc(i).Pause(d) }

// CutOneWay implements Target.
func (t *GroupTarget) CutOneWay(i, j int) {
	t.Links.PartitionOneWay(t.Group.NodeID(i), t.Group.NodeID(j))
}

// HealOneWay implements Target.
func (t *GroupTarget) HealOneWay(i, j int) {
	t.Links.HealOneWay(t.Group.NodeID(i), t.Group.NodeID(j))
}

// SetLoss implements Target.
func (t *GroupTarget) SetLoss(i, j int, p float64) {
	t.Links.SetLoss(t.Group.NodeID(i), t.Group.NodeID(j), p)
}

// SetLatencySpike implements Target.
func (t *GroupTarget) SetLatencySpike(i, j int, d time.Duration) {
	t.Links.SetLatencySpike(t.Group.NodeID(i), t.Group.NodeID(j), d)
}

// DiskStall implements Target.
func (t *GroupTarget) DiskStall(i int, d time.Duration) {
	if t.Disks != nil {
		t.Disks[i].StallFsync(d)
	}
}

// DiskTorn implements Target.
func (t *GroupTarget) DiskTorn(i int) {
	if t.Disks != nil {
		t.Disks[i].ArmTornWrite()
	}
}

// DiskCorrupt implements Target.
func (t *GroupTarget) DiskCorrupt(i int) {
	if t.Disks != nil {
		t.Disks[i].CorruptDurable(t.Rand)
	}
}

// DiskFull implements Target.
func (t *GroupTarget) DiskFull(i int, on bool) {
	if t.Disks != nil {
		t.Disks[i].SetFull(on)
	}
}

var _ Target = (*GroupTarget)(nil)
