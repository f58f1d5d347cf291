package chaos

import (
	"fmt"
	"math/rand"
	"time"
)

// Scenario is a named plan generator. Build draws every random choice
// (which link flakes, which node pauses) from rng — the simulator's seeded
// generator — so the same seed always yields the same schedule.
type Scenario struct {
	Name  string
	Build func(rng *rand.Rand, n int, horizon time.Duration) Plan
}

// LeaderKillStorm kills whoever leads at each strike and restarts the
// victim downFor later, with strikes interval apart until the horizon.
// This is the recovery benchmark's canonical scenario: each strike forces
// a detection + election + catch-up cycle, and the client-visible gap
// around each strike is the system's MTTR.
func LeaderKillStorm(interval, downFor time.Duration) Scenario {
	return Scenario{
		Name: "leader-kill-storm",
		Build: func(rng *rand.Rand, n int, horizon time.Duration) Plan {
			var p Plan
			p.Name = "leader-kill-storm"
			for at := interval; at+downFor < horizon; at += interval {
				p.Actions = append(p.Actions,
					Action{At: at, Kind: ACrash, Node: Leader},
					Action{At: at + downFor, Kind: ARecover, Node: LastCrashed},
				)
			}
			return p
		},
	}
}

// FlakyLink opens windows of probabilistic loss plus a latency spike on a
// randomly chosen replica link, windows apart, each lasting winDur. Both
// directions are affected; the link choice varies per window.
func FlakyLink(p float64, spike, winDur, between time.Duration) Scenario {
	return Scenario{
		Name: "flaky-link",
		Build: func(rng *rand.Rand, n int, horizon time.Duration) Plan {
			var plan Plan
			plan.Name = "flaky-link"
			for at := between; at+winDur < horizon; at += winDur + between {
				a := rng.Intn(n)
				b := rng.Intn(n - 1)
				if b >= a {
					b++
				}
				plan.Actions = append(plan.Actions,
					Action{At: at, Kind: ALoss, From: a, To: b, Prob: p},
					Action{At: at, Kind: ALatency, From: a, To: b, Dur: spike},
					Action{At: at + winDur, Kind: ALoss, From: a, To: b, Prob: 0},
					Action{At: at + winDur, Kind: ALatency, From: a, To: b, Dur: 0},
				)
			}
			return plan
		},
	}
}

// RollingRestart crashes and restarts every replica in index order, one
// at a time, gap apart, each down for downFor. Only meaningful for
// systems with a rejoin protocol; on others the cluster shrinks until it
// loses quorum and the watchdog reports it.
func RollingRestart(downFor, gap time.Duration) Scenario {
	return Scenario{
		Name: "rolling-restart",
		Build: func(rng *rand.Rand, n int, horizon time.Duration) Plan {
			var p Plan
			p.Name = "rolling-restart"
			at := gap
			for i := 0; i < n && at+downFor < horizon; i++ {
				p.Actions = append(p.Actions,
					Action{At: at, Kind: ACrash, Node: i},
					Action{At: at + downFor, Kind: ARecover, Node: i},
				)
				at += downFor + gap
			}
			return p
		},
	}
}

// QuorumLossAndHeal isolates every replica from every other replica at
// `at` (clients stay connected, so load keeps arriving at a system that
// cannot commit), then heals the full mesh healAfter later. With
// healAfter <= 0 the partition is permanent — the scenario that must make
// the no-progress watchdog fire rather than hang the harness.
func QuorumLossAndHeal(at, healAfter time.Duration) Scenario {
	name := "quorum-loss-and-heal"
	if healAfter <= 0 {
		name = "quorum-loss"
	}
	return Scenario{
		Name: name,
		Build: func(rng *rand.Rand, n int, horizon time.Duration) Plan {
			var p Plan
			p.Name = name
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					p.Actions = append(p.Actions, Action{At: at, Kind: ACut, From: i, To: j})
					if healAfter > 0 {
						p.Actions = append(p.Actions, Action{At: at + healAfter, Kind: AHeal, From: i, To: j})
					}
				}
			}
			return p
		},
	}
}

// DiskStallStorm opens an fsync-stall window of stallFor on whoever leads
// at each strike, strikes interval apart until the horizon. On a durable
// system this is the paper's slow-disk tail scenario: commits that wait on
// the leader's fsync stall with it, while protocols that sync off the
// critical path ride through. Volatile targets no-op every strike, making
// the storm a free baseline.
func DiskStallStorm(stallFor, interval time.Duration) Scenario {
	return Scenario{
		Name: "disk-stall-storm",
		Build: func(rng *rand.Rand, n int, horizon time.Duration) Plan {
			var p Plan
			p.Name = "disk-stall-storm"
			for at := interval; at+stallFor < horizon; at += interval {
				p.Actions = append(p.Actions,
					Action{At: at, Kind: ADiskStall, Node: Leader, Dur: stallFor},
				)
			}
			return p
		},
	}
}

// TornWriteRestart arms a torn write on whoever leads at each strike and
// crashes it in the same instant — the power-cut-mid-write fault — then
// restarts the victim downFor later, strikes interval apart. Recovery must
// detect the partial last record by checksum, discard it, and refill the
// lost tail over the fabric; a system that trusts the torn bytes corrupts
// its log and the safety checker catches it.
func TornWriteRestart(interval, downFor time.Duration) Scenario {
	return Scenario{
		Name: "torn-write-restart",
		Build: func(rng *rand.Rand, n int, horizon time.Duration) Plan {
			var p Plan
			p.Name = "torn-write-restart"
			for at := interval; at+downFor < horizon; at += interval {
				p.Actions = append(p.Actions,
					// Same timestamp: the engine fires plan-order, so the
					// arm lands just before the crash tears the write.
					Action{At: at, Kind: ADiskTorn, Node: Leader},
					Action{At: at, Kind: ACrash, Node: Leader},
					Action{At: at + downFor, Kind: ARecover, Node: LastCrashed},
				)
			}
			return p
		},
	}
}

// Validate sanity-checks a plan against a replica count: indices in
// range, no link action on a self-link, probabilities in [0, 1].
func (p Plan) Validate(n int) error {
	for i, a := range p.Actions {
		switch a.Kind {
		case ACrash, ARecover, APause, ADiskStall, ADiskTorn, ADiskCorrupt:
			if a.Node >= n || (a.Node < 0 && a.Node != Leader && a.Node != LastCrashed) {
				return fmt.Errorf("plan %s action %d (%s): node %d out of range", p.Name, i, a, a.Node)
			}
		default:
			if a.From < 0 || a.From >= n || a.To < 0 || a.To >= n {
				return fmt.Errorf("plan %s action %d (%s): link %d-%d out of range", p.Name, i, a, a.From, a.To)
			}
			if a.From == a.To {
				return fmt.Errorf("plan %s action %d (%s): self-link", p.Name, i, a)
			}
		}
		if a.Prob < 0 || a.Prob > 1 {
			return fmt.Errorf("plan %s action %d (%s): probability %v out of range", p.Name, i, a, a.Prob)
		}
	}
	return nil
}
