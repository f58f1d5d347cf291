// Package chaos is a deterministic fault-injection engine for the
// simulated stack. A declarative Plan — timed crashes, recoveries, pause
// storms, symmetric and asymmetric partitions with heals, per-link
// loss-probability windows, latency-spike windows, and disk faults — is
// compiled onto the simulation event heap and applied to a Target: the
// Fleet of replica groups a harness hosts, one group or many.
//
// The fault model is the paper's fail-stop one: a node crashes, pauses or
// loses links, and its disk stalls, loses power mid-write (a torn last
// record) or rots (a flipped bit recovery must catch), but never refuses a
// write.
//
// Determinism is the whole point: scenario generators draw every random
// choice from the simulator's seeded RNG, actions fire as ordinary
// simulation events, and every fired action is folded into the trace
// fingerprint (trace.KChaosAct et al.), so a chaos run seed-replays
// bit-for-bit — the same schedule, the same fault timing, the same
// recovery behaviour, the same fingerprint.
package chaos

import (
	"fmt"
	"time"

	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

// ActionKind identifies one fault primitive.
type ActionKind int

const (
	// ACrash crashes a node (process stops, NIC unreachable).
	ACrash ActionKind = iota
	// ARecover restarts a previously crashed node via the target's
	// recovery path (a no-op on systems with no rejoin protocol).
	ARecover
	// APause deschedules a node's process for Dur (a "long-latency
	// node" in the paper's terminology, not a crash).
	APause
	// ACut cuts both directions of the From-To link.
	ACut
	// AHeal heals both directions of the From-To link.
	AHeal
	// ACutOneWay cuts only the From→To direction.
	ACutOneWay
	// AHealOneWay heals only the From→To direction.
	AHealOneWay
	// ALoss sets the loss probability Prob on both directions of
	// From-To (Prob <= 0 clears the window).
	ALoss
	// ALatency sets a latency spike of Dur on both directions of
	// From-To (Dur <= 0 clears the spike).
	ALatency
	// ADiskStall opens an fsync-stall window of Dur on Node's disk:
	// flushes issued during the window complete only after it closes
	// (a slow or write-cache-saturated device). No-op on volatile
	// targets.
	ADiskStall
	// ADiskTorn arms a torn write on Node's disk: the node's next crash
	// leaves a partial last record that recovery must detect by
	// checksum and discard. No-op on volatile targets.
	ADiskTorn
	// ADiskCorrupt flips one random bit in the durable region of
	// Node's disk — silent media corruption caught only by a checksum
	// verify during recovery. Fires even while the node is down (bit
	// rot does not wait for reboots). No-op on volatile targets.
	ADiskCorrupt
)

var actionNames = map[ActionKind]string{
	ACrash:       "crash",
	ARecover:     "recover",
	APause:       "pause",
	ACut:         "cut",
	AHeal:        "heal",
	ACutOneWay:   "cut-oneway",
	AHealOneWay:  "heal-oneway",
	ALoss:        "loss",
	ALatency:     "latency",
	ADiskStall:   "disk-stall",
	ADiskTorn:    "disk-torn",
	ADiskCorrupt: "disk-corrupt",
}

// String returns the action kind's stable name.
func (k ActionKind) String() string {
	if s, ok := actionNames[k]; ok {
		return s
	}
	return fmt.Sprintf("action(%d)", int(k))
}

// Node sentinels, resolved by the engine at fire time so plans can target
// roles ("whoever leads then") rather than indices fixed at build time.
const (
	// Leader targets whatever node the target reports as leader when
	// the action fires.
	Leader = -1
	// LastCrashed targets the node most recently crashed by this
	// engine (for recover-after-kill patterns).
	LastCrashed = -2
)

// Action is one timed fault. At is relative to the plan's start. Node is
// used by ACrash/ARecover/APause (possibly a sentinel); From/To by the
// link actions; Dur by APause/ALatency; Prob by ALoss.
type Action struct {
	At   time.Duration
	Kind ActionKind
	Node int
	From int
	To   int
	Dur  time.Duration
	Prob float64
}

// String renders the action compactly for reports and diagnostics.
func (a Action) String() string {
	switch a.Kind {
	case ACrash, ARecover, ADiskTorn, ADiskCorrupt:
		return fmt.Sprintf("%v %s n%d", a.At, a.Kind, a.Node)
	case APause, ADiskStall:
		return fmt.Sprintf("%v %s n%d %v", a.At, a.Kind, a.Node, a.Dur)
	case ALoss:
		return fmt.Sprintf("%v %s %d-%d p=%.2f", a.At, a.Kind, a.From, a.To, a.Prob)
	case ALatency:
		return fmt.Sprintf("%v %s %d-%d +%v", a.At, a.Kind, a.From, a.To, a.Dur)
	default:
		return fmt.Sprintf("%v %s %d-%d", a.At, a.Kind, a.From, a.To)
	}
}

// Disruptive reports whether the action starts a fault (as opposed to
// ending one); the availability probe measures recovery per disruptive
// action.
func (a Action) Disruptive() bool {
	switch a.Kind {
	case ACrash, APause, ACut, ACutOneWay:
		return true
	case ALoss:
		return a.Prob > 0
	case ALatency, ADiskStall:
		return a.Dur > 0
	}
	// ADiskTorn and ADiskCorrupt are latent faults: they only bite at the
	// next crash/recovery, so the availability probe attributes the outage
	// to the crash, not to them.
	return false
}

// Plan is a named, ordered fault schedule.
type Plan struct {
	Name    string
	Actions []Action
}

// Target is the control surface the engine drives. Fleet is its one
// implementation; node indices are fleet nodes (0..Replicas-1) — for a
// single group, replica indices — never client nodes.
type Target interface {
	// Replicas returns the node count.
	Replicas() int
	// Leader returns the current leader's replica index, or -1 if the
	// target has none (mid-election, or leader crashed).
	Leader() int
	// Crash kills replica i.
	Crash(i int)
	// Restart recovers replica i through the system's rejoin path; a
	// no-op for systems with no recovery protocol.
	Restart(i int)
	// Pause deschedules replica i's process for d.
	Pause(i int, d time.Duration)
	// CutOneWay cuts the i→j direction of the replica link.
	CutOneWay(i, j int)
	// HealOneWay heals the i→j direction.
	HealOneWay(i, j int)
	// SetLoss installs/clears a loss window on both directions of i-j.
	SetLoss(i, j int, p float64)
	// SetLatencySpike installs/clears a latency spike on both
	// directions of i-j.
	SetLatencySpike(i, j int, d time.Duration)
	// DiskStall opens an fsync-stall window of d on replica i's disk;
	// a no-op for volatile targets.
	DiskStall(i int, d time.Duration)
	// DiskTorn arms a torn write on replica i's disk (bites at its
	// next crash); a no-op for volatile targets.
	DiskTorn(i int)
	// DiskCorrupt flips one durable bit on replica i's disk; a no-op
	// for volatile targets.
	DiskCorrupt(i int)
}

// Fired records one action the engine applied, with its sentinel resolved.
type Fired struct {
	At     simnet.Time
	Action Action
	// Node is the resolved target node (-1 if the action had no
	// resolvable node, e.g. a leader kill while no leader existed).
	Node int
}

// Engine schedules a plan's actions on the simulation event heap and
// applies them to the target as they fire.
type Engine struct {
	sim    *simnet.Sim
	target Target

	fired       []Fired
	lastCrashed int
	down        map[int]bool
}

// NewEngine creates an engine driving target on sim.
func NewEngine(sim *simnet.Sim, target Target) *Engine {
	return &Engine{sim: sim, target: target, lastCrashed: -1, down: make(map[int]bool)}
}

// Schedule compiles plan onto the event heap, with action times relative
// to start.
func (e *Engine) Schedule(start simnet.Time, plan Plan) {
	for _, a := range plan.Actions {
		a := a
		e.sim.At(start.Add(a.At), func() { e.apply(a) })
	}
}

// Fired returns the actions applied so far, in firing order.
func (e *Engine) Fired() []Fired { return e.fired }

// resolve maps a node sentinel to a concrete replica index, or -1 when no
// node qualifies.
func (e *Engine) resolve(node int) int {
	switch node {
	case Leader:
		return e.target.Leader()
	case LastCrashed:
		return e.lastCrashed
	default:
		if node >= 0 && node < e.target.Replicas() {
			return node
		}
		return -1
	}
}

func (e *Engine) apply(a Action) {
	node := e.resolve(a.Node)
	if tr := e.sim.Tracer(); tr != nil {
		tr.Instant(trace.KChaosAct, node, int64(e.sim.Now()), int64(a.Kind), int64(a.From)<<32|int64(a.To&0xffffffff))
		tr.Add(trace.CtrChaosActs, 1)
	}
	switch a.Kind {
	case ACrash:
		// Killing an already-down node would make storms with Leader
		// sentinels degenerate; skip so the storm only ever removes
		// one node per strike.
		if node < 0 || e.down[node] {
			node = -1
			break
		}
		e.target.Crash(node)
		e.down[node] = true
		e.lastCrashed = node
	case ARecover:
		if node < 0 || !e.down[node] {
			node = -1
			break
		}
		e.target.Restart(node)
		delete(e.down, node)
	case APause:
		if node < 0 || e.down[node] {
			node = -1
			break
		}
		e.target.Pause(node, a.Dur)
	case ACut:
		e.target.CutOneWay(a.From, a.To)
		e.target.CutOneWay(a.To, a.From)
	case AHeal:
		e.target.HealOneWay(a.From, a.To)
		e.target.HealOneWay(a.To, a.From)
	case ACutOneWay:
		e.target.CutOneWay(a.From, a.To)
	case AHealOneWay:
		e.target.HealOneWay(a.From, a.To)
	case ALoss:
		e.target.SetLoss(a.From, a.To, a.Prob)
	case ALatency:
		e.target.SetLatencySpike(a.From, a.To, a.Dur)
	case ADiskStall:
		// Disk faults apply even to down nodes — the device outlives the
		// process, and media faults do not wait for reboots.
		if node < 0 {
			break
		}
		e.target.DiskStall(node, a.Dur)
	case ADiskTorn:
		if node < 0 {
			break
		}
		e.target.DiskTorn(node)
	case ADiskCorrupt:
		if node < 0 {
			break
		}
		e.target.DiskCorrupt(node)
	}
	e.fired = append(e.fired, Fired{At: e.sim.Now(), Action: a, Node: node})
}
