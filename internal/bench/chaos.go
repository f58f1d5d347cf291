// Chaos harness: runs any of the seven systems under a deterministic fault
// schedule, with the abcast safety checker watching every delivery, an
// availability probe measuring the client-visible cost of every fault, and
// a no-progress watchdog turning permanent wedges (quorum loss, APUS after
// leader death) into bounded, diagnosable exits instead of hung runs.
package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"acuerdo/internal/abcast"
	"acuerdo/internal/chaos"
	"acuerdo/internal/digest"
	"acuerdo/internal/simnet"
	"acuerdo/internal/sweep"
	"acuerdo/internal/trace"
)

// The chaos load and probe, the same in every run.
const (
	// chaosWindow outstanding chaosMsgSize-byte requests are the
	// closed-loop load.
	chaosWindow  = 8
	chaosMsgSize = 16
	// chaosSettle is fault-free load before the schedule starts (a
	// baseline the probe can compare against).
	chaosSettle = 10 * time.Millisecond
	// gapThreshold is the smallest ack gap the probe reports as an
	// unavailability window.
	gapThreshold = 2 * time.Millisecond
)

// ChaosConfig parameterizes one chaos run.
type ChaosConfig struct {
	Nodes int
	Seed  int64
	// Horizon is the fault schedule's length; the scenario generator fits
	// its actions inside it.
	Horizon time.Duration
	// Drain is fault-free time after the horizon for recoveries to finish.
	Drain time.Duration
	// WatchdogBudget is the no-progress budget; a run with no client ack
	// for this much simulated time is stopped and reported as wedged.
	WatchdogBudget time.Duration
	// Observe attaches a runtime invariant observer (internal/observe) to
	// the instance: every protocol hook is checked against the invariant
	// catalog and violations land in the result. Off by default — the
	// observers-off hot path stays hook-free (nil-receiver no-ops).
	Observe bool
	// Durability selects the storage model (Volatile, Durable, Amnesia).
	// Systems with no durable mode run volatile regardless, so cross-system
	// tables can share one configuration.
	Durability Durability
}

// DefaultChaos returns the recovery benchmark's standard configuration.
func DefaultChaos(nodes int, seed int64) ChaosConfig {
	return ChaosConfig{
		Nodes:          nodes,
		Seed:           seed,
		Horizon:        120 * time.Millisecond,
		Drain:          40 * time.Millisecond,
		WatchdogBudget: 80 * time.Millisecond,
	}
}

// ChaosResult is one system's run under one fault schedule.
type ChaosResult struct {
	Kind Kind
	Plan string
	// Fingerprint is the trace hash; two runs from the same seed must
	// match bit-for-bit.
	Fingerprint digest.Sum
	// Acks is the number of client-visible commits over the whole run.
	Acks int
	// Fired is the engine's applied-action log.
	Fired []chaos.Fired
	// Recoveries holds the per-disruptive-fault MTTR measurements.
	Recoveries []chaos.Recovery
	// Windows/Unavail are the client-visible unavailability intervals over
	// [fault start, run end] and their total.
	Windows []chaos.Window
	Unavail time.Duration
	// Watchdog is non-nil when the run wedged and was stopped early.
	Watchdog *simnet.WatchdogReport
	// SafetyErr is the first abcast safety violation observed, if any.
	SafetyErr error
	// End is the simulated time the run finished (early if wedged).
	End simnet.Time
	// Elections holds Acuerdo's per-winner election durations (suspicion
	// to win, diff transfer included — the Table 1 statistic) for
	// elections won during the fault window. Empty for other systems.
	Elections []time.Duration
	// Violations is the runtime invariant violation count when the run was
	// observed (ChaosConfig.Observe); zero otherwise. ViolationReports
	// carries the formatted witness reports (capped by the observer) and
	// ObserveDigest/ObserveChecks the streaming check digest, which must
	// replay bit-identically from the same seed.
	Violations       int64
	ViolationReports []string
	ObserveDigest    digest.Sum
	ObserveChecks    uint64
	// Durability echoes the run's storage model. DiskRecoveredBytes and
	// FabricRecoveryBytes account how crashed state was refilled — from the
	// local disk versus re-shipped over the interconnect (the amnesia
	// baseline pays for everything in fabric bytes). DurableDigest folds
	// every device's durable content; same-seed durable runs must match.
	Durability          Durability
	DiskRecoveredBytes  int64
	FabricRecoveryBytes int64
	DurableDigest       digest.Sum
}

// MeanMTTR returns the average recovery time over recovered faults, and
// how many of the measured faults recovered at all.
func (r ChaosResult) MeanMTTR() (time.Duration, int) {
	var sum time.Duration
	n := 0
	for _, rec := range r.Recoveries {
		if rec.Recovered {
			sum += rec.MTTR
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / time.Duration(n), n
}

// MaxMTTR returns the worst recovery time over recovered faults.
func (r ChaosResult) MaxMTTR() time.Duration {
	var max time.Duration
	for _, rec := range r.Recoveries {
		if rec.Recovered && rec.MTTR > max {
			max = rec.MTTR
		}
	}
	return max
}

// RunScenario boots kind, warms it up, compiles the scenario's plan from
// the simulator's seeded RNG, and drives closed-loop load across the fault
// schedule. Everything downstream of the seed is deterministic: the same
// (kind, scenario, cfg) yields the same fingerprint, the same fired log,
// and the same table row.
func RunScenario(kind Kind, sc chaos.Scenario, cfg ChaosConfig) ChaosResult {
	tracer := trace.New(trace.FingerprintRing)
	sim := simnet.New(cfg.Seed)
	opt := Options{Tracer: tracer, Durability: cfg.Durability}
	if cfg.Observe {
		opt.Observer = NewObserver(sim, kind, cfg.Nodes)
	}
	inst := NewInstanceOn(sim, kind, cfg.Nodes, opt)
	inst.warmUp()
	res := ChaosResult{Kind: kind, Plan: sc.Name, Durability: cfg.Durability}

	// Safety: every delivery at every replica feeds the checker.
	checker := inst.Check(nil)

	// Closed-loop client: chaosWindow outstanding requests; every ack is
	// timestamped for the availability probe.
	var acks []simnet.Time
	reqs := abcast.Requests{Size: chaosMsgSize, OnAck: func(*abcast.Request) { acks = append(acks, sim.Now()) }}
	abcast.Loop(sim, inst.Sys, chaosWindow, func(id uint64, next func()) {
		r := reqs.Take(id, sim.Now(), next)
		abcast.PutMsgID(r.Payload, id)
		checker.OnBroadcast(id)
		inst.Sys.Submit(r.Payload, r.Done)
	})

	// Fault schedule, compiled from the simulator's own RNG.
	plan := sc.Build(sim.Rand(), cfg.Nodes, cfg.Horizon)
	if err := plan.Validate(cfg.Nodes); err != nil {
		panic("chaos: " + err.Error())
	}
	faultStart := sim.Now().Add(chaosSettle)
	engine := chaos.NewEngine(sim, inst.ChaosTarget())
	engine.Schedule(faultStart, plan)

	// Watchdog on the ack stream: a wedged run (quorum gone, fixed leader
	// dead) exits within one budget instead of spinning on heartbeats.
	wd := simnet.NewWatchdog(sim, cfg.WatchdogBudget, func() int64 { return int64(len(acks)) })
	sim.RunFor(chaosSettle + cfg.Horizon + cfg.Drain)
	wd.Stop()

	res.End = sim.Now()
	res.Acks = len(acks)
	res.Fired = engine.Fired()
	res.Recoveries = chaos.Recoveries(res.Fired, acks)
	res.Windows, res.Unavail = chaos.Unavailability(acks, faultStart, res.End, gapThreshold)
	// Refine each fault's MTTR with the outage window it opened: the raw
	// "first ack at or after the fault" lands among acks of requests that
	// were already committed when the fault fired (the in-flight drain),
	// which under-reports recovery by orders of magnitude. A fault whose
	// ack stream gapped within a couple of thresholds of its firing
	// measures to that gap's close instead; a trailing gap that never
	// closes (APUS after leader death) is a permanent outage.
	for i := range res.Recoveries {
		f := res.Recoveries[i].Fault
		for _, w := range res.Windows {
			if w.To < f.At || w.From > f.At.Add(2*gapThreshold) {
				continue
			}
			res.Recoveries[i].RecoveredAt = w.To
			res.Recoveries[i].MTTR = w.To.Sub(f.At)
			res.Recoveries[i].Recovered = len(acks) > 0 && acks[len(acks)-1] >= w.To
			break
		}
	}
	if wd.Fired() {
		rep := wd.Report()
		res.Watchdog = &rep
	}
	res.SafetyErr = checker.Err()
	if c := inst.AcuerdoCluster; c != nil {
		for _, r := range c.Replicas {
			if r.WonAt >= faultStart {
				res.Elections = append(res.Elections, r.ElectionTook)
			}
		}
	}
	res.Violations, res.ObserveChecks, res.ObserveDigest = inst.verdict()
	for _, v := range inst.Observer.Violations() {
		res.ViolationReports = append(res.ViolationReports, v.String())
	}
	res.DiskRecoveredBytes = inst.DiskRecoveredBytes()
	res.FabricRecoveryBytes = inst.FabricRecoveryBytes()
	res.DurableDigest = inst.DurableDigest()
	res.Fingerprint = tracer.Fingerprint()
	return res
}

// RunScenarioAllParallel runs every listed system under the same scenario
// and configuration (nil kinds = the full Figure 8 set) on a worker pool:
// each system's run is a sealed world (its own simulator and tracer built
// from cfg.Seed), so results — fingerprints included — are identical for
// every worker count. workers <= 0 selects GOMAXPROCS.
func RunScenarioAllParallel(sc chaos.Scenario, cfg ChaosConfig, kinds []Kind, workers int) ([]ChaosResult, sweep.Report) {
	if kinds == nil {
		kinds = AllKinds
	}
	return sweep.Run(len(kinds), workers, func(i int) ChaosResult {
		return RunScenario(kinds[i], sc, cfg)
	})
}

// PrintRecoveryTable renders the cross-system recovery benchmark: per
// system and scenario, how many faults fired, how many recovered, the mean
// and worst client-visible MTTR, total unavailability, and whether the
// run wedged (watchdog) or violated safety.
func PrintRecoveryTable(w io.Writer, results []ChaosResult) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "system\tscenario\tmode\tacks\tfaults\trecovered\tmttr-mean\tmttr-max\tunavail\tdisk-rec\tnet-rec\twedged\tsafety\tinvariants\tfingerprint\n")
	for _, r := range results {
		mean, n := r.MeanMTTR()
		measured := len(r.Recoveries)
		wedged := "-"
		if r.Watchdog != nil {
			wedged = fmt.Sprintf("at %v", r.Watchdog.FiredAt)
		}
		safety := "ok"
		if r.SafetyErr != nil {
			safety = "VIOLATION"
		}
		inv := "-"
		if r.ObserveChecks > 0 || r.Violations > 0 {
			if r.Violations == 0 {
				inv = fmt.Sprintf("ok (%d)", r.ObserveChecks)
			} else {
				inv = fmt.Sprintf("%d VIOLATIONS", r.Violations)
			}
		}
		mode := string(r.Durability)
		if mode == "" {
			mode = "volatile"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d/%d\t%.3fms\t%.3fms\t%.2fms\t%dB\t%dB\t%s\t%s\t%s\t%s\n",
			r.Kind, r.Plan, mode, r.Acks, len(r.Fired), n, measured,
			float64(mean)/1e6, float64(r.MaxMTTR())/1e6, float64(r.Unavail)/1e6,
			r.DiskRecoveredBytes, r.FabricRecoveryBytes,
			wedged, safety, inv, r.Fingerprint.Hex())
	}
	tw.Flush()
}

// PrintChaosDetail renders one result's fired-action log, unavailability
// windows, and (when the run wedged) the watchdog's diagnostic dump.
func PrintChaosDetail(w io.Writer, r ChaosResult) {
	fmt.Fprintf(w, "%s under %s: %d acks, fingerprint %s\n", r.Kind, r.Plan, r.Acks, r.Fingerprint.Hex())
	for _, f := range r.Fired {
		fmt.Fprintf(w, "  %v fired %s (node %d)\n", f.At, f.Action, f.Node)
	}
	for _, win := range r.Windows {
		fmt.Fprintf(w, "  unavailable %v .. %v (%v)\n", win.From, win.To, win.Dur())
	}
	if r.Watchdog != nil {
		fmt.Fprintf(w, "  %v\n", *r.Watchdog)
	}
	if r.SafetyErr != nil {
		fmt.Fprintf(w, "  SAFETY: %v\n", r.SafetyErr)
	}
	if r.ObserveChecks > 0 || r.Violations > 0 {
		fmt.Fprintf(w, "  invariants: %d checks, %d violations, digest %s\n",
			r.ObserveChecks, r.Violations, r.ObserveDigest.Hex())
	}
	for _, rep := range r.ViolationReports {
		fmt.Fprintf(w, "  INVARIANT: %s\n", rep)
	}
}
