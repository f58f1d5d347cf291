package bench

import (
	"testing"
	"time"

	"acuerdo/internal/chaos"
	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

// observedChaos is shortChaos with the runtime invariant observers on.
func observedChaos(seed int64) ChaosConfig {
	cfg := shortChaos(seed)
	cfg.Observe = true
	return cfg
}

// TestObserverZeroViolations is the acceptance gate for the observer layer:
// every system runs every canned chaos scenario under the full invariant
// catalog, and no invariant may fire. A failure prints the structured
// witness reports (node, invariant, sim-time, seed).
func TestObserverZeroViolations(t *testing.T) {
	kinds := AllKinds
	scenarios := []chaos.Scenario{
		storm(),
		flaky(),
		chaos.RollingRestart(8*time.Millisecond, 25*time.Millisecond),
		chaos.QuorumLossAndHeal(20*time.Millisecond, 30*time.Millisecond),
	}
	if testing.Short() {
		kinds = []Kind{Acuerdo, DerechoAll, Etcd, Zookeeper}
		scenarios = scenarios[:2]
	}
	for _, kind := range kinds {
		for _, sc := range scenarios {
			t.Run(string(kind)+"/"+sc.Name, func(t *testing.T) {
				r := RunScenario(kind, sc, observedChaos(3))
				if r.ObserveChecks == 0 {
					t.Fatal("observer performed no checks; the hooks are not wired")
				}
				if r.Violations != 0 {
					t.Fatalf("%d invariant violations:\n%s", r.Violations, joinReports(r.ViolationReports))
				}
			})
		}
	}
}

func joinReports(reports []string) string {
	out := ""
	for _, r := range reports {
		out += r + "\n"
	}
	return out
}

// TestObserverDeterminism pins the observer's replay contract: two runs of
// the leader-kill storm from the same seed must produce byte-identical
// violation reports (here: none) and identical check digests. A digest
// mismatch means the observer's shadow state drifted between same-seed
// runs — it would poison every baseline comparison.
func TestObserverDeterminism(t *testing.T) {
	kinds := AllKinds
	if testing.Short() {
		kinds = []Kind{Acuerdo, Zookeeper}
	}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			a := RunScenario(kind, storm(), observedChaos(7))
			b := RunScenario(kind, storm(), observedChaos(7))
			sameChaosRun(t, observedChaos(7), a, b)
			if a.ObserveChecks == 0 {
				t.Fatal("observer performed no checks")
			}
		})
	}
}

// TestObserverOffIsIdentical checks the zero-cost-when-off contract's
// behavioral half: an observed run and an unobserved run from the same seed
// produce the same trace fingerprint and ack count. The observer must be a
// pure reader — attaching it cannot perturb the simulation.
func TestObserverOffIsIdentical(t *testing.T) {
	kinds := AllKinds
	if testing.Short() {
		kinds = []Kind{Acuerdo, Etcd}
	}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			off := RunScenario(kind, storm(), shortChaos(7))
			on := RunScenario(kind, storm(), observedChaos(7))
			sameChaosRun(t, shortChaos(7), off, on) // observer fields are one-sided, so skipped
		})
	}
}

// TestReplayWithObservers holds the observer's whole check stream to the
// seed-replay oracle: VerifyReplay must pass with observers attached, and the
// run must actually carry a non-trivial digest.
func TestReplayWithObservers(t *testing.T) {
	kinds := AllKinds
	if testing.Short() {
		kinds = []Kind{Acuerdo, Libpaxos, Etcd}
	}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			run, err := replayPoint(kind, 3, 42, replayLoad, true)
			if err != nil {
				t.Fatal(err)
			}
			if run.ObserveChecks == 0 {
				t.Fatal("observed replay performed no checks")
			}
			if run.Violations != 0 {
				t.Fatalf("%d invariant violations under fault-free replay load", run.Violations)
			}
			if err := VerifyReplay(kind, 3, 42, replayLoad, true, 2); err != nil {
				t.Fatalf("observed replay diverged: %v", err)
			}
		})
	}
}

// TestRunPointObserve checks the Figure 8 path: an observed sweep point
// completes without panicking (no invariant fires under fault-free load)
// and returns the same measurements as an unobserved one.
func TestRunPointObserve(t *testing.T) {
	cfg := DefaultFig8(3, 16)
	cfg.Windows = []int{8}
	cfg.Warmup = time.Millisecond
	cfg.Measure = 4 * time.Millisecond
	cfg.MinCommitted = 0
	plain := RunPoint(Acuerdo, cfg, 0)
	cfg.Observe = true
	observed := RunPoint(Acuerdo, cfg, 0)
	if plain.Committed != observed.Committed {
		t.Fatalf("observer changed the measurement: %d committed vs %d", plain.Committed, observed.Committed)
	}
}

// TestObserverViolationReachesTracer pins the wiring order nobody has to get
// right: an observer built before NewInstanceOn installs Options.Tracer (as
// RunScenario builds it) still lands its violations in that tracer.
func TestObserverViolationReachesTracer(t *testing.T) {
	sim := simnet.New(1)
	obs := NewObserver(sim, Etcd, 3)
	tr := trace.New(64)
	NewInstanceOn(sim, Etcd, 3, Options{Tracer: tr, Observer: obs})
	obs.Observe(trace.Fact{Kind: trace.Win, Replica: 0, At: 10, Term: 99, ID: 0})
	obs.Observe(trace.Fact{Kind: trace.Win, Replica: 1, At: 20, Term: 99, ID: 1}) // a second winner of term 99
	if got := tr.Counter(trace.CtrViolations); got != 1 {
		t.Fatalf("CtrViolations = %d after one leader-uniqueness violation, want 1", got)
	}
}
