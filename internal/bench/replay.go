// Seed-replay oracle: the runtime half of the determinism suite.
//
// The static analyzers in internal/lint forbid the constructs known to break
// seed-determinism (wall clocks, global randomness, map-order dependence, raw
// goroutines); this oracle checks the invariant itself, end to end. A run is
// turned into a bench artifact and two same-seed runs are held to Compare,
// like every other artifact in the repository: a different election winner,
// a reordered commit, a latency off by one event all fail naming the field —
// and, for a delivery sequence, the replica — that drifted.
package bench

import (
	"fmt"

	"acuerdo/internal/abcast"
	"acuerdo/internal/digest"
	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

// ReplayPointJSON is one seeded closed-loop run as the replay oracle sees it:
// the load point (always traced, so trace_fp and trace_events are present)
// plus every stream the point only summarizes. Every field is deterministic,
// and the ones added here are written even when zero, so Compare holds two
// runs to all of them.
type ReplayPointJSON struct {
	PointJSON
	// SamplesFP folds every latency sample in measurement order.
	SamplesFP string `json:"samples_fp"`
	// DeliveryFP holds one fold of the delivery sequence per replica.
	DeliveryFP []string `json:"delivery_fp"`
	// Violations, ObserveChecks, and ObserveDigest carry the runtime
	// invariant observer's verdict; zero when the run was not observed.
	Violations    int64  `json:"violations"`
	ObserveChecks uint64 `json:"observe_checks"`
	ObserveDigest string `json:"observe_digest"`
}

// replayPoint boots kind on a fresh simulator seeded with seed, drives it
// with the closed-loop load cfg under a tracer, the safety tap and (when
// observed) an invariant observer, and returns what it saw. A run that
// violates atomic broadcast fails here rather than producing a
// comparable-but-wrong point.
func replayPoint(kind Kind, nodes int, seed int64, cfg abcast.LoadConfig, observed bool) (ReplayPointJSON, error) {
	sim := simnet.New(seed)
	// A small ring suffices: the fingerprint streams over every emitted
	// event regardless of ring overwrites.
	sim.SetTracer(trace.New(1024))
	var opt Options
	if observed {
		opt.Observer = NewObserver(sim, kind, nodes)
	}
	inst := NewInstanceOn(sim, kind, nodes, opt)
	checker := inst.Check(nil)
	inst.warmUp()
	cfg.OnSubmit = checker.OnBroadcast
	res := abcast.RunClosedLoop(sim, inst.Sys, cfg)
	p := ReplayPointJSON{PointJSON: pointJSON(&res, nodes, seed)}
	samples := digest.Offset
	for _, s := range res.Latency.Samples() {
		samples = samples.Uint64(uint64(s))
	}
	p.SamplesFP = samples.Hex()
	for node := 0; node < nodes; node++ {
		p.DeliveryFP = append(p.DeliveryFP, checker.ReplicaFingerprint(node).Hex())
	}
	var sum digest.Sum
	p.Violations, p.ObserveChecks, sum = inst.verdict()
	p.ObserveDigest = sum.Hex()
	inst.Close()
	if err := checker.Err(); err != nil {
		return p, fmt.Errorf("%s: %w", kind, err)
	}
	return p, nil
}

// compareRuns calls run `runs` times, each filling a fresh artifact of the
// given kind, and fails on the first artifact Compare tells apart from run
// 0's. Two runs already witness nondeterminism; more raise the chance of
// catching divergence that needs an unlucky map-iteration order to manifest.
func compareRuns(kind string, runs int, run func(*Artifact) error) error {
	if runs < 2 {
		return fmt.Errorf("%s replay: need at least 2 runs to compare, got %d", kind, runs)
	}
	var first *Artifact
	for i := 0; i < runs; i++ {
		art := NewArtifact(kind+"-replay", kind)
		if err := run(art); err != nil {
			return fmt.Errorf("%s replay: run %d: %w", kind, i, err)
		}
		if first == nil {
			first = art
		} else if err := Compare(first, art, -1); err != nil {
			return fmt.Errorf("%s replay diverged in run %d: %w", kind, i, err)
		}
	}
	return nil
}

// VerifyReplay runs kind `runs` times from the same seed under the
// closed-loop load cfg — with observed set, under a runtime invariant
// observer whose whole check stream must replay too — and fails on the first
// observable divergence between two runs.
func VerifyReplay(kind Kind, nodes int, seed int64, cfg abcast.LoadConfig, observed bool, runs int) error {
	return compareRuns("closed-loop", runs, func(a *Artifact) error {
		p, err := replayPoint(kind, nodes, seed, cfg, observed)
		a.Points = append(a.Points, p)
		return err
	})
}
