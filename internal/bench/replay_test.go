package bench

import (
	"strings"
	"testing"
	"time"

	"acuerdo/internal/abcast"
)

// replayLoad is the closed-loop load the replay tests drive.
var replayLoad = abcast.LoadConfig{
	Window:  8,
	MsgSize: 16,
	Warmup:  1 * time.Millisecond,
	Measure: 4 * time.Millisecond,
}

// TestDeterministicReplay enforces the simulation's core invariant over every
// system in the Figure 8 comparison: two runs from the same seed must produce
// identical delivery sequences at every replica, an identical latency sample
// stream and an identical event stream. This is the runtime backstop behind
// the static analyzers in internal/lint — a nondeterministic election (the zab
// votes-map bug), a wall-clock read, or a map-ordered send all surface here as
// a divergence.
func TestDeterministicReplay(t *testing.T) {
	cfg := replayLoad
	if !testing.Short() {
		cfg.Measure = 8 * time.Millisecond
	}
	for _, kind := range AllKinds {
		t.Run(string(kind), func(t *testing.T) {
			if err := VerifyReplay(kind, 3, 42, cfg, false, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// replayArtifact wraps points as the artifact VerifyReplay compares.
func replayArtifact(points ...ReplayPointJSON) *Artifact {
	a := NewArtifact("closed-loop-replay", "closed-loop")
	for _, p := range points {
		a.Points = append(a.Points, p)
	}
	return a
}

// TestReplayDistinctSeeds guards against a vacuous oracle: a run must carry
// real evidence, and different seeds must actually steer the simulation into
// observably different runs, otherwise a comparison proves nothing.
func TestReplayDistinctSeeds(t *testing.T) {
	a, err := replayPoint(Acuerdo, 3, 1, replayLoad, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replayPoint(Acuerdo, 3, 2, replayLoad, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.Committed == 0 || a.TraceEvents == 0 || len(a.DeliveryFP) != 3 {
		t.Fatalf("run carries no evidence: %d committed, %d trace events, %d delivery folds",
			a.Committed, a.TraceEvents, len(a.DeliveryFP))
	}
	b.Seed = a.Seed // the label aside, the runs must still differ
	if err := Compare(replayArtifact(a), replayArtifact(b), -1); err == nil {
		t.Fatal("runs from different seeds compare equal; the oracle is not observing the simulation")
	}
}

// TestReplayCatchesDivergence shows the oracle catches what it claims to, and
// says where: two seeds fail naming the field that drifted, and a run in
// which one replica delivered a different sequence fails naming the replica.
func TestReplayCatchesDivergence(t *testing.T) {
	a, err := replayPoint(Acuerdo, 3, 42, replayLoad, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replayPoint(Acuerdo, 3, 43, replayLoad, true)
	if err != nil {
		t.Fatal(err)
	}
	b.Seed = a.Seed
	err = Compare(replayArtifact(a), replayArtifact(b), -1)
	if err == nil || !strings.Contains(err.Error(), "system=acuerdo") || !strings.Contains(err.Error(), ", baseline ") {
		t.Fatalf("seeds 42 and 43: %v, want a mismatch naming the point and the field", err)
	}

	// Everything equal but replica 1's delivery sequence: the summary fields
	// cannot see it, the per-replica fold must.
	c := a
	c.DeliveryFP = append([]string(nil), a.DeliveryFP...)
	c.DeliveryFP[1] = a.DeliveryFP[1][1:] + "0"
	err = Compare(replayArtifact(a), replayArtifact(c), -1)
	if err == nil || !strings.Contains(err.Error(), "delivery_fp[1]") {
		t.Fatalf("altered replica 1: %v, want a mismatch naming delivery_fp[1]", err)
	}
	// Likewise one latency sample, which can hide from every quantile.
	c = a
	c.SamplesFP = a.SamplesFP[1:] + "0"
	err = Compare(replayArtifact(a), replayArtifact(c), -1)
	if err == nil || !strings.Contains(err.Error(), "samples_fp") {
		t.Fatalf("altered sample stream: %v, want a mismatch naming samples_fp", err)
	}
	// And observer shadow-state drift with the check count unchanged.
	c = a
	c.ObserveDigest = a.ObserveDigest[1:] + "0"
	err = Compare(replayArtifact(a), replayArtifact(c), -1)
	if err == nil || !strings.Contains(err.Error(), "observe_digest") {
		t.Fatalf("altered observer digest: %v, want a mismatch naming observe_digest", err)
	}
}

// TestVerifyReplayNeedsTwoRuns: one run compares with nothing.
func TestVerifyReplayNeedsTwoRuns(t *testing.T) {
	if err := VerifyReplay(Acuerdo, 3, 42, replayLoad, false, 1); err == nil {
		t.Fatal("single-run comparison accepted")
	}
}
