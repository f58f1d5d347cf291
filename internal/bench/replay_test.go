package bench

import (
	"testing"
	"time"

	"acuerdo/internal/abcast"
)

// TestDeterministicReplay enforces the simulation's core invariant over every
// system in the Figure 8 comparison: two runs from the same seed must produce
// byte-identical delivery sequences at every replica and byte-identical
// latency samples. This is the runtime backstop behind the static analyzers
// in internal/lint — a nondeterministic election (the zab votes-map bug), a
// wall-clock read, or a map-ordered send all surface here as a divergence.
func TestDeterministicReplay(t *testing.T) {
	cfg := abcast.LoadConfig{
		Window:  8,
		MsgSize: 16,
		Warmup:  1 * time.Millisecond,
		Measure: 8 * time.Millisecond,
	}
	if testing.Short() {
		cfg.Measure = 4 * time.Millisecond
	}
	for _, kind := range AllKinds {
		t.Run(string(kind), func(t *testing.T) {
			if err := abcast.VerifyReplay(ReplayBuilder(kind, 3, false), 3, 42, cfg, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReplayDistinctSeeds guards against a vacuous harness: different seeds
// must actually steer the simulation into observably different runs,
// otherwise a fingerprint comparison proves nothing.
func TestReplayDistinctSeeds(t *testing.T) {
	cfg := abcast.LoadConfig{
		Window:  8,
		MsgSize: 16,
		Warmup:  1 * time.Millisecond,
		Measure: 4 * time.Millisecond,
	}
	a, err := abcast.ReplayOnce(ReplayBuilder(Acuerdo, 3, false), 3, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := abcast.ReplayOnce(ReplayBuilder(Acuerdo, 3, false), 3, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Fingerprint()) == string(b.Fingerprint()) {
		t.Fatal("runs from different seeds produced identical fingerprints; the harness is not observing the simulation")
	}
}
