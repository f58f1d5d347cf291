package bench

import (
	"testing"
	"time"

	"acuerdo/internal/trace"
)

// smallFig8 is a trimmed subfigure: every system, two windows, short
// simulated horizons, tracing on so points carry fingerprints.
func smallFig8() Fig8Config {
	cfg := DefaultFig8(3, 10)
	cfg.Windows = []int{1, 8}
	cfg.Warmup = time.Millisecond
	cfg.Measure = 2 * time.Millisecond
	cfg.MinCommitted = 0
	cfg.TraceEvents = trace.DefaultRing
	return cfg
}

// TestParallelSerialEquivalence is the sweep orchestrator's correctness
// guard: for every system, a parallel sweep must produce bit-identical
// deterministic results — trace fingerprints included — to the serial
// sweep, because both execute the same sealed RunPoint worlds and only the
// scheduling differs.
func TestParallelSerialEquivalence(t *testing.T) {
	cfg := smallFig8()
	kinds := AllKinds
	if testing.Short() {
		kinds = []Kind{Acuerdo, Etcd}
	}

	serial, _ := Figure8Parallel(cfg, kinds, 1)
	par, _ := Figure8Parallel(cfg, kinds, 4)
	a, b := NewArtifact("serial", ""), NewArtifact("parallel", "")
	a.AddFigure8(cfg, serial, kinds)
	b.AddFigure8(cfg, par, kinds)
	if len(a.Points) != len(kinds)*len(cfg.Windows) {
		t.Fatalf("%d points, want %d", len(a.Points), len(kinds)*len(cfg.Windows))
	}
	if err := Compare(a, b, -1); err != nil {
		t.Fatalf("parallel sweep differs from serial: %v", err)
	}
}
