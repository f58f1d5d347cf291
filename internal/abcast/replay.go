// Seed-replay harness: the runtime half of the determinism suite.
//
// The static analyzers in internal/lint forbid the constructs that are known
// to break seed-determinism (wall clocks, global randomness, map-order
// dependence, raw goroutines); this harness checks the invariant itself, end
// to end: building a system twice from the same seed and driving it with the
// same closed-loop load must produce byte-identical delivery sequences at
// every replica and a byte-identical latency sample stream. Any divergence —
// a different election winner, a reordered commit, a latency off by one
// event — shows up as a fingerprint mismatch pinpointing the first differing
// record.
package abcast

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"acuerdo/internal/digest"
	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

// SystemBuilder constructs a system on sim, wiring deliver to run for every
// replica-level delivery (replica index plus the delivered payload). The
// builder is invoked once per run with a fresh simulator so no state can leak
// between runs.
type SystemBuilder func(sim *simnet.Sim, deliver func(replica int, payload []byte)) System

// Observed is implemented by builders' return values (or wrappers around
// them) that run under a runtime invariant observer (internal/observe). The
// replay harness harvests the observer digest after the load completes and
// folds it into the run fingerprint: the observer's entire check sequence —
// every hook invocation and every violation — must replay bit-identically
// from the same seed, exactly like the trace event stream.
type Observed interface {
	// ObserverDigest reports the streaming check digest, the number of hook
	// invocations folded into it, and the number of invariant violations.
	ObserverDigest() (sum digest.Sum, checks uint64, violations int64)
}

// ReplayRun captures everything one seeded run observed that the determinism
// invariant promises to reproduce.
type ReplayRun struct {
	// Result is the measured load point, including the latency histogram.
	Result LoadResult
	// Delivered is each replica's delivery sequence, in delivery order.
	Delivered [][]uint64
	// TraceFP and TraceEvents summarize the full structured-event stream
	// (trace.Tracer's streaming fingerprint): two same-seed runs must emit
	// identical events in identical order, not just identical deliveries.
	TraceFP     digest.Sum
	TraceEvents uint64
	// ObserveDigest, ObserveChecks, and ObserveViolations summarize the
	// runtime invariant observer's check stream when the built system
	// implements Observed; all zero otherwise.
	ObserveDigest     digest.Sum
	ObserveChecks     uint64
	ObserveViolations int64
}

// ReplayOnce builds a system from seed via build, waits for it to become
// ready, drives it with the closed-loop load cfg, and returns the run's
// observations. Safety (integrity, no duplication, total order) is checked as
// a side effect: a run that violates atomic broadcast fails here rather than
// producing a comparable-but-wrong fingerprint.
func ReplayOnce(build SystemBuilder, replicas int, seed int64, cfg LoadConfig) (*ReplayRun, error) {
	sim := simnet.New(seed)
	// A small tracer ring suffices: the fingerprint streams over every
	// emitted event regardless of ring overwrites.
	tr := trace.New(1024)
	sim.SetTracer(tr)
	checker := NewChecker(replicas)
	var deliverErr error
	sys := build(sim, func(replica int, payload []byte) {
		if err := checker.OnDeliver(replica, MsgID(payload)); err != nil && deliverErr == nil {
			deliverErr = err
		}
	})
	if !AwaitReady(sim, sys.Ready) {
		return nil, fmt.Errorf("replay: %s never became ready", sys.Name())
	}
	cfg.OnSubmit = checker.OnBroadcast
	res := RunClosedLoop(sim, sys, cfg)
	if deliverErr != nil {
		return nil, fmt.Errorf("replay: %s: %w", sys.Name(), deliverErr)
	}
	if err := checker.CheckTotalOrder(); err != nil {
		return nil, fmt.Errorf("replay: %s: %w", sys.Name(), err)
	}
	run := &ReplayRun{Result: res, TraceFP: tr.Fingerprint(), TraceEvents: tr.Emitted()}
	if obs, ok := sys.(Observed); ok {
		run.ObserveDigest, run.ObserveChecks, run.ObserveViolations = obs.ObserverDigest()
	}
	for node := 0; node < replicas; node++ {
		seq := checker.Delivered(node)
		run.Delivered = append(run.Delivered, append([]uint64(nil), seq...))
	}
	return run, nil
}

// Fingerprint serializes the run's observable behavior: per-replica delivery
// sequences, then the latency samples in measurement order, then the commit
// count and measured interval. Two same-seed runs must produce equal bytes.
func (r *ReplayRun) Fingerprint() []byte {
	var buf bytes.Buffer
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		buf.Write(b[:])
	}
	put(uint64(len(r.Delivered)))
	for _, seq := range r.Delivered {
		put(uint64(len(seq)))
		for _, id := range seq {
			put(id)
		}
	}
	samples := r.Result.Latency.Samples()
	put(uint64(len(samples)))
	for _, s := range samples {
		put(uint64(s))
	}
	put(uint64(r.Result.Committed))
	put(uint64(r.Result.Elapsed))
	put(uint64(r.TraceFP))
	put(r.TraceEvents)
	put(uint64(r.ObserveDigest))
	put(r.ObserveChecks)
	put(uint64(r.ObserveViolations))
	return buf.Bytes()
}

// VerifyReplay runs the system `runs` times from the same seed and fails on
// the first observable divergence. Two runs already witness nondeterminism;
// more runs raise the chance of catching divergence that needs an unlucky
// map-iteration order to manifest.
func VerifyReplay(build SystemBuilder, replicas int, seed int64, cfg LoadConfig, runs int) error {
	if runs < 2 {
		return fmt.Errorf("replay: need at least 2 runs to compare, got %d", runs)
	}
	var first *ReplayRun
	for i := 0; i < runs; i++ {
		run, err := ReplayOnce(build, replicas, seed, cfg)
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		if first == nil {
			first = run
			continue
		}
		if err := diffRuns(first, run, i); err != nil {
			return err
		}
	}
	return nil
}

// diffRuns reports the first observable difference between run 0 and run i,
// in terms a protocol author can act on.
func diffRuns(a, b *ReplayRun, i int) error {
	for node := range a.Delivered {
		as, bs := a.Delivered[node], b.Delivered[node]
		n := min(len(as), len(bs))
		for k := 0; k < n; k++ {
			if as[k] != bs[k] {
				return fmt.Errorf("replay diverged: node %d delivered message %d at position %d in run 0 but %d in run %d",
					node, as[k], k, bs[k], i)
			}
		}
		if len(as) != len(bs) {
			return fmt.Errorf("replay diverged: node %d delivered %d messages in run 0 but %d in run %d",
				node, len(as), len(bs), i)
		}
	}
	sa, sb := a.Result.Latency.Samples(), b.Result.Latency.Samples()
	n := min(len(sa), len(sb))
	for k := 0; k < n; k++ {
		if sa[k] != sb[k] {
			return fmt.Errorf("replay diverged: latency sample %d is %v in run 0 but %v in run %d",
				k, sa[k], sb[k], i)
		}
	}
	if len(sa) != len(sb) {
		return fmt.Errorf("replay diverged: run 0 measured %d latency samples, run %d measured %d",
			len(sa), i, len(sb))
	}
	if a.Result.Committed != b.Result.Committed || a.Result.Elapsed != b.Result.Elapsed {
		return fmt.Errorf("replay diverged: run 0 committed %d in %v, run %d committed %d in %v",
			a.Result.Committed, a.Result.Elapsed, i, b.Result.Committed, b.Result.Elapsed)
	}
	if a.TraceEvents != b.TraceEvents {
		return fmt.Errorf("replay diverged: run 0 emitted %d trace events, run %d emitted %d",
			a.TraceEvents, i, b.TraceEvents)
	}
	if a.TraceFP != b.TraceFP {
		return fmt.Errorf("replay diverged: trace fingerprint %s in run 0 but %s in run %d — same deliveries, different event stream (timing or scheduling drift)",
			a.TraceFP.Hex(), b.TraceFP.Hex(), i)
	}
	if a.ObserveViolations != b.ObserveViolations {
		return fmt.Errorf("replay diverged: run 0 reported %d invariant violations, run %d reported %d",
			a.ObserveViolations, i, b.ObserveViolations)
	}
	if a.ObserveChecks != b.ObserveChecks {
		return fmt.Errorf("replay diverged: run 0 performed %d invariant checks, run %d performed %d",
			a.ObserveChecks, i, b.ObserveChecks)
	}
	if a.ObserveDigest != b.ObserveDigest {
		return fmt.Errorf("replay diverged: observer digest %s in run 0 but %s in run %d — same check count, different check operands (shadow-state drift)",
			a.ObserveDigest.Hex(), b.ObserveDigest.Hex(), i)
	}
	if !bytes.Equal(a.Fingerprint(), b.Fingerprint()) {
		return fmt.Errorf("replay diverged: fingerprints differ between run 0 and run %d", i)
	}
	return nil
}
