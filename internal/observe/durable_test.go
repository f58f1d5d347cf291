package observe_test

import (
	"testing"

	"acuerdo/internal/observe"
	"acuerdo/internal/trace"
)

// replicate appends entry (index, term, id) at a quorum of nodes so commit
// advances cleanly in the durability scenarios below.
func replicate(o *observe.Observer, index, term uint64, id int64) {
	o.Observe(trace.Fact{Kind: trace.Append, Replica: 0, At: 10, Term: term, Index: index, ID: id})
	o.Observe(trace.Fact{Kind: trace.Append, Replica: 1, At: 11, Term: term, Index: index, ID: id})
}

// TestDurableFrontierMonotone: the frontier may re-report and grow, never
// shrink, while the device is healthy.
func TestDurableFrontierMonotone(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Durable, Replica: 0, At: 10, Index: 3})
	o.Observe(trace.Fact{Kind: trace.Durable, Replica: 0, At: 20, Index: 3}) // re-report: ok
	o.Observe(trace.Fact{Kind: trace.Durable, Replica: 0, At: 30, Index: 5}) // grow: ok
	if o.ViolationCount() != 0 {
		t.Fatalf("monotone frontier flagged:\n%s", o.Report())
	}
	o.Observe(trace.Fact{Kind: trace.Durable, Replica: 0, At: 40, Index: 4})
	wantViolations(t, o, observe.InvDurablePrefix, 1)
}

// TestDurablePrefixCatchesLostCommittedEntry is the seeded
// lost-committed-entry mutation: a node acknowledges entries as durable,
// crashes, and recovers claiming a frontier below the durable floor. The
// durable-prefix invariant must catch it.
func TestDurablePrefixCatchesLostCommittedEntry(t *testing.T) {
	o := newObs(3)
	for i := uint64(0); i < 5; i++ {
		replicate(o, i, 1, int64(100+i))
		o.Observe(trace.Fact{Kind: trace.Advance, Replica: 0, At: 20, Index: i + 1})
	}
	o.Observe(trace.Fact{Kind: trace.Durable, Replica: 0, At: 30, Index: 5}) // disk acknowledged all 5 committed entries

	o.Observe(trace.Fact{Kind: trace.Restart, Replica: 0, At: 40})
	for i := uint64(0); i < 3; i++ { // the mutation: two durable entries vanish
		o.Observe(trace.Fact{Kind: trace.Recover, Replica: 0, At: 50, Term: 1, Index: i, ID: int64(100 + i)})
	}
	o.Observe(trace.Fact{Kind: trace.Recovered, Replica: 0, At: 60, Term: 3, Index: 3})
	wantViolations(t, o, observe.InvDurablePrefix, 1)
}

// TestDurableRecoveryClean: a faithful recovery — full durable prefix back,
// volatile tail dropped — raises nothing.
func TestDurableRecoveryClean(t *testing.T) {
	o := newObs(3)
	for i := uint64(0); i < 4; i++ {
		replicate(o, i, 1, int64(100+i))
	}
	o.Observe(trace.Fact{Kind: trace.Advance, Replica: 0, At: 20, Index: 3})
	o.Observe(trace.Fact{Kind: trace.Durable, Replica: 0, At: 30, Index: 3})

	o.Observe(trace.Fact{Kind: trace.Restart, Replica: 0, At: 40})
	for i := uint64(0); i < 3; i++ { // entry 3 was volatile; legally gone
		o.Observe(trace.Fact{Kind: trace.Recover, Replica: 0, At: 50, Term: 1, Index: i, ID: int64(100 + i)})
	}
	o.Observe(trace.Fact{Kind: trace.Recovered, Replica: 0, At: 60, Term: 3, Index: 3})
	if o.ViolationCount() != 0 {
		t.Fatalf("clean recovery flagged:\n%s", o.Report())
	}
	// Post-recovery amnesty is gone: a commit rewind is a violation again.
	o.Observe(trace.Fact{Kind: trace.Advance, Replica: 0, At: 70, Index: 2})
	wantViolations(t, o, observe.InvCommitMonotone, 1)
}

// TestDiskFaultResetsDurableFloor: corruption/wipe legitimately destroys
// durable state, so a recovery below the old floor is not a violation.
func TestDiskFaultResetsDurableFloor(t *testing.T) {
	o := newObs(3)
	for i := uint64(0); i < 3; i++ {
		replicate(o, i, 1, int64(100+i))
	}
	o.Observe(trace.Fact{Kind: trace.Advance, Replica: 0, At: 20, Index: 3})
	o.Observe(trace.Fact{Kind: trace.Durable, Replica: 0, At: 30, Index: 3})
	o.Observe(trace.Fact{Kind: trace.DiskFault, Replica: 0, At: 35}) // the wipe
	o.Observe(trace.Fact{Kind: trace.Restart, Replica: 0, At: 40})
	o.Observe(trace.Fact{Kind: trace.Recovered, Replica: 0, At: 60, Term: 0, Index: 0}) // nothing recovered — and that's legal now
	if o.ViolationCount() != 0 {
		t.Fatalf("post-fault empty recovery flagged:\n%s", o.Report())
	}
}

// TestRecoveredPrefixDivergence: a recovered entry that differs from the
// pre-crash shadow log is a recovered-prefix violation.
func TestRecoveredPrefixDivergence(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Append, Replica: 0, At: 10, Term: 1, Index: 0, ID: 100})
	o.Observe(trace.Fact{Kind: trace.Restart, Replica: 0, At: 20})
	o.Observe(trace.Fact{Kind: trace.Recover, Replica: 0, At: 30, Term: 1, Index: 0, ID: 999}) // disk returned a different payload
	if o.ViolationCount() == 0 {
		t.Fatal("divergent recovered entry not flagged")
	}
	var sawRecovered bool
	for _, v := range o.Violations() {
		if v.Invariant == observe.InvRecoveredPrefix {
			sawRecovered = true
		}
	}
	if !sawRecovered {
		t.Fatalf("no recovered-prefix violation in:\n%s", o.Report())
	}
}

// TestRecoverDoneFrontierBeyondLog: claiming a commit frontier the
// recovered log does not cover is a recovered-prefix violation.
func TestRecoverDoneFrontierBeyondLog(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Restart, Replica: 0, At: 10})
	o.Observe(trace.Fact{Kind: trace.Recovered, Replica: 0, At: 20, Term: 5, Index: 2})
	wantViolations(t, o, observe.InvRecoveredPrefix, 1)
}

// TestNilObserverDurableHooks extends the nil-receiver contract to the
// durability hooks.
func TestNilObserverDurableHooks(t *testing.T) {
	var o *observe.Observer
	o.Observe(trace.Fact{Kind: trace.Durable, Replica: 0, At: 0, Index: 1})
	o.Observe(trace.Fact{Kind: trace.DiskFault, Replica: 0, At: 0})
	o.Observe(trace.Fact{Kind: trace.Recover, Replica: 0, At: 0, Term: 1, Index: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Recovered, Replica: 0, At: 0, Term: 1, Index: 1})
	if o.Digest() != 0 || o.Checks() != 0 {
		t.Error("nil durability hooks mutated state")
	}
}
