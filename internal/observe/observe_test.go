package observe_test

import (
	"encoding/binary"
	"strings"
	"testing"

	"acuerdo/internal/observe"
	"acuerdo/internal/trace"
)

func newObs(nodes int) *observe.Observer {
	return observe.New(observe.Config{System: "test", Nodes: nodes, Seed: 42})
}

// members is the view membership an Install fact carries: the set of ids.
func members(ids ...int) uint64 {
	var set uint64
	for _, id := range ids {
		set |= 1 << id
	}
	return set
}

// wantViolations fails unless o recorded exactly n violations, all of inv.
func wantViolations(t *testing.T, o *observe.Observer, inv observe.Invariant, n int) {
	t.Helper()
	if got := o.ViolationCount(); got != int64(n) {
		t.Fatalf("ViolationCount() = %d, want %d\nreport:\n%s", got, n, o.Report())
	}
	for _, v := range o.Violations() {
		if v.Invariant != inv {
			t.Errorf("violation invariant = %s, want %s: %s", v.Invariant, inv, v)
		}
	}
}

// TestNilObserver pins the disabled state's contract: every fact and every
// accessor is a no-op on a nil receiver, so a nil *Observer a group was
// handed by mistake never panics an observers-off run.
func TestNilObserver(t *testing.T) {
	var o *observe.Observer
	o.Observe(trace.Fact{Kind: trace.Restart, Replica: 0, At: 0})
	o.Observe(trace.Fact{Kind: trace.SSTWrite, Replica: 0, At: 0, Cells: &trace.Cells{Table: "t"}, Row: make([]byte, 8)})
	o.Observe(trace.Fact{Kind: trace.DeliverView, Replica: 0, At: 0, Term: 1, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Install, Replica: 0, At: 0, Term: 1, Index: members(0, 1, 2)})
	o.Observe(trace.Fact{Kind: trace.Append, Replica: 0, At: 0, Term: 1, Index: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Truncate, Replica: 0, At: 0, Index: 0})
	o.Observe(trace.Fact{Kind: trace.Advance, Replica: 0, At: 0, Index: 1})
	o.Observe(trace.Fact{Kind: trace.Deliver, Replica: 0, At: 0, Index: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Promise, Replica: 0, At: 0, Term: 1})
	o.Observe(trace.Fact{Kind: trace.Vote, Replica: 0, At: 0, Term: 1, Index: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Learn, Replica: 0, At: 0, Index: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Win, Replica: 0, At: 0, Term: 1, ID: 0})
	o.Observe(trace.Fact{Kind: trace.Win, Replica: 0, At: 0, Term: 1<<32 | 0, ID: 0})
	o.Observe(trace.Fact{Kind: trace.DeliverHeader, Replica: 0, At: 0, Term: 1<<32 | 0, Index: 1, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Assign, Replica: 0, At: 0, Index: 1, ID: 7})
	o.Observe(trace.Fact{Kind: trace.DeliverSlot, Replica: 0, At: 0, Index: 1, ID: 7})
	if o.Digest() != 0 || o.Checks() != 0 || o.ViolationCount() != 0 {
		t.Errorf("nil accessors = (%d, %d, %d), want zeros", o.Digest(), o.Checks(), o.ViolationCount())
	}
	if o.Violations() != nil || o.Report() != "" || o.Counters() != nil {
		t.Error("nil result accessors should return empty values")
	}
}

func TestSSTMonotoneViolation(t *testing.T) {
	o := newObs(3)
	tab := &trace.Cells{Table: "t", U64: []int{0}, U32: []int{8}}
	row := make([]byte, 12)
	binary.LittleEndian.PutUint64(row[0:], 10)
	binary.LittleEndian.PutUint32(row[8:], 5)
	o.Observe(trace.Fact{Kind: trace.SSTWrite, Replica: 1, At: 100, Cells: tab, Row: row})
	// Equal is legal; increase is legal.
	binary.LittleEndian.PutUint32(row[8:], 6)
	o.Observe(trace.Fact{Kind: trace.SSTWrite, Replica: 1, At: 200, Cells: tab, Row: row})
	if o.ViolationCount() != 0 {
		t.Fatalf("monotone writes flagged:\n%s", o.Report())
	}
	// Regress the u64 cell.
	binary.LittleEndian.PutUint64(row[0:], 9)
	o.Observe(trace.Fact{Kind: trace.SSTWrite, Replica: 1, At: 300, Cells: tab, Row: row})
	wantViolations(t, o, observe.InvSSTMonotone, 1)
}

func TestViewAgreementViolation(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Install, Replica: 0, At: 100, Term: 2, Index: members(0, 1, 2)})
	o.Observe(trace.Fact{Kind: trace.Install, Replica: 1, At: 110, Term: 2, Index: members(2, 1, 0)}) // same set, different order: ok
	if o.ViolationCount() != 0 {
		t.Fatalf("order-insensitive memberships flagged:\n%s", o.Report())
	}
	o.Observe(trace.Fact{Kind: trace.Install, Replica: 2, At: 120, Term: 2, Index: members(0, 1)})
	wantViolations(t, o, observe.InvViewAgreement, 1)
}

func TestViewMajorityViolation(t *testing.T) {
	o := newObs(5)
	o.Observe(trace.Fact{Kind: trace.Install, Replica: 0, At: 100, Term: 1, Index: members(0, 1, 2, 3, 4)})
	// {0} intersects {0..4} in 1 node — not a majority of 5.
	o.Observe(trace.Fact{Kind: trace.Install, Replica: 0, At: 200, Term: 2, Index: members(0)})
	wantViolations(t, o, observe.InvViewMajority, 1)
}

func TestVirtualSynchronyViolation(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.DeliverView, Replica: 0, At: 10, Term: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.DeliverView, Replica: 1, At: 11, Term: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Install, Replica: 0, At: 100, Term: 2, Index: members(0, 1)})
	o.Observe(trace.Fact{Kind: trace.DeliverView, Replica: 1, At: 90, Term: 1, ID: 8}) // node 1 delivered one more before installing
	o.Observe(trace.Fact{Kind: trace.Install, Replica: 1, At: 110, Term: 2, Index: members(0, 1)})
	// Both the prefix-length and the prefix-hash registries witness the gap.
	wantViolations(t, o, observe.InvVirtualSynchrony, 2)
}

func TestRestartExcludesFromVirtualSynchrony(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.DeliverView, Replica: 0, At: 10, Term: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Install, Replica: 0, At: 100, Term: 2, Index: members(0, 1)})
	o.Observe(trace.Fact{Kind: trace.Restart, Replica: 1, At: 50})
	// Node 1's prefix diverges, but it restarted: legally excluded.
	o.Observe(trace.Fact{Kind: trace.Install, Replica: 1, At: 110, Term: 2, Index: members(0, 1)})
	if o.ViolationCount() != 0 {
		t.Fatalf("restarted node's divergent prefix flagged:\n%s", o.Report())
	}
}

func TestLogMatchingViolation(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Append, Replica: 0, At: 10, Term: 1, Index: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Append, Replica: 1, At: 11, Term: 1, Index: 0, ID: 7}) // same (index, term, id): ok
	o.Observe(trace.Fact{Kind: trace.Append, Replica: 2, At: 12, Term: 2, Index: 0, ID: 9}) // different term: a different key, ok
	if o.ViolationCount() != 0 {
		t.Fatalf("matching logs flagged:\n%s", o.Report())
	}
	o.Observe(trace.Fact{Kind: trace.Append, Replica: 1, At: 20, Term: 2, Index: 0, ID: 8}) // (0, term 2) already bound to id 9
	wantViolations(t, o, observe.InvLogMatching, 1)
}

func TestCommitQuorumViolation(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Append, Replica: 0, At: 10, Term: 1, Index: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Advance, Replica: 0, At: 20, Index: 1}) // only node 0 has the entry: no quorum
	wantViolations(t, o, observe.InvCommitQuorum, 1)
}

func TestCommitQuorumSatisfied(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Append, Replica: 0, At: 10, Term: 1, Index: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Append, Replica: 1, At: 11, Term: 1, Index: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Advance, Replica: 0, At: 20, Index: 1})
	if o.ViolationCount() != 0 {
		t.Fatalf("majority-replicated commit flagged:\n%s", o.Report())
	}
}

func TestCommitMonotoneViolationAndRestartException(t *testing.T) {
	o := newObs(3)
	for n := 0; n < 2; n++ {
		o.Observe(trace.Fact{Kind: trace.Append, Replica: n, At: 10, Term: 1, Index: 0, ID: 7})
		o.Observe(trace.Fact{Kind: trace.Append, Replica: n, At: 11, Term: 1, Index: 1, ID: 8})
	}
	o.Observe(trace.Fact{Kind: trace.Advance, Replica: 0, At: 20, Index: 2})
	o.Observe(trace.Fact{Kind: trace.Restart, Replica: 0, At: 30})
	o.Observe(trace.Fact{Kind: trace.Advance, Replica: 0, At: 40, Index: 1}) // rewind across a restart: legal
	if o.ViolationCount() != 0 {
		t.Fatalf("post-restart commit rewind flagged:\n%s", o.Report())
	}
	o.Observe(trace.Fact{Kind: trace.Advance, Replica: 0, At: 50, Index: 2})
	o.Observe(trace.Fact{Kind: trace.Advance, Replica: 0, At: 60, Index: 1}) // rewind without a restart: violation
	wantViolations(t, o, observe.InvCommitMonotone, 1)
}

func TestPrefixImmutableTruncateViolation(t *testing.T) {
	o := newObs(3)
	for n := 0; n < 2; n++ {
		o.Observe(trace.Fact{Kind: trace.Append, Replica: n, At: 10, Term: 1, Index: 0, ID: 7})
	}
	o.Observe(trace.Fact{Kind: trace.Advance, Replica: 0, At: 20, Index: 1})
	o.Observe(trace.Fact{Kind: trace.Truncate, Replica: 0, At: 30, Index: 0}) // truncates the committed entry away
	wantViolations(t, o, observe.InvPrefixImmutable, 1)
}

func TestDeliveryContiguityViolation(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Deliver, Replica: 0, At: 10, Index: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Deliver, Replica: 0, At: 20, Index: 2, ID: 9}) // gap: position 1 skipped
	wantViolations(t, o, observe.InvDeliveryContiguous, 1)
}

func TestDeliveryAgreementViolation(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Deliver, Replica: 0, At: 10, Index: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Deliver, Replica: 1, At: 20, Index: 0, ID: 9}) // same position, different message
	wantViolations(t, o, observe.InvDeliveryAgreement, 1)
}

func TestBallotMonotoneViolation(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Promise, Replica: 0, At: 10, Term: 5})
	o.Observe(trace.Fact{Kind: trace.Promise, Replica: 0, At: 20, Term: 3})
	wantViolations(t, o, observe.InvBallotMonotone, 1)
}

func TestBallotSingleValueViolation(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Vote, Replica: 0, At: 10, Term: 1, Index: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Vote, Replica: 1, At: 20, Term: 1, Index: 0, ID: 9}) // same (instance, ballot), different value
	wantViolations(t, o, observe.InvBallotSingleValue, 1)
}

func TestChosenAgreementViolation(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Learn, Replica: 0, At: 10, Index: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Learn, Replica: 1, At: 20, Index: 0, ID: 9})
	wantViolations(t, o, observe.InvChosenAgreement, 1)
}

func TestLeaderUniquenessViolation(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Win, Replica: 0, At: 10, Term: 5, ID: 0})
	o.Observe(trace.Fact{Kind: trace.Win, Replica: 1, At: 30, Term: 5, ID: 1}) // a second winner for term 5
	wantViolations(t, o, observe.InvLeaderUniqueness, 1)
}

// TestLeaderUniquenessReelection: a term is won once per run. The same node
// winning it a second time — re-elected, after losing its state, into an
// epoch it already led — is the amnesia failure of DESIGN §7, caught at the
// election; its digest fold is the one every win makes.
func TestLeaderUniquenessReelection(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Win, Replica: 2, At: 200720, Term: 1<<32 | 2, ID: 2})
	o.Observe(trace.Fact{Kind: trace.Win, Replica: 0, At: 300000, Term: 2<<32 | 0, ID: 0})
	if o.ViolationCount() != 0 {
		t.Fatalf("distinct epochs flagged:\n%s", o.Report())
	}
	o.Observe(trace.Fact{Kind: trace.Win, Replica: 2, At: 60000000, Term: 1<<32 | 2, ID: 2})
	wantViolations(t, o, observe.InvLeaderUniqueness, 1)
	if got, want := o.Violations()[0].Detail, "node 2 won term 4294967298 again: it already led it at t=200720ns"; got != want {
		t.Fatalf("witness %q, want %q", got, want)
	}
}

func TestAcuerdoLeaderWinMismatch(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Win, Replica: 1, At: 10, Term: 3<<32 | 2, ID: 2}) // node 1 claims an epoch naming node 2
	wantViolations(t, o, observe.InvLeaderUniqueness, 1)
}

func TestAcuerdoCommitMonotoneViolation(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.DeliverHeader, Replica: 0, At: 10, Term: 2<<32 | 0, Index: 5, ID: 7})
	o.Observe(trace.Fact{Kind: trace.DeliverHeader, Replica: 0, At: 20, Term: 3<<32 | 1, Index: 0, ID: 8}) // new epoch, count reset: legal
	if o.ViolationCount() != 0 {
		t.Fatalf("new-epoch commit flagged:\n%s", o.Report())
	}
	o.Observe(trace.Fact{Kind: trace.DeliverHeader, Replica: 0, At: 30, Term: 2<<32 | 0, Index: 6, ID: 9}) // header below the committed one
	wantViolations(t, o, observe.InvCommitMonotone, 1)
}

func TestApusAssignImmutableViolation(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Assign, Replica: 0, At: 10, Index: 1, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Assign, Replica: 0, At: 20, Index: 1, ID: 9}) // slot 1 reassigned
	wantViolations(t, o, observe.InvPrefixImmutable, 1)
}

// TestDigestDeterminism pins the digest contract: identical hook sequences
// produce identical digests, and any difference in operands shows up.
func TestDigestDeterminism(t *testing.T) {
	run := func(id int64) *observe.Observer {
		o := newObs(3)
		tab := &trace.Cells{Table: "t", U64: []int{0}}
		row := make([]byte, 8)
		binary.LittleEndian.PutUint64(row, 9)
		o.Observe(trace.Fact{Kind: trace.SSTWrite, Replica: 0, At: 50, Cells: tab, Row: row})
		o.Observe(trace.Fact{Kind: trace.Append, Replica: 0, At: 100, Term: 1, Index: 0, ID: id})
		o.Observe(trace.Fact{Kind: trace.Append, Replica: 1, At: 110, Term: 1, Index: 0, ID: id})
		o.Observe(trace.Fact{Kind: trace.Advance, Replica: 0, At: 120, Index: 1})
		o.Observe(trace.Fact{Kind: trace.Deliver, Replica: 0, At: 130, Index: 0, ID: id})
		return o
	}
	a, b := run(7), run(7)
	if a.Digest() != b.Digest() || a.Checks() != b.Checks() {
		t.Errorf("same sequence digests differ: (%016x, %d) vs (%016x, %d)",
			a.Digest(), a.Checks(), b.Digest(), b.Checks())
	}
	if c := run(8); c.Digest() == a.Digest() {
		t.Error("different operands produced the same digest")
	}
}

// TestViolationReportContents pins the report format a failing chaos run
// prints: system, invariant name, node, time, seed, and witness operands.
func TestViolationReportContents(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Learn, Replica: 0, At: 10, Index: 4, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Learn, Replica: 1, At: 99, Index: 4, ID: 9})
	vs := o.Violations()
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1", len(vs))
	}
	v := vs[0]
	if v.System != "test" || v.Node != 1 || v.At != 99 || v.Seed != 42 {
		t.Errorf("violation metadata = %+v", v)
	}
	rep := o.Report()
	for _, want := range []string{"chosen-agreement", "seed=42", "node 1", "instance 4"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestViolationCap checks that reports are capped while the count keeps
// totalling every violation.
func TestViolationCap(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Learn, Replica: 0, At: 10, Index: 0, ID: 7})
	for i := 0; i < 100; i++ {
		o.Observe(trace.Fact{Kind: trace.Learn, Replica: 1, At: int64(20 + i), Index: 0, ID: 9})
	}
	if got := o.ViolationCount(); got != 100 {
		t.Errorf("ViolationCount() = %d, want 100", got)
	}
	if got := len(o.Violations()); got > 64 {
		t.Errorf("retained %d reports, want <= 64", got)
	}
	if !strings.Contains(o.Report(), "more violations past the retention cap") {
		t.Error("report missing the truncation note")
	}
}

// TestCountersAndMetrics checks the per-invariant tallies.
func TestCountersAndMetrics(t *testing.T) {
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.Learn, Replica: 0, At: 10, Index: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Learn, Replica: 1, At: 20, Index: 0, ID: 9})
	var found bool
	for _, c := range o.Counters() {
		if c.Invariant == observe.InvChosenAgreement {
			found = true
			if c.Checks != 2 || c.Violations != 1 {
				t.Errorf("chosen-agreement tally = %+v, want 2 checks, 1 violation", c)
			}
		}
	}
	if !found {
		t.Fatal("chosen-agreement missing from Counters()")
	}
}

// TestRegisterWitnessText pins the witness every first-writer-wins register
// produces. The text is built only once a check fails, from the register's
// key rather than the hook's arguments, and chaos artifacts carry it
// (violation_reports), so it may not drift.
func TestRegisterWitnessText(t *testing.T) {
	const tail = ": node 1 recorded 9 but node 0 recorded 7 at t=10ns"
	for _, tc := range []struct {
		want string
		hook func(o *observe.Observer, node int, at, id int64)
	}{
		{"delivery position 0" + tail, func(o *observe.Observer, n int, at, id int64) {
			o.Observe(trace.Fact{Kind: trace.Deliver, Replica: n, At: at, Index: 0, ID: id})
		}},
		{"log entry (index 3, term 2)" + tail, func(o *observe.Observer, n int, at, id int64) {
			o.Observe(trace.Fact{Kind: trace.Append, Replica: n, At: at, Term: 2, Index: 3, ID: id})
		}},
		{"log entry (index 4, term 2)" + tail, func(o *observe.Observer, n int, at, id int64) {
			o.Observe(trace.Fact{Kind: trace.Recover, Replica: n, At: at, Term: 2, Index: 4, ID: id})
		}},
		{"paxos (instance 5, ballot 6) value" + tail, func(o *observe.Observer, n int, at, id int64) {
			o.Observe(trace.Fact{Kind: trace.Vote, Replica: n, At: at, Term: 6, Index: 5, ID: id})
		}},
		{"paxos instance 5 chosen value" + tail, func(o *observe.Observer, n int, at, id int64) {
			o.Observe(trace.Fact{Kind: trace.Learn, Replica: n, At: at, Index: 5, ID: id})
		}},
		{"leader for term 8: node 1 recorded 1 but node 0 recorded 0 at t=10ns", func(o *observe.Observer, n int, at, _ int64) {
			o.Observe(trace.Fact{Kind: trace.Win, Replica: n, At: at, Term: 8, ID: int64(n)})
		}},
		{"acuerdo header (round 2, ldr 1, cnt 3) payload" + tail, func(o *observe.Observer, n int, at, id int64) {
			o.Observe(trace.Fact{Kind: trace.DeliverHeader, Replica: n, At: at, Term: 2<<32 | 1, Index: 3, ID: id})
		}},
		{"apus slot 4 assignment" + tail, func(o *observe.Observer, n int, at, id int64) {
			o.Observe(trace.Fact{Kind: trace.Assign, Replica: n, At: at, Index: 4, ID: id})
		}},
		{"apus slot 0 delivered payload" + tail, func(o *observe.Observer, n int, at, id int64) {
			o.Observe(trace.Fact{Kind: trace.DeliverSlot, Replica: n, At: at, Index: 0, ID: id})
		}},
		{"derecho delivery position 0" + tail, func(o *observe.Observer, n int, at, id int64) {
			o.Observe(trace.Fact{Kind: trace.DeliverView, Replica: n, At: at, Term: 0, ID: id})
		}},
	} {
		o := newObs(3)
		tc.hook(o, 0, 10, 7)
		tc.hook(o, 1, 20, 9) // node 1 disagrees
		vs := o.Violations()
		if len(vs) == 0 || vs[len(vs)-1].Detail != tc.want {
			t.Errorf("witnesses %+v, want the last to read %q", vs, tc.want)
		}
	}

	// Derecho's view registers: node 1 installs view 2 with another
	// membership after delivering one message more than node 0 had.
	o := newObs(3)
	o.Observe(trace.Fact{Kind: trace.DeliverView, Replica: 0, At: 5, Term: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.Install, Replica: 0, At: 10, Term: 2, Index: members(0, 1, 2)})
	o.Observe(trace.Fact{Kind: trace.DeliverView, Replica: 1, At: 6, Term: 0, ID: 7})
	o.Observe(trace.Fact{Kind: trace.DeliverView, Replica: 1, At: 7, Term: 0, ID: 8})
	o.Observe(trace.Fact{Kind: trace.Install, Replica: 1, At: 20, Term: 2, Index: members(0, 1)})
	vs := o.Violations()
	want := []string{ // the membership and prefix hashes are opaque operands
		"derecho view 2 membership: node 1 recorded ",
		"derecho view 2 delivered-prefix length: node 1 recorded 2 but node 0 recorded 1 at t=10ns",
		"derecho view 2 delivered-prefix hash: node 1 recorded ",
	}
	if len(vs) != len(want) {
		t.Fatalf("%d derecho view witnesses, want %d:\n%s", len(vs), len(want), o.Report())
	}
	for i, prefix := range want {
		if !strings.HasPrefix(vs[i].Detail, prefix) {
			t.Errorf("derecho view witness %d = %q, want prefix %q", i, vs[i].Detail, prefix)
		}
	}
}
