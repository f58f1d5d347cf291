package observe_test

import (
	"encoding/binary"
	"strings"
	"testing"

	"acuerdo/internal/observe"
)

func newObs(nodes int) *observe.Observer {
	return observe.New(observe.Config{System: "test", Nodes: nodes, Seed: 42})
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

// TestNilObserver pins the disabled state's contract: every hook and every
// accessor is a no-op on a nil receiver. Protocol code calls hooks
// unconditionally, so a panic here would break every observers-off run.
func TestNilObserver(t *testing.T) {
	var o *observe.Observer
	if got := o.RegisterSST("t", 3, 8, nil, nil); got != -1 {
		t.Errorf("nil RegisterSST = %d, want -1", got)
	}
	o.NodeRestart(0, 0)
	o.SSTRow(0, 0, 0, nil)
	o.DerechoDeliver(0, 0, 1, 7)
	o.DerechoViewInstall(0, 0, 1, []int{0, 1, 2})
	o.LogAppend(0, 0, 0, 1, 7)
	o.LogTruncate(0, 0, 0)
	o.CommitAdvance(0, 0, 1)
	o.Deliver(0, 0, 0, 7)
	o.PaxosPromise(0, 0, 1)
	o.PaxosAccept(0, 0, 0, 1, 7)
	o.PaxosChosen(0, 0, 0, 7)
	o.LeaderElected(0, 0, 1)
	o.AcuerdoLeaderWin(0, 0, 1, 0)
	o.AcuerdoCommit(0, 0, 1, 0, 1, 7)
	o.ApusAssign(0, 0, 1, 7)
	o.ApusDeliver(0, 0, 1, 7)
	if o.Digest() != 0 || o.Checks() != 0 || o.ViolationCount() != 0 {
		t.Errorf("nil accessors = (%d, %d, %d), want zeros", o.Digest(), o.Checks(), o.ViolationCount())
	}
	if o.Violations() != nil || o.Report() != "" || o.Counters() != nil {
		t.Error("nil result accessors should return empty values")
	}
}

func TestSSTMonotoneViolation(t *testing.T) {
	o := newObs(3)
	tab := o.RegisterSST("t", 3, 12, []int{0}, []int{8})
	row := make([]byte, 12)
	binary.LittleEndian.PutUint64(row[0:], 10)
	binary.LittleEndian.PutUint32(row[8:], 5)
	o.SSTRow(tab, 1, 100, row)
	// Equal is legal; increase is legal.
	binary.LittleEndian.PutUint32(row[8:], 6)
	o.SSTRow(tab, 1, 200, row)
	if o.ViolationCount() != 0 {
		t.Fatalf("monotone writes flagged:\n%s", o.Report())
	}
	// Regress the u64 cell.
	binary.LittleEndian.PutUint64(row[0:], 9)
	o.SSTRow(tab, 1, 300, row)
	wantViolations(t, o, observe.InvSSTMonotone, 1)
}

func TestViewAgreementViolation(t *testing.T) {
	o := newObs(3)
	o.DerechoViewInstall(0, 100, 2, []int{0, 1, 2})
	o.DerechoViewInstall(1, 110, 2, []int{2, 1, 0}) // same set, different order: ok
	if o.ViolationCount() != 0 {
		t.Fatalf("order-insensitive memberships flagged:\n%s", o.Report())
	}
	o.DerechoViewInstall(2, 120, 2, []int{0, 1})
	wantViolations(t, o, observe.InvViewAgreement, 1)
}

func TestViewMajorityViolation(t *testing.T) {
	o := newObs(5)
	o.DerechoViewInstall(0, 100, 1, []int{0, 1, 2, 3, 4})
	// {0} intersects {0..4} in 1 node — not a majority of 5.
	o.DerechoViewInstall(0, 200, 2, []int{0})
	wantViolations(t, o, observe.InvViewMajority, 1)
}

func TestVirtualSynchronyViolation(t *testing.T) {
	o := newObs(3)
	o.DerechoDeliver(0, 10, 0, 7)
	o.DerechoDeliver(1, 11, 0, 7)
	o.DerechoViewInstall(0, 100, 2, []int{0, 1})
	o.DerechoDeliver(1, 90, 1, 8) // node 1 delivered one more before installing
	o.DerechoViewInstall(1, 110, 2, []int{0, 1})
	// Both the prefix-length and the prefix-hash registries witness the gap.
	wantViolations(t, o, observe.InvVirtualSynchrony, 2)
}

func TestRestartExcludesFromVirtualSynchrony(t *testing.T) {
	o := newObs(3)
	o.DerechoDeliver(0, 10, 0, 7)
	o.DerechoViewInstall(0, 100, 2, []int{0, 1})
	o.NodeRestart(1, 50)
	// Node 1's prefix diverges, but it restarted: legally excluded.
	o.DerechoViewInstall(1, 110, 2, []int{0, 1})
	if o.ViolationCount() != 0 {
		t.Fatalf("restarted node's divergent prefix flagged:\n%s", o.Report())
	}
}

func TestLogMatchingViolation(t *testing.T) {
	o := newObs(3)
	o.LogAppend(0, 10, 0, 1, 7)
	o.LogAppend(1, 11, 0, 1, 7) // same (index, term, id): ok
	o.LogAppend(2, 12, 0, 2, 9) // different term: a different key, ok
	if o.ViolationCount() != 0 {
		t.Fatalf("matching logs flagged:\n%s", o.Report())
	}
	o.LogAppend(1, 20, 0, 2, 8) // (0, term 2) already bound to id 9
	wantViolations(t, o, observe.InvLogMatching, 1)
}

func TestCommitQuorumViolation(t *testing.T) {
	o := newObs(3)
	o.LogAppend(0, 10, 0, 1, 7)
	o.CommitAdvance(0, 20, 1) // only node 0 has the entry: no quorum
	wantViolations(t, o, observe.InvCommitQuorum, 1)
}

func TestCommitQuorumSatisfied(t *testing.T) {
	o := newObs(3)
	o.LogAppend(0, 10, 0, 1, 7)
	o.LogAppend(1, 11, 0, 1, 7)
	o.CommitAdvance(0, 20, 1)
	if o.ViolationCount() != 0 {
		t.Fatalf("majority-replicated commit flagged:\n%s", o.Report())
	}
}

func TestCommitMonotoneViolationAndRestartException(t *testing.T) {
	o := newObs(3)
	for n := 0; n < 2; n++ {
		o.LogAppend(n, 10, 0, 1, 7)
		o.LogAppend(n, 11, 1, 1, 8)
	}
	o.CommitAdvance(0, 20, 2)
	o.NodeRestart(0, 30)
	o.CommitAdvance(0, 40, 1) // rewind across a restart: legal
	if o.ViolationCount() != 0 {
		t.Fatalf("post-restart commit rewind flagged:\n%s", o.Report())
	}
	o.CommitAdvance(0, 50, 2)
	o.CommitAdvance(0, 60, 1) // rewind without a restart: violation
	wantViolations(t, o, observe.InvCommitMonotone, 1)
}

func TestPrefixImmutableTruncateViolation(t *testing.T) {
	o := newObs(3)
	for n := 0; n < 2; n++ {
		o.LogAppend(n, 10, 0, 1, 7)
	}
	o.CommitAdvance(0, 20, 1)
	o.LogTruncate(0, 30, 0) // truncates the committed entry away
	wantViolations(t, o, observe.InvPrefixImmutable, 1)
}

func TestDeliveryContiguityViolation(t *testing.T) {
	o := newObs(3)
	o.Deliver(0, 10, 0, 7)
	o.Deliver(0, 20, 2, 9) // gap: position 1 skipped
	wantViolations(t, o, observe.InvDeliveryContiguous, 1)
}

func TestDeliveryAgreementViolation(t *testing.T) {
	o := newObs(3)
	o.Deliver(0, 10, 0, 7)
	o.Deliver(1, 20, 0, 9) // same position, different message
	wantViolations(t, o, observe.InvDeliveryAgreement, 1)
}

func TestBallotMonotoneViolation(t *testing.T) {
	o := newObs(3)
	o.PaxosPromise(0, 10, 5)
	o.PaxosPromise(0, 20, 3)
	wantViolations(t, o, observe.InvBallotMonotone, 1)
}

func TestBallotSingleValueViolation(t *testing.T) {
	o := newObs(3)
	o.PaxosAccept(0, 10, 0, 1, 7)
	o.PaxosAccept(1, 20, 0, 1, 9) // same (instance, ballot), different value
	wantViolations(t, o, observe.InvBallotSingleValue, 1)
}

func TestChosenAgreementViolation(t *testing.T) {
	o := newObs(3)
	o.PaxosChosen(0, 10, 0, 7)
	o.PaxosChosen(1, 20, 0, 9)
	wantViolations(t, o, observe.InvChosenAgreement, 1)
}

func TestLeaderUniquenessViolation(t *testing.T) {
	o := newObs(3)
	o.LeaderElected(0, 10, 5)
	o.LeaderElected(1, 30, 5) // a second winner for term 5
	wantViolations(t, o, observe.InvLeaderUniqueness, 1)
}

// TestLeaderUniquenessReelection: a term is won once per run. The same node
// winning it a second time — re-elected, after losing its state, into an
// epoch it already led — is the amnesia failure of DESIGN §7, caught at the
// election; its digest fold is the one every win makes.
func TestLeaderUniquenessReelection(t *testing.T) {
	o := newObs(3)
	o.AcuerdoLeaderWin(2, 200720, 1, 2)
	o.AcuerdoLeaderWin(0, 300000, 2, 0)
	if o.ViolationCount() != 0 {
		t.Fatalf("distinct epochs flagged:\n%s", o.Report())
	}
	o.AcuerdoLeaderWin(2, 60000000, 1, 2)
	wantViolations(t, o, observe.InvLeaderUniqueness, 1)
	if got, want := o.Violations()[0].Detail, "node 2 won term 4294967298 again: it already led it at t=200720ns"; got != want {
		t.Fatalf("witness %q, want %q", got, want)
	}
}

func TestAcuerdoLeaderWinMismatch(t *testing.T) {
	o := newObs(3)
	o.AcuerdoLeaderWin(1, 10, 3, 2) // node 1 claims an epoch naming node 2
	wantViolations(t, o, observe.InvLeaderUniqueness, 1)
}

func TestAcuerdoCommitMonotoneViolation(t *testing.T) {
	o := newObs(3)
	o.AcuerdoCommit(0, 10, 2, 0, 5, 7)
	o.AcuerdoCommit(0, 20, 3, 1, 0, 8) // new epoch, count reset: legal
	if o.ViolationCount() != 0 {
		t.Fatalf("new-epoch commit flagged:\n%s", o.Report())
	}
	o.AcuerdoCommit(0, 30, 2, 0, 6, 9) // header below the committed one
	wantViolations(t, o, observe.InvCommitMonotone, 1)
}

func TestApusAssignImmutableViolation(t *testing.T) {
	o := newObs(3)
	o.ApusAssign(0, 10, 1, 7)
	o.ApusAssign(0, 20, 1, 9) // slot 1 reassigned
	wantViolations(t, o, observe.InvPrefixImmutable, 1)
}

// TestDigestDeterminism pins the digest contract: identical hook sequences
// produce identical digests, and any difference in operands shows up.
func TestDigestDeterminism(t *testing.T) {
	run := func(id int64) *observe.Observer {
		o := newObs(3)
		tab := o.RegisterSST("t", 3, 8, []int{0}, nil)
		row := make([]byte, 8)
		binary.LittleEndian.PutUint64(row, 9)
		o.SSTRow(tab, 0, 50, row)
		o.LogAppend(0, 100, 0, 1, id)
		o.LogAppend(1, 110, 0, 1, id)
		o.CommitAdvance(0, 120, 1)
		o.Deliver(0, 130, 0, id)
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
	o.PaxosChosen(0, 10, 4, 7)
	o.PaxosChosen(1, 99, 4, 9)
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
	o.PaxosChosen(0, 10, 0, 7)
	for i := 0; i < 100; i++ {
		o.PaxosChosen(1, int64(20+i), 0, 9)
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
	o.PaxosChosen(0, 10, 0, 7)
	o.PaxosChosen(1, 20, 0, 9)
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
		{"delivery position 0" + tail, func(o *observe.Observer, n int, at, id int64) { o.Deliver(n, at, 0, id) }},
		{"log entry (index 3, term 2)" + tail, func(o *observe.Observer, n int, at, id int64) { o.LogAppend(n, at, 3, 2, id) }},
		{"log entry (index 4, term 2)" + tail, func(o *observe.Observer, n int, at, id int64) { o.LogRecover(n, at, 4, 2, id) }},
		{"paxos (instance 5, ballot 6) value" + tail, func(o *observe.Observer, n int, at, id int64) { o.PaxosAccept(n, at, 5, 6, id) }},
		{"paxos instance 5 chosen value" + tail, func(o *observe.Observer, n int, at, id int64) { o.PaxosChosen(n, at, 5, id) }},
		{"leader for term 8: node 1 recorded 1 but node 0 recorded 0 at t=10ns", func(o *observe.Observer, n int, at, _ int64) { o.LeaderElected(n, at, 8) }},
		{"acuerdo header (round 2, ldr 1, cnt 3) payload" + tail, func(o *observe.Observer, n int, at, id int64) { o.AcuerdoCommit(n, at, 2, 1, 3, id) }},
		{"apus slot 4 assignment" + tail, func(o *observe.Observer, n int, at, id int64) { o.ApusAssign(n, at, 4, id) }},
		{"apus slot 0 delivered payload" + tail, func(o *observe.Observer, n int, at, id int64) { o.ApusDeliver(n, at, 0, id) }},
		{"derecho delivery position 0" + tail, func(o *observe.Observer, n int, at, id int64) { o.DerechoDeliver(n, at, 0, id) }},
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
	o.DerechoDeliver(0, 5, 0, 7)
	o.DerechoViewInstall(0, 10, 2, []int{0, 1, 2})
	o.DerechoDeliver(1, 6, 0, 7)
	o.DerechoDeliver(1, 7, 0, 8)
	o.DerechoViewInstall(1, 20, 2, []int{0, 1})
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
