package observe_test

import (
	"go/build"
	"slices"
	"testing"

	"acuerdo/internal/observe"
	"acuerdo/internal/trace"
)

// TestFactAllocFree pins the one protocol event's cost: a fact with no
// subscriber and no tracer allocates nothing, and neither does one read by an
// observer and marked by a tracer once their state has settled. The
// subscriber gets the fact by value: a pointer to it handed to an interface
// method would escape and cost an allocation per fact.
func TestFactAllocFree(t *testing.T) {
	cells := &trace.Cells{Table: "t", U64: []int{0}}
	row := make([]byte, 8)
	facts := []trace.Fact{
		{Kind: trace.Propose, Replica: 0, Node: 4, At: 10, Term: 1 << 32, Index: 1, ID: 7},
		{Kind: trace.Accept, Replica: 1, Node: 5, At: 11, Term: 1 << 32, Index: 1, ID: 7},
		{Kind: trace.Replicate, Replica: 1, Node: 5, At: 11, Term: 1, Index: 0, ID: 7},
		{Kind: trace.CommitHeader, Replica: 0, Node: 4, At: 12, Term: 1 << 32, Index: 1, ID: 7},
		{Kind: trace.DeliverHeader, Replica: 1, Node: 5, At: 13, Term: 1 << 32, Index: 1, ID: 7},
		{Kind: trace.Suspect, Replica: 2, Node: 6, At: 14, Term: 1 << 32},
		{Kind: trace.Durable, Replica: 0, Node: 4, At: 15, Index: 1},
		{Kind: trace.SSTWrite, Replica: 0, Node: 4, At: 16, Cells: cells, Row: row},
	}
	emitAll := func(tr *trace.Tracer, sub trace.Subscriber) {
		for _, f := range facts {
			trace.Emit(tr, sub, &f)
		}
	}

	if n := testing.AllocsPerRun(100, func() { emitAll(nil, nil) }); n != 0 {
		t.Errorf("a fact with no subscriber and no tracer: %.1f allocations, want 0", n)
	}

	obs := observe.New(observe.Config{System: "test", Nodes: 3, Seed: 1})
	tr := trace.New(trace.FingerprintRing)
	emitAll(tr, obs) // first sight: shadow rows, registers, stage records
	if n := testing.AllocsPerRun(100, func() { emitAll(tr, obs) }); n != 0 {
		t.Errorf("a fact read by an observer and marked by a tracer: %.1f allocations in steady state, want 0", n)
	}
	if obs.ViolationCount() != 0 {
		t.Fatalf("the steady-state facts violate an invariant:\n%s", obs.Report())
	}
}

// TestProtocolsDoNotImportObserve pins the layering the fact stream buys: the
// six protocol packages and abcast state facts through internal/trace, and
// none of them imports the invariant observer.
func TestProtocolsDoNotImportObserve(t *testing.T) {
	for _, dir := range []string{"abcast", "acuerdo", "apus", "derecho", "paxos", "raft", "zab"} {
		pkg, err := build.ImportDir("../"+dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if slices.Contains(pkg.Imports, "acuerdo/internal/observe") {
			t.Errorf("internal/%s imports internal/observe; it should emit trace.Facts instead", dir)
		}
	}
}
