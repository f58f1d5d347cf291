package trace

import (
	"bytes"
	"encoding/json"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Span(KProcRun, 0, 10, 5, 0, 0)
	tr.Instant(KSubmit, -1, 10, 1, 0)
	tr.Add(CtrSimEvents, 3)
	tr.SetThreadName(0, "n0")
	tr.Mark(&Fact{Kind: Deliver, ID: 1})
	if tr.Counter(CtrSimEvents) != 0 || tr.Emitted() != 0 || tr.Dropped() != 0 ||
		tr.Fingerprint() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer leaked state")
	}
	if d := tr.Decompose(); d.Messages != 0 {
		t.Fatal("nil tracer decomposed something")
	}
	var buf bytes.Buffer
	tr.WriteCounters(&buf)
	if buf.Len() != 0 {
		t.Fatal("nil tracer wrote counters")
	}
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("nil WriteChrome: %v", err)
	}
}

// TestMarkMapsKinds pins the tracer's half of the fact stream: each kind's
// marker and counter, a Commit kind marking proto.commit before
// proto.deliver, a message fact with id 0 left unmarked, and a kind no marker
// stands for leaving nothing.
func TestMarkMapsKinds(t *testing.T) {
	tr := New(16)
	for _, f := range []Fact{
		{Kind: Append, Node: 4, At: 10, Index: 3, ID: 7},
		{Kind: Append, Node: 4, At: 11, Index: 4}, // a no-op entry: id 0
		{Kind: Replicate, Node: 5, At: 12, Index: 3, ID: 7},
		{Kind: CommitHeader, Node: 4, At: 13, Term: 1 << 32, Index: 3, ID: 7},
		{Kind: Win, Node: 4, At: 14, Term: 9, ID: 4},
		{Kind: Durable, Node: 4, At: 15, Index: 3},
	} {
		tr.Mark(&f)
	}
	want := []Event{
		{TS: 10, Kind: KPropose, Node: 4, A: 7, B: 3},
		{TS: 12, Kind: KAccept, Node: 5, A: 7, B: 3},
		{TS: 13, Kind: KCommit, Node: 4, A: 7, B: 3},
		{TS: 13, Kind: KDeliver, Node: 4, A: 7, B: 3},
		{TS: 14, Kind: KElectWin, Node: 4, A: 9},
	}
	if got := tr.Events(); !slices.Equal(got, want) {
		t.Fatalf("marks %+v, want %+v", got, want)
	}
	for c, n := range map[Counter]int64{CtrProposes: 1, CtrAccepts: 1, CtrCommits: 1, CtrDelivers: 1, CtrElections: 0} {
		if tr.Counter(c) != n {
			t.Errorf("%s = %d, want %d", CounterName(c), tr.Counter(c), n)
		}
	}
}

func TestRingOverflow(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Instant(KSimEvent, -1, int64(i), int64(i), 0)
	}
	if tr.Emitted() != 10 {
		t.Fatalf("emitted = %d, want 10", tr.Emitted())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	// Oldest events were overwritten; the survivors are the last four,
	// oldest-first.
	for i, ev := range evs {
		if want := int64(6 + i); ev.TS != want {
			t.Fatalf("ring[%d].TS = %d, want %d", i, ev.TS, want)
		}
	}
}

func TestFingerprintCoversOverwrittenEvents(t *testing.T) {
	// Same events, different ring sizes: the streaming fingerprint must not
	// depend on what the ring retained.
	small, big := New(2), New(100)
	for i := 0; i < 50; i++ {
		small.Instant(KPoll, 1, int64(i), 0, 0)
		big.Instant(KPoll, 1, int64(i), 0, 0)
	}
	if small.Fingerprint() != big.Fingerprint() {
		t.Fatal("fingerprint depends on ring capacity")
	}
	// And it is order- and content-sensitive.
	a, b := New(8), New(8)
	a.Instant(KPoll, 1, 1, 0, 0)
	a.Instant(KPoll, 1, 2, 0, 0)
	b.Instant(KPoll, 1, 2, 0, 0)
	b.Instant(KPoll, 1, 1, 0, 0)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprint insensitive to event order")
	}
}

func TestDecomposeTelescopes(t *testing.T) {
	tr := New(64)
	// A complete chain for message 7: submit 100, propose 130, remote
	// accept 180, commit 220, ack 250.
	tr.Instant(KSubmit, -1, 100, 7, 0)
	tr.Instant(KPropose, 0, 130, 7, 0)
	tr.Instant(KAccept, 0, 150, 7, 0) // leader self-accept: must not count
	tr.Instant(KAccept, 1, 180, 7, 0)
	tr.Instant(KAccept, 2, 190, 7, 0) // later accepts: first-wins
	tr.Instant(KCommit, 0, 220, 7, 0)
	tr.Instant(KAck, -1, 250, 7, 0)
	// An acked message missing its propose marker counts as partial.
	tr.Instant(KSubmit, -1, 300, 8, 0)
	tr.Instant(KAck, -1, 400, 8, 0)
	// A message still in flight is ignored.
	tr.Instant(KSubmit, -1, 500, 9, 0)

	d := tr.Decompose()
	if d.Messages != 1 || d.Partial != 1 {
		t.Fatalf("messages=%d partial=%d", d.Messages, d.Partial)
	}
	if d.PostNS != 30 || d.WireNS != 50 || d.ProtoNS != 40 || d.AckNS != 30 || d.TotalNS != 150 {
		t.Fatalf("segments: %+v", d)
	}
	if d.PostNS+d.WireNS+d.ProtoNS+d.AckNS != d.TotalNS {
		t.Fatal("segments do not telescope to total")
	}
	if !strings.Contains(d.String(), "total 150ns") {
		t.Fatalf("String() = %q", d.String())
	}
}

// TestStageAllocFree: a message's stage set is a value in chunked storage
// and the id map holds its index, so the five stage markers of 10 000
// distinct ids allocate at most one object per hundred ids (a *stageSet
// each was one per id), and the decomposition still folds every chain.
func TestStageAllocFree(t *testing.T) {
	const n = 10000
	tr := New(FingerprintRing)
	before, after := memSpan(func() {
		for id := int64(1); id <= n; id++ {
			ts := 1000 * id
			tr.Instant(KSubmit, -1, ts, id, 0)
			tr.Instant(KPropose, 0, ts+10, id, 0)
			tr.Instant(KAccept, 1, ts+30, id, 0)
			tr.Instant(KCommit, 0, ts+60, id, 0)
			tr.Instant(KAck, -1, ts+100, id, 0)
		}
	})
	if objs := after.Mallocs - before.Mallocs; objs > n/100 {
		t.Fatalf("stage markers of %d ids allocated %d objects, want <= %d", n, objs, n/100)
	} else {
		t.Logf("stage markers of %d ids allocated %d objects", n, objs)
	}
	d := tr.Decompose()
	if d.Messages != n || d.Partial != 0 || d.TotalNS != 100*n || d.WireNS != 20*n {
		t.Fatalf("decomposition %+v, want %d complete chains of 100 ns", d, n)
	}
}

func TestCountersAndReport(t *testing.T) {
	tr := New(8)
	tr.Add(CtrRDMAWrites, 3)
	tr.Add(CtrProcTime, int64(2*time.Millisecond))
	if tr.Counter(CtrRDMAWrites) != 3 {
		t.Fatalf("counter = %d", tr.Counter(CtrRDMAWrites))
	}
	var buf bytes.Buffer
	tr.WriteCounters(&buf)
	out := buf.String()
	if !strings.Contains(out, "rdma.writes") || !strings.Contains(out, "3") {
		t.Fatalf("report missing count: %q", out)
	}
	if !strings.Contains(out, "2ms") {
		t.Fatalf("time counter not rendered as duration: %q", out)
	}
	if strings.Contains(out, "proto.commits") {
		t.Fatalf("zero counter printed: %q", out)
	}
}

func TestKindAndCounterNames(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if KindName(k) == "" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
	for c := Counter(0); c < numCounters; c++ {
		if CounterName(c) == "" {
			t.Fatalf("counter %d unnamed", c)
		}
	}
}

func TestID(t *testing.T) {
	if ID([]byte{1, 0, 0, 0, 0, 0, 0, 0}) != 1 {
		t.Fatal("ID little-endian decode")
	}
	if ID([]byte{1, 2}) != 0 {
		t.Fatal("short payload should yield 0")
	}
}

func TestWriteChromeIsValidJSON(t *testing.T) {
	tr := New(16)
	tr.SetThreadName(0, "replica")
	tr.Span(KProcRun, 0, 1000, 500, 0, 0)
	tr.Instant(KSubmit, -1, 1200, 7, 0)
	tr.Add(CtrSimEvents, 2)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	// thread_name metadata (sim + replica), the span, the instant, and the
	// counter sample.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d trace events, want 5:\n%s", len(doc.TraceEvents), buf.String())
	}
	phs := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phs[ev["ph"].(string)]++
	}
	if phs["M"] != 2 || phs["X"] != 1 || phs["i"] != 1 || phs["C"] != 1 {
		t.Fatalf("event phases: %v", phs)
	}
}

func TestUsFormatting(t *testing.T) {
	cases := map[int64]string{
		0:       "0.000",
		999:     "0.999",
		1000:    "1.000",
		1234567: "1234.567",
		-1500:   "-1.500",
	}
	for ns, want := range cases {
		if got := us(ns); got != want {
			t.Fatalf("us(%d) = %q, want %q", ns, got, want)
		}
	}
}

// memSpan reads the heap counters around f as testing.AllocsPerRun does, on
// one P, and after a collection, so no background sweep or other goroutine
// lands a stray allocation inside the span.
func memSpan(f func()) (before, after runtime.MemStats) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return before, after
}
