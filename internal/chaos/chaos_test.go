package chaos

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"acuerdo/internal/simnet"
)

// fakeTarget records every call so tests can assert the engine's dispatch
// and sentinel resolution.
type fakeTarget struct {
	n      int
	leader int
	calls  []string
}

func (t *fakeTarget) Replicas() int { return t.n }
func (t *fakeTarget) Leader() int   { return t.leader }
func (t *fakeTarget) Crash(i int) {
	t.calls = append(t.calls, fmt.Sprintf("crash %d", i))
	if i == t.leader {
		t.leader = (i + 1) % t.n
	}
}
func (t *fakeTarget) Restart(i int) { t.calls = append(t.calls, fmt.Sprintf("restart %d", i)) }
func (t *fakeTarget) Pause(i int, d time.Duration) {
	t.calls = append(t.calls, fmt.Sprintf("pause %d %v", i, d))
}
func (t *fakeTarget) CutOneWay(i, j int)  { t.calls = append(t.calls, fmt.Sprintf("cut %d>%d", i, j)) }
func (t *fakeTarget) HealOneWay(i, j int) { t.calls = append(t.calls, fmt.Sprintf("heal %d>%d", i, j)) }
func (t *fakeTarget) SetLoss(i, j int, p float64) {
	t.calls = append(t.calls, fmt.Sprintf("loss %d-%d %.1f", i, j, p))
}
func (t *fakeTarget) SetLatencySpike(i, j int, d time.Duration) {
	t.calls = append(t.calls, fmt.Sprintf("spike %d-%d %v", i, j, d))
}
func (t *fakeTarget) DiskStall(i int, d time.Duration) {
	t.calls = append(t.calls, fmt.Sprintf("disk-stall %d %v", i, d))
}
func (t *fakeTarget) DiskTorn(i int)    { t.calls = append(t.calls, fmt.Sprintf("disk-torn %d", i)) }
func (t *fakeTarget) DiskCorrupt(i int) { t.calls = append(t.calls, fmt.Sprintf("disk-corrupt %d", i)) }

// The engine fires actions in plan order at the scheduled times, resolves
// the Leader and LastCrashed sentinels at fire time, and refuses to crash
// an already-down node.
func TestEngineDispatchAndSentinels(t *testing.T) {
	sim := simnet.New(1)
	tgt := &fakeTarget{n: 3, leader: 0}
	eng := NewEngine(sim, tgt)
	eng.Schedule(sim.Now(), Plan{Name: "t", Actions: []Action{
		{At: time.Millisecond, Kind: ACrash, Node: Leader},
		{At: 2 * time.Millisecond, Kind: ACrash, Node: 0}, // already down: skipped
		{At: 3 * time.Millisecond, Kind: ARecover, Node: LastCrashed},
		{At: 4 * time.Millisecond, Kind: ACutOneWay, From: 1, To: 2},
		{At: 5 * time.Millisecond, Kind: ALoss, From: 0, To: 2, Prob: 0.5},
		{At: 6 * time.Millisecond, Kind: ALatency, From: 0, To: 1, Dur: time.Millisecond},
		{At: 7 * time.Millisecond, Kind: AHealOneWay, From: 1, To: 2},
		{At: 8 * time.Millisecond, Kind: ADiskStall, Node: 2, Dur: time.Millisecond},
		{At: 8 * time.Millisecond, Kind: ADiskTorn, Node: Leader},
		{At: 8 * time.Millisecond, Kind: ADiskCorrupt, Node: 0},
	}})
	sim.RunFor(10 * time.Millisecond)

	want := []string{
		"crash 0", "restart 0", "cut 1>2", "loss 0-2 0.5", "spike 0-1 1ms", "heal 1>2",
		"disk-stall 2 1ms", "disk-torn 1", "disk-corrupt 0",
	}
	if !reflect.DeepEqual(tgt.calls, want) {
		t.Fatalf("calls = %v, want %v", tgt.calls, want)
	}
	fired := eng.Fired()
	if len(fired) != 10 {
		t.Fatalf("fired %d actions, want 10", len(fired))
	}
	if fired[0].Node != 0 {
		t.Fatalf("leader sentinel resolved to %d, want 0", fired[0].Node)
	}
	if fired[1].Node != -1 {
		t.Fatalf("double-crash resolved to %d, want -1 (skipped)", fired[1].Node)
	}
	if fired[2].Node != 0 {
		t.Fatalf("last-crashed sentinel resolved to %d, want 0", fired[2].Node)
	}
	if fired[3].At != simnet.Time(4*time.Millisecond) {
		t.Fatalf("action 3 fired at %v, want 4ms", fired[3].At)
	}
}

// Scenario builders are pure functions of (rng, n, horizon): the same
// seed yields an identical plan, a different seed varies random choices.
func TestScenarioDeterminism(t *testing.T) {
	scens := []Scenario{
		LeaderKillStorm(20*time.Millisecond, 5*time.Millisecond),
		FlakyLink(0.3, 200*time.Microsecond, 5*time.Millisecond, 10*time.Millisecond),
		RollingRestart(5*time.Millisecond, 10*time.Millisecond),
		QuorumLossAndHeal(10*time.Millisecond, 20*time.Millisecond),
		DiskStallStorm(5*time.Millisecond, 20*time.Millisecond),
		TornWriteRestart(30*time.Millisecond, 10*time.Millisecond),
	}
	for _, s := range scens {
		a := s.Build(rand.New(rand.NewSource(42)), 5, 100*time.Millisecond)
		b := s.Build(rand.New(rand.NewSource(42)), 5, 100*time.Millisecond)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different plans", s.Name)
		}
		if len(a.Actions) == 0 {
			t.Fatalf("%s: empty plan", s.Name)
		}
		if err := a.Validate(5); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
	}
	// FlakyLink actually uses the rng.
	f := FlakyLink(0.3, 200*time.Microsecond, 5*time.Millisecond, 10*time.Millisecond)
	a := f.Build(rand.New(rand.NewSource(1)), 5, 200*time.Millisecond)
	b := f.Build(rand.New(rand.NewSource(2)), 5, 200*time.Millisecond)
	if reflect.DeepEqual(a, b) {
		t.Fatal("flaky-link: different seeds produced identical link choices")
	}
}

// TornWriteRestart must arm the torn write strictly before the same-instant
// crash in plan order, or the crash tears nothing.
func TestTornWriteRestartOrdering(t *testing.T) {
	p := TornWriteRestart(30*time.Millisecond, 10*time.Millisecond).
		Build(rand.New(rand.NewSource(1)), 3, 100*time.Millisecond)
	for i := 0; i+1 < len(p.Actions); i++ {
		if p.Actions[i].Kind == ADiskTorn {
			next := p.Actions[i+1]
			if next.Kind != ACrash || next.At != p.Actions[i].At {
				t.Fatalf("torn arm at %v not immediately followed by a same-instant crash: %s", p.Actions[i].At, next)
			}
		}
	}
	// The engine honors that ordering at the same timestamp.
	sim := simnet.New(1)
	tgt := &fakeTarget{n: 3, leader: 0}
	eng := NewEngine(sim, tgt)
	eng.Schedule(sim.Now(), p)
	sim.RunFor(200 * time.Millisecond)
	for i, call := range tgt.calls {
		if call == "disk-torn 0" && (i+1 >= len(tgt.calls) || tgt.calls[i+1] != "crash 0") {
			t.Fatalf("torn arm not immediately followed by the crash: %v", tgt.calls)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Name: "n", Actions: []Action{{Kind: ACrash, Node: 9}}},
		{Name: "l", Actions: []Action{{Kind: ACut, From: 0, To: 7}}},
		{Name: "s", Actions: []Action{{Kind: ACut, From: 1, To: 1}}},
		{Name: "p", Actions: []Action{{Kind: ALoss, From: 0, To: 1, Prob: 1.5}}},
	}
	for _, p := range bad {
		if err := p.Validate(3); err == nil {
			t.Fatalf("plan %s: invalid plan passed validation", p.Name)
		}
	}
}

func ms(d int) simnet.Time { return simnet.Time(time.Duration(d) * time.Millisecond) }

// Recoveries attributes the first ack at/after each disruptive fault and
// flags faults with no subsequent ack as unrecovered.
func TestRecoveries(t *testing.T) {
	fired := []Fired{
		{At: ms(10), Action: Action{Kind: ACrash, Node: 0}, Node: 0},
		{At: ms(12), Action: Action{Kind: ARecover, Node: 0}, Node: 0}, // not disruptive
		{At: ms(30), Action: Action{Kind: ACrash, Node: Leader}, Node: -1},
		{At: ms(50), Action: Action{Kind: ACut, From: 0, To: 1}},
	}
	acks := []simnet.Time{ms(5), ms(18), ms(20), ms(40)}
	recs := Recoveries(fired, acks)
	if len(recs) != 2 {
		t.Fatalf("got %d recoveries, want 2 (recover skipped, unresolved crash skipped): %+v", len(recs), recs)
	}
	if !recs[0].Recovered || recs[0].MTTR != 8*time.Millisecond {
		t.Fatalf("crash MTTR = %v recovered=%v, want 8ms", recs[0].MTTR, recs[0].Recovered)
	}
	if recs[1].Recovered {
		t.Fatal("cut at 50ms has no later ack; must be unrecovered")
	}
}

// Unavailability finds ack gaps above the threshold, including leading
// and trailing gaps.
func TestUnavailability(t *testing.T) {
	acks := []simnet.Time{ms(10), ms(11), ms(40), ms(41)}
	windows, total := Unavailability(acks, ms(0), ms(100), 5*time.Millisecond)
	want := []Window{
		{From: ms(0), To: ms(10)},
		{From: ms(11), To: ms(40)},
		{From: ms(41), To: ms(100)},
	}
	if !reflect.DeepEqual(windows, want) {
		t.Fatalf("windows = %+v, want %+v", windows, want)
	}
	if total != 98*time.Millisecond {
		t.Fatalf("total = %v, want 98ms", total)
	}
}
