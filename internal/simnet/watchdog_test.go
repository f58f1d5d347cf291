package simnet

import (
	"testing"
	"time"
)

// A run with steady progress must never trip the watchdog.
func TestWatchdogQuietWhileProgressing(t *testing.T) {
	sim := New(1)
	var acks int64
	// Progress ticks every 1ms, well inside the 10ms budget.
	var tick func()
	tick = func() {
		acks++
		sim.After(time.Millisecond, tick)
	}
	sim.After(time.Millisecond, tick)
	w := NewWatchdog(sim, 10*time.Millisecond, func() int64 { return acks })
	sim.RunFor(200 * time.Millisecond)
	if w.Fired() {
		t.Fatalf("watchdog fired at %v despite steady progress", w.Report().FiredAt)
	}
}

// A run whose progress stops must fire within ~one budget of the stall and
// stop the simulator, even though timers keep the event heap non-empty.
func TestWatchdogFiresOnStall(t *testing.T) {
	sim := New(1)
	var acks int64
	stallAt := sim.Now().Add(5 * time.Millisecond)
	var tick func()
	tick = func() {
		if sim.Now() < stallAt {
			acks++
		}
		sim.After(time.Millisecond, tick) // heartbeat noise continues forever
	}
	sim.After(time.Millisecond, tick)

	budget := 10 * time.Millisecond
	w := NewWatchdog(sim, budget, func() int64 { return acks })
	sim.RunFor(time.Second)
	if !w.Fired() {
		t.Fatal("watchdog never fired on a stalled run")
	}
	got := w.Report()
	// The simulator must have stopped early, not run the full second.
	if sim.Now() >= Time(time.Second) {
		t.Fatalf("simulator ran to the horizon (%v) instead of stopping at the watchdog", sim.Now())
	}
	stall := got.FiredAt.Sub(got.LastProgress)
	if stall < budget || stall > budget+budget/watchdogChecks+time.Millisecond {
		t.Fatalf("fired after %v of stall, want about %v", stall, budget)
	}
	if got.Progress != acks {
		t.Fatalf("report progress %d, want %d", got.Progress, acks)
	}
}

// Stop disarms the watchdog: a stalled run with a stopped watchdog runs to
// the horizon.
func TestWatchdogStop(t *testing.T) {
	sim := New(1)
	w := NewWatchdog(sim, 5*time.Millisecond, func() int64 { return 0 })
	w.Stop()
	sim.RunFor(50 * time.Millisecond)
	if w.Fired() {
		t.Fatal("stopped watchdog fired")
	}
	if sim.Now() != Time(50*time.Millisecond) {
		t.Fatalf("simulator stopped early at %v", sim.Now())
	}
}
