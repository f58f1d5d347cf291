// Package nowallclock is the fixture for the nowallclock analyzer: wall-clock
// reads and globally seeded randomness are flagged; simulated-clock plumbing
// and explicitly seeded generators are not.
package nowallclock

import (
	"math/rand"
	"time"
)

// Wall-clock reads and sleeps — every one breaks seed-replay.
func badClock() time.Duration {
	start := time.Now()                    // want `time.Now is wall-clock time`
	time.Sleep(time.Millisecond)           // want `time.Sleep is wall-clock time`
	<-time.After(time.Millisecond)         // want `time.After is wall-clock time`
	<-time.Tick(time.Millisecond)          // want `time.Tick is wall-clock time`
	_ = time.NewTimer(time.Second)         // want `time.NewTimer is wall-clock time`
	_ = time.NewTicker(time.Second)        // want `time.NewTicker is wall-clock time`
	time.AfterFunc(time.Second, func() {}) // want `time.AfterFunc is wall-clock time`
	return time.Since(start)               // want `time.Since is wall-clock time`
}

// Storing the function value is as bad as calling it.
var clockSource = time.Now // want `time.Now is wall-clock time`

// The global math/rand source is seeded per-process, not per-simulation.
func badRand() int {
	rand.Seed(42)                      // want `rand.Seed is globally seeded randomness`
	n := rand.Intn(7)                  // want `rand.Intn is globally seeded randomness`
	_ = rand.Float64()                 // want `rand.Float64 is globally seeded randomness`
	rand.Shuffle(3, func(i, j int) {}) // want `rand.Shuffle is globally seeded randomness`
	return n
}

type server struct {
	leading  bool
	lastPing time.Duration
	timeout  time.Duration
	now      func() time.Duration
}

// stepDown is paxos.Server.stepDown with a mutant from DESIGN §6.6's corpus
// that no runtime oracle kills, because no lane deposes a proposer: the
// deposed proposer backs off a globally random extra before it may stand
// again, so two same-seed runs fail over at different times.
func (s *server) stepDown() {
	s.leading = false
	s.lastPing = s.now() + time.Duration(rand.Int63n(int64(s.timeout))) // want `rand.Int63n is globally seeded randomness`
}

// Duration arithmetic and unit constants are deterministic and legal.
func goodDurations(d time.Duration) time.Duration {
	return d + 3*time.Microsecond
}

// An explicitly seeded private generator is the sanctioned idiom: rand.New
// and rand.NewSource are not flagged, and neither are methods on the
// resulting generator even though they share names with the banned
// package-level functions.
func goodSeededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(3, func(i, j int) {})
	return rng.Intn(7)
}
