package simnet

import (
	"reflect"
	"testing"
	"time"
)

// TestLinksCutHeal drives the cut table through scripted steps: cuts and
// heals are idempotent, directed unless the symmetric call is used, and the
// heal hook runs exactly once per direction actually restored.
func TestLinksCutHeal(t *testing.T) {
	type dir = [2]int
	for _, tc := range []struct {
		name   string
		steps  func(l *Links)
		cut    []dir // directions CutOneWay must report afterwards
		healed []dir // heal-hook calls, in order
		parted bool  // Partitioned(0, 1) and (1, 0) afterwards: the query is symmetric
	}{
		{"one-way cut leaves the reverse direction up",
			func(l *Links) { l.PartitionOneWay(0, 1) },
			[]dir{{0, 1}}, nil, true},
		{"cutting twice is one cut; one heal restores it",
			func(l *Links) { l.PartitionOneWay(0, 1); l.PartitionOneWay(0, 1); l.HealOneWay(0, 1) },
			nil, []dir{{0, 1}}, false},
		{"healing an uncut direction does nothing",
			func(l *Links) { l.HealOneWay(0, 1); l.Heal(0, 1) },
			nil, nil, false},
		{"healing twice flushes once",
			func(l *Links) { l.PartitionOneWay(0, 1); l.HealOneWay(0, 1); l.HealOneWay(0, 1) },
			nil, []dir{{0, 1}}, false},
		{"symmetric cut and heal cover both directions",
			func(l *Links) { l.Partition(0, 1); l.Heal(0, 1) },
			nil, []dir{{0, 1}, {1, 0}}, false},
		{"symmetric cut, one-way heal",
			func(l *Links) { l.Partition(0, 1); l.HealOneWay(1, 0) },
			[]dir{{0, 1}}, []dir{{1, 0}}, true},
		{"symmetric heal of a one-way cut flushes only that direction",
			func(l *Links) { l.PartitionOneWay(1, 0); l.Heal(0, 1) },
			nil, []dir{{1, 0}}, false},
		{"other links are untouched",
			func(l *Links) { l.Partition(0, 2) },
			[]dir{{0, 2}, {2, 0}}, nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var healed []dir
			l := NewLinks(New(1), func(a, b int) { healed = append(healed, dir{a, b}) })
			tc.steps(l)
			var cut []dir
			for a := 0; a < 3; a++ {
				for b := 0; b < 3; b++ {
					if l.CutOneWay(a, b) {
						cut = append(cut, dir{a, b})
					}
				}
			}
			if !reflect.DeepEqual(cut, tc.cut) {
				t.Errorf("cut directions %v, want %v", cut, tc.cut)
			}
			if !reflect.DeepEqual(healed, tc.healed) {
				t.Errorf("heal hook ran for %v, want %v", healed, tc.healed)
			}
			if l.Partitioned(0, 1) != tc.parted || l.Partitioned(1, 0) != tc.parted {
				t.Errorf("Partitioned(0,1)=%v (1,0)=%v, want both %v",
					l.Partitioned(0, 1), l.Partitioned(1, 0), tc.parted)
			}
		})
	}
}

// TestLinksFaultDelay covers the loss and spike windows: what FaultDelay
// charges on 0→1 and 1→0, and whether it touched the simulator's random
// stream — only a loss window installed on the queried direction may, so a
// chaos-free run draws exactly the stream it always did.
func TestLinksFaultDelay(t *testing.T) {
	const rt = 50 * time.Microsecond
	for _, tc := range []struct {
		name      string
		steps     func(l *Links)
		fwd, back time.Duration // FaultDelay(0,1) and FaultDelay(1,0)
		draws     bool          // the queries consumed randomness
	}{
		{"no window", func(l *Links) {}, 0, 0, false},
		{"p=1 loss charges exactly maxRetransmits rounds, one way",
			func(l *Links) { l.SetLossOneWay(0, 1, 1) }, maxRetransmits * rt, 0, true},
		{"symmetric loss", func(l *Links) { l.SetLoss(0, 1, 1) }, maxRetransmits * rt, maxRetransmits * rt, true},
		{"loss cleared by p <= 0 draws nothing again",
			func(l *Links) { l.SetLoss(0, 1, 1); l.SetLoss(0, 1, 0) }, 0, 0, false},
		{"loss on another link draws nothing here",
			func(l *Links) { l.SetLoss(1, 2, 1) }, 0, 0, false},
		{"spike is added without randomness, one way",
			func(l *Links) { l.SetLatencySpikeOneWay(0, 1, time.Millisecond) }, time.Millisecond, 0, false},
		{"symmetric spike", func(l *Links) { l.SetLatencySpike(0, 1, time.Millisecond) }, time.Millisecond, time.Millisecond, false},
		{"spike cleared by d <= 0",
			func(l *Links) { l.SetLatencySpike(0, 1, time.Millisecond); l.SetLatencySpike(0, 1, -1) }, 0, 0, false},
		{"spike and loss add up",
			func(l *Links) { l.SetLatencySpikeOneWay(0, 1, time.Millisecond); l.SetLossOneWay(0, 1, 1) },
			time.Millisecond + maxRetransmits*rt, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim := New(7)
			l := NewLinks(sim, func(int, int) {})
			tc.steps(l)
			if got := l.FaultDelay(0, 1, rt); got != tc.fwd {
				t.Errorf("FaultDelay(0,1) = %v, want %v", got, tc.fwd)
			}
			if got := l.FaultDelay(1, 0, rt); got != tc.back {
				t.Errorf("FaultDelay(1,0) = %v, want %v", got, tc.back)
			}
			untouched := sim.Rand().Int63() == New(7).Rand().Int63()
			if untouched == tc.draws {
				t.Errorf("random stream untouched = %v, want draws = %v", untouched, tc.draws)
			}
		})
	}
}

// TestLinksNextProc: queued CPUs are handed out in ProvideProcs order, then
// fresh ones with the caller's id and name.
func TestLinksNextProc(t *testing.T) {
	sim := New(1)
	l := NewLinks(sim, func(int, int) {})
	a, b, c := NewProc(sim, 10, "a"), NewProc(sim, 11, "b"), NewProc(sim, 12, "c")
	l.ProvideProcs([]*Proc{a, b})
	l.ProvideProcs(nil)
	l.ProvideProcs([]*Proc{c})
	for i, want := range []*Proc{a, b, c} {
		if got := l.NextProc(i, "replica"); got != want {
			t.Fatalf("NextProc %d = %s, want queued %s", i, got.Name, want.Name)
		}
	}
	fresh := l.NextProc(3, "client")
	if fresh == a || fresh == b || fresh == c || fresh.ID != 3 || fresh.Name != "client" {
		t.Fatalf("beyond the queue NextProc = %+v, want a fresh Proc 3 %q", fresh, "client")
	}
	if again := l.NextProc(4, "client"); again == fresh {
		t.Fatal("fresh Procs must be distinct")
	}
}
