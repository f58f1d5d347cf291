package abcast

import (
	"math/rand"
	"slices"
	"testing"
)

// refSessions is the duplicate-request rule as raft, zab and paxos each kept
// it before Sessions: a set of delivered ids and a set of ids the leader holds
// in flight, both keyed by every id of the run. Admit asks delivered first;
// pending is emptied when a leader takes over and never shrinks at delivery.
type refSessions struct{ delivered, pending map[uint64]bool }

func newRefSessions() *refSessions {
	return &refSessions{delivered: make(map[uint64]bool), pending: make(map[uint64]bool)}
}

func (r *refSessions) Admit(id uint64) Verdict {
	switch {
	case r.delivered[id]:
		return Reack
	case r.pending[id]:
		return Drop
	}
	return Propose
}

func (r *refSessions) Pend(id uint64)    { r.pending[id] = true }
func (r *refSessions) Deliver(id uint64) { r.delivered[id] = true }
func (r *refSessions) Reseed()           { r.pending = make(map[uint64]bool) }

// TestSessionsDifferential runs seeded programs through Sessions and the
// reference: a leader admits and pends fresh requests, delivers its in-flight
// ids mostly in order, loses some to a leader change (holding the watermark
// back until a retry re-proposes them), is reseeded from a surviving tail,
// delivers ids it never pended (a follower's view), and answers retries of
// delivered, pending, lost and never-seen ids — among them the 42, 999 and
// nextID+1000 the protocol tests submit. Half the seeds draw dense ids
// counting up, as Loop issues them; half draw sparse ids scattered over the
// first 2^16, far apart and out of order. Every Admit must agree, and at the
// end so must Admit of every id up to the highest drawn. Id 0 is left out:
// the reference treats it as an id, Sessions as none (see
// TestSessionsIdZero). -short runs a quarter of the seeds.
func TestSessionsDifferential(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sparse := seed%2 == 0
		var got Sessions
		want := newRefSessions()

		var (
			nextID, top uint64
			tail        []uint64 // pended here, not yet delivered
			lost        []uint64 // pended, then lost to a leader change
			delivered   []uint64
		)
		// draw issues the next request id; stray names one without issuing
		// it, so a dense program's ids are each proposed or delivered.
		draw := func() uint64 {
			if sparse {
				return 1 + uint64(rng.Int63n(1<<16))
			}
			nextID++
			return nextID
		}
		stray := func() uint64 {
			if sparse {
				return 1 + uint64(rng.Int63n(1<<16))
			}
			return nextID + 1 + uint64(rng.Intn(64))
		}
		admit := func(id uint64) Verdict {
			t.Helper()
			top = max(top, id)
			g, w := got.Admit(id), want.Admit(id)
			if g != w {
				t.Fatalf("seed %d: Admit(%d) = %d, reference %d (watermark %d)", seed, id, g, w, got.mark)
			}
			return g
		}
		pend := func(id uint64) {
			got.Pend(id)
			want.Pend(id)
			tail = append(tail, id)
		}
		deliver := func(id uint64) {
			top = max(top, id)
			got.Deliver(id)
			want.Deliver(id)
			delivered = append(delivered, id)
		}
		pick := func(ids []uint64) uint64 {
			if len(ids) == 0 {
				return stray()
			}
			return ids[rng.Intn(len(ids))]
		}

		for op := 0; op < 10000; op++ {
			switch p := rng.Intn(100); {
			case p < 25: // a fresh request
				if id := draw(); admit(id) == Propose {
					pend(id)
				}
			case p < 55 && len(tail) > 0: // delivery, mostly the oldest
				k := 0
				if rng.Intn(4) == 0 {
					k = rng.Intn(len(tail))
				}
				deliver(tail[k])
				tail = append(tail[:k], tail[k+1:]...)
			case p < 57 && len(tail) > 0: // a leader change loses one
				k := rng.Intn(len(tail))
				lost = append(lost, tail[k])
				tail = append(tail[:k], tail[k+1:]...)
			case p < 60: // a new leader: what survives is its tail
				tail = slices.DeleteFunc(tail, func(id uint64) bool {
					if rng.Intn(8) != 0 {
						return false
					}
					lost = append(lost, id)
					return true
				})
				got.Reseed()
				want.Reseed()
				for _, id := range tail {
					got.Pend(id)
					want.Pend(id)
				}
			case p < 63: // a delivery this replica never pended
				deliver(draw())
			case p < 85 && len(lost) > 0: // a lost request's retry, until it lands
				k := rng.Intn(len(lost))
				switch id := lost[k]; admit(id) {
				case Propose:
					pend(id)
					fallthrough
				case Reack:
					lost = append(lost[:k], lost[k+1:]...)
				}
			default: // retries and strays
				switch rng.Intn(7) {
				case 0:
					admit(pick(delivered))
				case 1:
					admit(pick(tail))
				case 2:
					admit(pick(lost))
				case 3:
					admit(nextID + 1000)
				case 4:
					admit(42)
				case 5:
					admit(999)
				default:
					admit(stray())
				}
			}
		}
		// Finally every id up to the highest a dense program named; a sparse
		// one's recorded ids, their neighbours and a sample of the rest.
		final := func(id uint64) {
			if g, w := got.Admit(id), want.Admit(id); g != w {
				t.Fatalf("seed %d (sparse %v): final Admit(%d) = %d, reference %d (watermark %d)", seed, sparse, id, g, w, got.mark)
			}
		}
		if !sparse {
			for id := uint64(1); id <= top+64; id++ {
				final(id)
			}
		} else {
			for _, id := range slices.Concat(delivered, tail, lost) {
				final(id - 1)
				final(id)
				final(id + 1)
			}
			for i := 0; i < 1000; i++ {
				final(stray())
			}
		}
		// The watermark is the delivered prefix, however the run wandered.
		var prefix uint64
		for want.delivered[prefix+1] {
			prefix++
		}
		if got.mark != prefix {
			t.Fatalf("seed %d (sparse %v): watermark %d, delivered prefix %d", seed, sparse, got.mark, prefix)
		}
		if !sparse && prefix == 0 {
			t.Fatalf("seed %d: a dense program never moved the watermark", seed)
		}
	}
}

// TestSessionsIdZero: id 0 is what MsgID reads from a payload too short to
// carry an id. It names no request, so it is always admitted and never
// recorded, and it does not stand in the watermark's way.
func TestSessionsIdZero(t *testing.T) {
	var s Sessions
	s.Pend(0)
	s.Deliver(0)
	if v := s.Admit(0); v != Propose {
		t.Fatalf("Admit(0) = %d after Pend(0) and Deliver(0), want Propose", v)
	}
	s.Deliver(1)
	if s.mark != 1 || s.Admit(1) != Reack {
		t.Fatalf("watermark %d after delivering 1, Admit(1) = %d", s.mark, s.Admit(1))
	}
}

// TestSessionsRefusesWildIds: an id more than maxSpan above the watermark is
// not a request. Admit drops it, and neither Pend nor Deliver lets it size
// the rings; the id at exactly maxSpan is still a request.
func TestSessionsRefusesWildIds(t *testing.T) {
	var s Sessions
	for id := uint64(1); id <= 100; id++ {
		s.Deliver(id)
	}
	span := s.Span()
	for _, wild := range []uint64{100 + maxSpan + 1, 1 << 40, ^uint64(0)} {
		if v := s.Admit(wild); v != Drop {
			t.Fatalf("Admit(%d) = %d with the watermark at 100, want Drop", wild, v)
		}
		s.Pend(wild)
		s.Deliver(wild)
		if s.Span() != span {
			t.Fatalf("recording %d grew the rings from %d to %d ids", wild, span, s.Span())
		}
	}
	edge := uint64(100 + maxSpan)
	if v := s.Admit(edge); v != Propose {
		t.Fatalf("Admit(%d) = %d, want Propose: it is maxSpan above the watermark", edge, v)
	}
	s.Deliver(edge)
	if s.Admit(edge) != Reack {
		t.Fatalf("Admit(%d) after Deliver = %d, want Reack", edge, s.Admit(edge))
	}
	if bytes := s.Span() / 4; bytes > 2<<20 {
		t.Fatalf("rings hold %d ids (%d B), over the 2 MiB maxSpan bounds them to", s.Span(), bytes)
	}
}

// TestSessionsAllocFree pins the table's steady state at no allocation: a
// leader with a window of requests in flight pends each fresh id, admits a
// retry, delivers the oldest — the rings stop growing at the window, and the
// watermark recycles their words.
func TestSessionsAllocFree(t *testing.T) {
	const window = 256
	var s Sessions
	var next, oldest uint64 = 0, 1
	step := func() {
		next++
		if s.Admit(next) != Propose {
			t.Fatalf("fresh id %d not admitted", next)
		}
		s.Pend(next)
		if s.Admit(next) != Drop {
			t.Fatalf("pending id %d not dropped", next)
		}
		if next-oldest >= window {
			s.Deliver(oldest)
			if s.Admit(oldest) != Reack {
				t.Fatalf("delivered id %d not re-acked", oldest)
			}
			oldest++
		}
	}
	for i := 0; i < 10*window; i++ {
		step()
	}
	span := s.Span()
	if n := testing.AllocsPerRun(10000, step); n != 0 {
		t.Fatalf("the table allocates %.2f objects per request in steady state, want 0", n)
	}
	if s.Span() != span || span > 4*window {
		t.Fatalf("rings cover %d ids after warm-up and %d after, want the same and at most %d", span, s.Span(), 4*window)
	}
}
