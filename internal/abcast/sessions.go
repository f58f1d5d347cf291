package abcast

import "math/bits"

// Verdict is what Sessions.Admit tells a leader to do with a client request.
type Verdict uint8

const (
	// Propose: the id is neither delivered nor in flight here; order it.
	Propose Verdict = iota
	// Reack: the id is delivered already, and its acknowledgment died with an
	// old leader; acknowledge it again and propose nothing.
	Reack
	// Drop: the id is in flight under this leader, or too far above the
	// watermark to be a request; ignore it, the client retries.
	Drop
)

// maxSpan is how far above the delivered watermark the table considers an id.
// The ids in flight stay near the watermark — within the client's window, plus
// a retry timeout's worth of traffic while a lost request holds it back — so
// an id 4 M above it is not a request: it is refused before its bit could
// size the rings, which therefore never pass 2 MiB.
const maxSpan = 1 << 22

// Sessions is the one client-request table: the client-session rule of the
// Raft dissertation (Ongaro 2014, §6.3), which keeps a retried request from
// being ordered twice. Every Cluster builds exactly one Client, whose request
// ids count up from 1 (see Loop), so the table has no client dimension. It has
// two halves over one base:
//
//   - delivered: a watermark below which every id is delivered, plus an exact
//     bit per id above it. Every replica updates it at delivery, so all
//     replicas hold the same table and it survives a leader change.
//   - pending: the ids a leader holds above its own delivery frontier. A
//     leader Reseeds it from its undelivered log tail each time it wins, Pends
//     each id it proposes, and delivery clears the id again.
//
// Both are bit rings indexed by id, covering the ids from the watermark's
// 64-id block up, so the table costs two bits per id between the watermark
// and the highest id recorded — the client's window in steady state, not the
// run's history — and allocates nothing once the rings have grown to it. Id 0,
// the MsgID of a payload too short to carry one, names no request: it is
// always admitted and never recorded. The zero Sessions is an empty table.
type Sessions struct {
	mark uint64  // every id in [1, mark] is delivered here
	ring []block // id's bits live in ring[id>>6 & (len-1)]; len is 0 or a power of two
}

// block holds both halves' bits for 64 consecutive ids.
type block struct{ done, pend uint64 }

// Admit decides a client request for id at a leader: Reack if it is
// delivered, Drop if it is pending or lies more than maxSpan above the
// watermark, Propose otherwise. It records nothing; a leader that proposes
// the id Pends it.
func (s *Sessions) Admit(id uint64) Verdict {
	switch {
	case id == 0:
		return Propose
	case id <= s.mark:
		return Reack
	case id-s.mark > maxSpan:
		return Drop
	case !s.covers(id):
		return Propose
	}
	b, bit := s.at(id)
	switch {
	case b.done&bit != 0:
		return Reack
	case b.pend&bit != 0:
		return Drop
	}
	return Propose
}

// Pend records that this leader holds id, proposed and not yet delivered.
// An id Admit would refuse is left alone.
func (s *Sessions) Pend(id uint64) {
	if id <= s.mark || id-s.mark > maxSpan {
		return
	}
	b, bit := s.slot(id)
	b.pend |= bit
}

// Deliver records that this replica delivered id, and advances the watermark
// over every id delivered contiguously above it. An id more than maxSpan
// above the watermark is not recorded: no request is that far from it.
func (s *Sessions) Deliver(id uint64) {
	if id <= s.mark || id-s.mark > maxSpan {
		return
	}
	b, bit := s.slot(id)
	b.done |= bit
	for id == s.mark+1 {
		// Consume the run of delivered ids from the watermark up, a word at a
		// time, clearing both halves' bits: everything at or below the
		// watermark is zero, so a block the watermark leaves is empty for
		// reuse. (A pending bit on a delivered id above it is harmless: Admit
		// asks the delivered half first.)
		b, off := &s.ring[id>>6&uint64(len(s.ring)-1)], id&63
		run := uint64(bits.TrailingZeros64(^(b.done >> off)))
		m := ^uint64(0) >> (64 - run) << off
		b.done &^= m
		b.pend &^= m
		s.mark += run
		id += run
		if off+run < 64 {
			return
		}
	}
}

// Reseed empties the pending half. A leader calls it when it wins, then Pends
// every id in its log above its delivery frontier.
func (s *Sessions) Reseed() {
	for i := range s.ring {
		s.ring[i].pend = 0
	}
}

// Span is how many ids, counted from the start of the watermark's block, the
// rings cover: the table's footprint is two bits per id of span.
func (s *Sessions) Span() int { return 64 * len(s.ring) }

// covers reports whether id, above the watermark, has a bit in the rings.
func (s *Sessions) covers(id uint64) bool { return id-(s.mark+1)&^63 < uint64(s.Span()) }

// at returns id's block and bit; id must be covered.
func (s *Sessions) at(id uint64) (*block, uint64) {
	return &s.ring[id>>6&uint64(len(s.ring)-1)], 1 << (id & 63)
}

// slot is at, first growing the rings to cover id.
func (s *Sessions) slot(id uint64) (*block, uint64) {
	if !s.covers(id) {
		lo := (s.mark + 1) >> 6
		n := max(len(s.ring), 1)
		for id>>6-lo >= uint64(n) {
			n *= 2
		}
		ring := make([]block, n)
		for k := lo; k < lo+uint64(len(s.ring)); k++ {
			ring[k&uint64(n-1)] = s.ring[k&uint64(len(s.ring)-1)]
		}
		s.ring = ring
	}
	return s.at(id)
}
