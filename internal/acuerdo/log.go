package acuerdo

import "acuerdo/internal/chunks"

// Entry is one message stored in a replica's ordered log. chunk names the
// arena chunk a stored entry's Payload lives in (0: none, the entry holds no
// bytes); it sits in the padding between the 12-byte header and the slice, so
// an Entry is 40 bytes with or without it. Insert ignores the caller's value.
type Entry struct {
	Hdr     MsgHdr
	chunk   uint32
	Payload []byte
}

// Log is the ordered message log (the paper's map<msghdr, message*> Log,
// iterated in header order). Entries sit at absolute positions, head to
// tail, in a chunks.List whose chunks are fixed at logChunkLen entries: in
// the normal broadcast mode insertions are strictly appending and trimming is
// a prefix cut, so both common cases are O(1), neither ever moves an entry,
// and At is a shift and a mask. A log trimmed as it grows cycles through the
// chunks it already has; a log that is never trimmed (every replica with a
// WAL) allocates each chunk once and copies nothing; RemoveFrom and a
// durable restart's reset keep every chunk for the entries that refill them.
//
// The log owns its payload bytes: Insert copies the payload into a
// chunks.Arena and the stored entry points there, so the caller's buffer — a
// ring view, a slice of a diff record, a recovered WAL record, the client's
// request — is free the moment Insert returns, and what Get, Last and At hand
// out stays valid until the entry is trimmed, removed or replaced. The entry
// gives its claim on the arena back then, so a log that is trimmed as it
// grows cycles through a fixed set of chunks and allocates nothing.
//
// The Range methods return positions, which At reads. Positions and the
// pointers Get, Last and At return stay valid across appends (an Insert above
// Last); an Insert below Last, RemoveFrom and TrimBelow invalidate them.
type Log struct {
	list  chunks.List[Entry] // the live entries are positions [list.Head(), list.Len())
	arena chunks.Arena       // the entries' payload bytes
}

// logChunkLen is the entry count of a chunk, 10 KiB: a volatile replica's
// trimmed log lives in the chunk its head is in, the one its tail is in and a
// spare, and a log that is never trimmed allocates once per 256 entries.
const logChunkLen = 256

// At returns the entry at position p, one of a Range's.
func (l *Log) At(p int) *Entry { return l.list.Ptr(p) }

// release gives back the arena claims of the entries at positions [i, j).
func (l *Log) release(i, j int) {
	for p := i; p < j; p++ {
		l.arena.Release(l.At(p).chunk)
	}
}

// reset empties the log in place: every claim is released, so every arena
// chunk is empty and free for reuse, and the list keeps its chunks. A durable
// restart replays its WAL into the chunks the log already had.
func (l *Log) reset() {
	l.release(l.list.Head(), l.list.Len())
	l.list.Truncate(l.list.Head())
}

// Len returns the number of entries.
func (l *Log) Len() int { return l.list.Len() - l.list.Head() }

// search returns the position of the first entry with header >= h.
func (l *Log) search(h MsgHdr) int {
	i, j := l.list.Head(), l.list.Len()
	for i < j {
		m := int(uint(i+j) >> 1)
		if l.At(m).Hdr.Less(h) {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// Insert stores a copy of e, replacing any entry with the same header (whose
// bytes are released). An entry above Last is appended without a search.
func (l *Log) Insert(e Entry) {
	e.Payload, e.chunk = l.arena.Own(e.Payload)
	if last := l.Last(); last == nil || last.Hdr.Less(e.Hdr) {
		l.push(e)
		return
	}
	i := l.search(e.Hdr) // < Len: Last is not below e
	if s := l.At(i); s.Hdr == e.Hdr {
		l.arena.Release(s.chunk)
		*s = e
		return
	}
	l.push(Entry{})
	for p := l.list.Len() - 1; p > i; p-- {
		*l.At(p) = *l.At(p - 1)
	}
	*l.At(i) = e
}

// push appends e at the tail. A zero Log fixes its chunks at its first.
func (l *Log) push(e Entry) {
	if l.list.Len() == 0 {
		l.list.SetChunkLen(logChunkLen)
	}
	l.list.Append(e)
}

// Get returns the entry with header h, or nil.
func (l *Log) Get(h MsgHdr) *Entry {
	if i := l.search(h); i < l.list.Len() && l.At(i).Hdr == h {
		return l.At(i)
	}
	return nil
}

// RemoveFrom deletes every entry with header >= h (diff acceptance removes
// uncommitted entries newer than the diff's first message, Figure 5 line 62).
func (l *Log) RemoveFrom(h MsgHdr) {
	i := l.search(h)
	l.release(i, l.list.Len())
	l.list.Truncate(i)
}

// TrimBelow deletes every entry with header < h (garbage collection of the
// committed prefix once every replica is known to have committed it). It
// advances the head past them; the chunks wholly below the head go, all but
// one kept as the spare.
func (l *Log) TrimBelow(h MsgHdr) {
	if l.Len() == 0 || !l.At(l.list.Head()).Hdr.Less(h) {
		return // nothing below h: the replica asks on every heartbeat
	}
	i := l.search(h)
	l.release(l.list.Head(), i)
	l.list.TrimBelow(i)
}

// RangeOpen returns the positions [i, j) of the entries with lo < hdr < hi,
// in order (diff commit, Figure 6 line 84).
func (l *Log) RangeOpen(lo, hi MsgHdr) (i, j int) {
	i = l.search(lo)
	if i < l.list.Len() && l.At(i).Hdr == lo {
		i++
	}
	return i, l.search(hi)
}

// RangeClosed returns the positions [i, j) of the entries with lo <= hdr <=
// hi, in order (diff construction, Figure 7 line 123).
func (l *Log) RangeClosed(lo, hi MsgHdr) (i, j int) {
	i, j = l.search(lo), l.search(hi)
	if j < l.list.Len() && l.At(j).Hdr == hi {
		j++
	}
	return i, j
}

// Last returns the highest entry, or nil for an empty log.
func (l *Log) Last() *Entry {
	if l.Len() == 0 {
		return nil
	}
	return l.At(l.list.Len() - 1)
}
