package acuerdo

import "sort"

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
// iterated in header order). It is kept as a sorted deque — entries[head:] of
// one slice: in the normal broadcast mode insertions are strictly appending
// and trimming is a prefix cut, so both common cases are O(1).
//
// The log owns its payload bytes: Insert copies the payload into an arena of
// chunks and the stored entry points there, so the caller's buffer — a ring
// view, a slice of a diff record, a recovered WAL record, the client's
// request — is free the moment Insert returns, and what Get and the Range
// methods hand out stays valid until the entry is trimmed, removed or
// replaced. The arena counts the live entries of every chunk and refills a
// chunk the moment the last one goes, so a log that is trimmed as it grows
// cycles through a fixed set of chunks and allocates nothing.
//
// Pointers and slices returned by Get, Last and the Range methods alias the
// deque and are valid until the next Insert, RemoveFrom or TrimBelow.
type Log struct {
	entries []Entry // the live entries are entries[head:]; entries[:head] is zeroed
	head    int

	chunks []arenaChunk // chunk id c is chunks[c-1]
	open   uint32       // id of the chunk being filled; 0 before the first
	free   []uint32     // ids of empty chunks other than the open one
}

// arenaChunk is one payload buffer (len used, cap-len free) and the number of
// entries pointing into it.
type arenaChunk struct {
	buf  []byte
	live int
}

// logChunk is the arena's chunk size. At 64 KiB a chunk is one allocation per
// ~65 entries of 1000 B and the open chunk's slack is noise even across the
// few hundred logs of a 64-group placement world.
const logChunk = 64 << 10

// own copies p into the arena and returns the copy and its chunk's id.
func (l *Log) own(p []byte) ([]byte, uint32) {
	if len(p) == 0 {
		return nil, 0
	}
	if l.open == 0 || len(p) > cap(l.chunks[l.open-1].buf)-len(l.chunks[l.open-1].buf) {
		l.openChunk(len(p))
	}
	c := &l.chunks[l.open-1]
	start := len(c.buf)
	c.buf = append(c.buf, p...)
	c.live++
	return c.buf[start:len(c.buf):len(c.buf)], l.open
}

// openChunk makes a chunk with room for n bytes the open one: an empty chunk
// if there is one, a new one otherwise. A payload larger than a chunk gets a
// buffer of its own, exactly full.
func (l *Log) openChunk(n int) {
	if l.open != 0 && l.chunks[l.open-1].live == 0 {
		l.free = append(l.free, l.open)
	}
	if k := len(l.free); k > 0 {
		l.open = l.free[k-1]
		l.free = l.free[:k-1]
	} else {
		l.chunks = append(l.chunks, arenaChunk{})
		l.open = uint32(len(l.chunks))
	}
	if c := &l.chunks[l.open-1]; cap(c.buf) < n {
		c.buf = make([]byte, 0, max(logChunk, n))
	}
}

// release drops one entry's claim on chunk id. The chunk's last entry leaving
// empties it for reuse: at once if it is the open chunk, through the free
// list otherwise. An oversize buffer is given back instead of kept.
func (l *Log) release(id uint32) {
	if id == 0 {
		return
	}
	c := &l.chunks[id-1]
	if c.live--; c.live > 0 {
		return
	}
	if cap(c.buf) > logChunk {
		c.buf = nil
	} else {
		c.buf = c.buf[:0]
	}
	if id != l.open {
		l.free = append(l.free, id)
	}
}

// vacate releases the chunks of the entries in es and zeroes them, so that no
// slot outside the live range keeps a payload reachable.
func (l *Log) vacate(es []Entry) {
	for i := range es {
		l.release(es[i].chunk)
	}
	clear(es)
}

// reset empties the log in place: every entry is vacated, so every chunk is
// empty and free for reuse, and the deque keeps its array. A durable restart
// replays its WAL into the arrays the log had already grown to.
func (l *Log) reset() {
	l.vacate(l.live())
	l.entries, l.head = l.entries[:0], 0
}

// Len returns the number of entries.
func (l *Log) Len() int { return len(l.entries) - l.head }

// live returns the entries in header order.
func (l *Log) live() []Entry { return l.entries[l.head:] }

// search returns the index in live() of the first entry with header >= h.
func (l *Log) search(h MsgHdr) int {
	es := l.live()
	return sort.Search(len(es), func(i int) bool {
		return !es[i].Hdr.Less(h)
	})
}

// Insert stores a copy of e, replacing any entry with the same header (whose
// bytes are released).
func (l *Log) Insert(e Entry) {
	e.Payload, e.chunk = l.own(e.Payload)
	i := l.head + l.search(e.Hdr)
	if i < len(l.entries) && l.entries[i].Hdr == e.Hdr {
		l.release(l.entries[i].chunk)
		l.entries[i] = e
		return
	}
	l.entries = append(l.entries, Entry{})
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = e
}

// Get returns the entry with header h, or nil.
func (l *Log) Get(h MsgHdr) *Entry {
	es := l.live()
	if i := l.search(h); i < len(es) && es[i].Hdr == h {
		return &es[i]
	}
	return nil
}

// RemoveFrom deletes every entry with header >= h (diff acceptance removes
// uncommitted entries newer than the diff's first message, Figure 5 line 62).
func (l *Log) RemoveFrom(h MsgHdr) {
	i := l.head + l.search(h)
	l.vacate(l.entries[i:])
	l.entries = l.entries[:i]
}

// TrimBelow deletes every entry with header < h (garbage collection of the
// committed prefix once every replica is known to have committed it). It
// advances the head past them; the live tail is copied down only once the
// dead prefix is at least as long, which a trimmed entry pays for once.
func (l *Log) TrimBelow(h MsgHdr) {
	es := l.live()
	if len(es) == 0 || !es[0].Hdr.Less(h) {
		return // nothing below h: the replica asks on every heartbeat
	}
	i := l.search(h)
	l.vacate(es[:i])
	l.head += i
	if rest := es[i:]; l.head >= len(rest) {
		n := copy(l.entries, rest)
		clear(rest)
		l.entries = l.entries[:n]
		l.head = 0
	}
}

// RangeOpen returns entries with lo < hdr < hi in order (diff commit,
// Figure 6 line 84).
func (l *Log) RangeOpen(lo, hi MsgHdr) []Entry {
	es := l.live()
	i := l.search(lo)
	if i < len(es) && es[i].Hdr == lo {
		i++
	}
	j := l.search(hi)
	return es[i:j]
}

// RangeClosed returns entries with lo <= hdr <= hi in order (diff
// construction, Figure 7 line 123).
func (l *Log) RangeClosed(lo, hi MsgHdr) []Entry {
	es := l.live()
	i := l.search(lo)
	j := l.search(hi)
	if j < len(es) && es[j].Hdr == hi {
		j++
	}
	return es[i:j]
}

// Last returns the highest entry, or nil for an empty log.
func (l *Log) Last() *Entry {
	if l.Len() == 0 {
		return nil
	}
	return &l.entries[len(l.entries)-1]
}
