package acuerdo

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
// tail, in a deque of fixed-size blocks: in the normal broadcast mode
// insertions are strictly appending and trimming is a prefix cut, so both
// common cases are O(1), and neither ever moves an entry. A block the live
// range leaves — below the head after a trim, above the tail after
// RemoveFrom, every block after reset — is all zero and goes on a spare
// list, where Insert takes its next block from: a log trimmed as it grows
// cycles through the blocks it already has, and a log that is never trimmed
// (every replica with a WAL) allocates each block once and copies nothing.
//
// The log owns its payload bytes: Insert copies the payload into an arena of
// chunks and the stored entry points there, so the caller's buffer — a ring
// view, a slice of a diff record, a recovered WAL record, the client's
// request — is free the moment Insert returns, and what Get, Last and At hand
// out stays valid until the entry is trimmed, removed or replaced. The arena
// counts the live entries of every chunk and refills a chunk the moment the
// last one goes, so a log that is trimmed as it grows cycles through a fixed
// set of chunks and allocates nothing.
//
// The Range methods return positions, which At reads. Positions and the
// pointers Get, Last and At return stay valid across appends (an Insert above
// Last); an Insert below Last, RemoveFrom and TrimBelow invalidate them.
type Log struct {
	blocks     []*logBlock // blocks[k] holds positions base+k*logBlockLen on
	base       int         // position of blocks[0][0], a multiple of logBlockLen
	head, tail int         // the live entries are positions [head, tail)
	spare      []*logBlock // zeroed blocks outside the live range, taken before a new one

	chunks []arenaChunk // chunk id c is chunks[c-1]
	open   uint32       // id of the chunk being filled; 0 before the first
	free   []uint32     // ids of empty chunks other than the open one
}

// logBlockShift sets the block size: logBlockLen entries, 1280 B. A trimmed
// log shorter than a block lives in the block its head is in and the one its
// tail is in, two in all (a volatile replica at window 16 holds 18 entries at
// most), so a small block keeps every volatile log small — each of a
// placement fleet's too. Blocks are carved logCarveMax at a time once a log
// is long (see push), so a log that is never trimmed still allocates once
// per 256 entries.
const (
	logBlockShift = 5
	logBlockLen   = 1 << logBlockShift
	logCarveMax   = 8
)

// logBlock is one block of the deque. Every slot outside the live range is
// zero, so no recycled or spare block keeps a payload reachable.
type logBlock [logBlockLen]Entry

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

// At returns the entry at position p, one of a Range's (or, inside the
// log, any slot of a held block).
func (l *Log) At(p int) *Entry {
	return &l.blocks[(p-l.base)>>logBlockShift][p&(logBlockLen-1)]
}

// vacate releases the chunks of the entries at positions [i, j) and zeroes
// their slots.
func (l *Log) vacate(i, j int) {
	for p := i; p < j; p++ {
		e := l.At(p)
		l.release(e.chunk)
		*e = Entry{}
	}
}

// reset empties the log in place: every entry is vacated, so every chunk is
// empty and free for reuse and every block is spare. A durable restart
// replays its WAL into the blocks and chunks the log already had.
func (l *Log) reset() {
	l.vacate(l.head, l.tail)
	l.spare = append(l.spare, l.blocks...)
	l.blocks = l.blocks[:0]
	l.base, l.head, l.tail = 0, 0, 0
}

// Len returns the number of entries.
func (l *Log) Len() int { return l.tail - l.head }

// search returns the position of the first entry with header >= h.
func (l *Log) search(h MsgHdr) int {
	i, j := l.head, l.tail
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

// push appends e at the tail, taking a spare block when the tail reaches the
// end of the last. With none spare it carves as many blocks as the log
// holds, two at least and logCarveMax at most, from one allocation: a
// trimmed log's steady two blocks are there from its first entry, and a log
// that is never trimmed allocates about once per logCarveMax blocks.
func (l *Log) push(e Entry) {
	if l.tail-l.base == len(l.blocks)<<logBlockShift {
		if len(l.spare) == 0 {
			carved := make([]logBlock, min(max(len(l.blocks), 2), logCarveMax))
			for i := len(carved) - 1; i >= 0; i-- {
				l.spare = append(l.spare, &carved[i])
			}
		}
		k := len(l.spare) - 1
		l.blocks = append(l.blocks, l.spare[k])
		l.spare = l.spare[:k]
	}
	*l.At(l.tail) = e
	l.tail++
}

// Insert stores a copy of e, replacing any entry with the same header (whose
// bytes are released). An entry above Last is appended without a search.
func (l *Log) Insert(e Entry) {
	e.Payload, e.chunk = l.own(e.Payload)
	if l.tail == l.head || l.At(l.tail-1).Hdr.Less(e.Hdr) {
		l.push(e)
		return
	}
	i := l.search(e.Hdr) // < tail: Last is not below e
	if s := l.At(i); s.Hdr == e.Hdr {
		l.release(s.chunk)
		*s = e
		return
	}
	l.push(Entry{})
	for p := l.tail - 1; p > i; p-- {
		*l.At(p) = *l.At(p - 1)
	}
	*l.At(i) = e
}

// Get returns the entry with header h, or nil.
func (l *Log) Get(h MsgHdr) *Entry {
	if i := l.search(h); i < l.tail && l.At(i).Hdr == h {
		return l.At(i)
	}
	return nil
}

// RemoveFrom deletes every entry with header >= h (diff acceptance removes
// uncommitted entries newer than the diff's first message, Figure 5 line 62).
// Blocks above the new tail go spare.
func (l *Log) RemoveFrom(h MsgHdr) {
	i := l.search(h)
	l.vacate(i, l.tail)
	l.tail = i
	keep := (l.tail - l.base + logBlockLen - 1) >> logBlockShift
	l.spare = append(l.spare, l.blocks[keep:]...)
	l.blocks = l.blocks[:keep]
}

// TrimBelow deletes every entry with header < h (garbage collection of the
// committed prefix once every replica is known to have committed it). It
// advances the head past them, and the blocks wholly below the head go
// spare: the block pointers behind them move down, never an entry.
func (l *Log) TrimBelow(h MsgHdr) {
	if l.tail == l.head || !l.At(l.head).Hdr.Less(h) {
		return // nothing below h: the replica asks on every heartbeat
	}
	i := l.search(h)
	l.vacate(l.head, i)
	l.head = i
	if k := (l.head - l.base) >> logBlockShift; k > 0 {
		l.spare = append(l.spare, l.blocks[:k]...)
		l.blocks = l.blocks[:copy(l.blocks, l.blocks[k:])]
		l.base += k << logBlockShift
	}
}

// RangeOpen returns the positions [i, j) of the entries with lo < hdr < hi,
// in order (diff commit, Figure 6 line 84).
func (l *Log) RangeOpen(lo, hi MsgHdr) (i, j int) {
	i = l.search(lo)
	if i < l.tail && l.At(i).Hdr == lo {
		i++
	}
	return i, l.search(hi)
}

// RangeClosed returns the positions [i, j) of the entries with lo <= hdr <=
// hi, in order (diff construction, Figure 7 line 123).
func (l *Log) RangeClosed(lo, hi MsgHdr) (i, j int) {
	i, j = l.search(lo), l.search(hi)
	if j < l.tail && l.At(j).Hdr == hi {
		j++
	}
	return i, j
}

// Last returns the highest entry, or nil for an empty log.
func (l *Log) Last() *Entry {
	if l.tail == l.head {
		return nil
	}
	return l.At(l.tail - 1)
}
