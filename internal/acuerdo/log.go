package acuerdo

import "sort"

// Entry is one message stored in a replica's ordered log.
type Entry struct {
	Hdr     MsgHdr
	Payload []byte
}

// Log is the ordered message log (the paper's map<msghdr, message*> Log,
// iterated in header order). It is kept as a sorted slice: in the normal
// broadcast mode insertions are strictly appending, so the common case is
// O(1).
//
// The log owns its payload bytes: Insert copies the payload into an
// append-only arena of chunks and the stored entry points there, so the
// caller's buffer — a ring view, a slice of a diff record, a recovered WAL
// record, the client's request — is free the moment Insert returns, and what
// Get and the Range methods hand out stays valid for the life of the log.
// The arena only remembers the chunk it is filling; a full chunk lives as
// long as an entry (or a slice a reader took) points into it.
type Log struct {
	entries []Entry
	chunk   []byte // the arena's open chunk: len used, cap-len free
}

// logChunk is the arena's chunk size. At 64 KiB a chunk is one allocation per
// ~65 entries of 1000 B and the open chunk's slack is noise even across the
// few hundred logs of a 64-group placement world.
const logChunk = 64 << 10

// own copies p into the arena and returns the copy.
func (l *Log) own(p []byte) []byte {
	if len(p) > cap(l.chunk)-len(l.chunk) {
		// A payload larger than a chunk gets one of its own, exactly full.
		l.chunk = make([]byte, 0, max(logChunk, len(p)))
	}
	start := len(l.chunk)
	l.chunk = append(l.chunk, p...)
	return l.chunk[start:len(l.chunk):len(l.chunk)]
}

// Len returns the number of entries.
func (l *Log) Len() int { return len(l.entries) }

// search returns the index of the first entry with header >= h.
func (l *Log) search(h MsgHdr) int {
	return sort.Search(len(l.entries), func(i int) bool {
		return !l.entries[i].Hdr.Less(h)
	})
}

// Insert stores a copy of e, replacing any entry with the same header.
func (l *Log) Insert(e Entry) {
	e.Payload = l.own(e.Payload)
	i := l.search(e.Hdr)
	if i < len(l.entries) && l.entries[i].Hdr == e.Hdr {
		l.entries[i] = e
		return
	}
	l.entries = append(l.entries, Entry{})
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = e
}

// Get returns the entry with header h, or nil.
func (l *Log) Get(h MsgHdr) *Entry {
	i := l.search(h)
	if i < len(l.entries) && l.entries[i].Hdr == h {
		return &l.entries[i]
	}
	return nil
}

// RemoveFrom deletes every entry with header >= h (diff acceptance removes
// uncommitted entries newer than the diff's first message, Figure 5 line 62).
func (l *Log) RemoveFrom(h MsgHdr) {
	i := l.search(h)
	l.entries = l.entries[:i]
}

// TrimBelow deletes every entry with header < h (garbage collection of the
// committed prefix once every replica is known to have committed it).
func (l *Log) TrimBelow(h MsgHdr) {
	i := l.search(h)
	if i > 0 {
		l.entries = append(l.entries[:0], l.entries[i:]...)
	}
}

// RangeOpen returns entries with lo < hdr < hi in order (diff commit,
// Figure 6 line 84).
func (l *Log) RangeOpen(lo, hi MsgHdr) []Entry {
	i := l.search(lo)
	if i < len(l.entries) && l.entries[i].Hdr == lo {
		i++
	}
	j := l.search(hi)
	return l.entries[i:j]
}

// RangeClosed returns entries with lo <= hdr <= hi in order (diff
// construction, Figure 7 line 123).
func (l *Log) RangeClosed(lo, hi MsgHdr) []Entry {
	i := l.search(lo)
	j := l.search(hi)
	if j < len(l.entries) && l.entries[j].Hdr == hi {
		j++
	}
	return l.entries[i:j]
}

// Last returns the highest entry, or nil for an empty log.
func (l *Log) Last() *Entry {
	if len(l.entries) == 0 {
		return nil
	}
	return &l.entries[len(l.entries)-1]
}
