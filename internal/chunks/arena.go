package chunks

// Arena owns the bytes of a history's elements: Own copies a byte string into
// a shared chunk and returns the copy with its chunk's id, which the element
// keeps, and Release gives that claim back when the element goes. The arena
// counts the live claims of every chunk and refills a chunk the moment the
// last one goes, so a history that is trimmed as it grows cycles through a
// fixed set of chunks and allocates nothing. The zero value is an empty arena.
type Arena struct {
	chunks []arenaChunk // chunk id c is chunks[c-1]
	open   uint32       // id of the chunk being filled; 0 before the first
	free   []uint32     // ids of empty chunks other than the open one
}

// arenaChunk is one payload buffer (len used, cap-len free) and the number of
// claims pointing into it.
type arenaChunk struct {
	buf  []byte
	live int
}

// ArenaChunkSize is the arena's chunk size. At 64 KiB a chunk is one
// allocation per ~65 payloads of 1000 B and the open chunk's slack is noise
// even across the few hundred logs of a 64-group placement world.
const ArenaChunkSize = 64 << 10

// Own copies p into the arena and returns the copy, capped at its length so
// that no append through one element reaches the next, and its chunk's id. An
// empty p takes no claim: it returns nil and id 0.
func (a *Arena) Own(p []byte) ([]byte, uint32) {
	if len(p) == 0 {
		return nil, 0
	}
	if a.open == 0 || len(p) > cap(a.chunks[a.open-1].buf)-len(a.chunks[a.open-1].buf) {
		a.openChunk(len(p))
	}
	c := &a.chunks[a.open-1]
	start := len(c.buf)
	c.buf = append(c.buf, p...)
	c.live++
	return c.buf[start:len(c.buf):len(c.buf)], a.open
}

// openChunk makes a chunk with room for n bytes the open one: an empty chunk
// if there is one, a new one otherwise. A payload larger than a chunk gets a
// buffer of its own, exactly full.
func (a *Arena) openChunk(n int) {
	if a.open != 0 && a.chunks[a.open-1].live == 0 {
		a.free = append(a.free, a.open)
	}
	if k := len(a.free); k > 0 {
		a.open = a.free[k-1]
		a.free = a.free[:k-1]
	} else {
		a.chunks = append(a.chunks, arenaChunk{})
		a.open = uint32(len(a.chunks))
	}
	if c := &a.chunks[a.open-1]; cap(c.buf) < n {
		c.buf = make([]byte, 0, max(ArenaChunkSize, n))
	}
}

// Release drops one claim on chunk id (0: none). The chunk's last claim
// leaving empties it for reuse: at once if it is the open chunk, through the
// free list otherwise. An oversize buffer is given back instead of kept.
func (a *Arena) Release(id uint32) {
	if id == 0 {
		return
	}
	c := &a.chunks[id-1]
	if c.live--; c.live > 0 {
		return
	}
	if cap(c.buf) > ArenaChunkSize {
		c.buf = nil
	} else {
		c.buf = c.buf[:0]
	}
	if id != a.open {
		a.free = append(a.free, id)
	}
}
