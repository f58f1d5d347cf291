// Package kvstore implements the paper's application use case (§4.3): a
// replicated hash table whose update commands (create, set, delete) are
// replicated through an atomic broadcast engine, with every replica holding
// a complete copy. Reads can be served directly from any replica — with
// Acuerdo they bypass the broadcast instance entirely (in the paper the
// client reads replica memory with a one-sided RDMA read; here Get reads the
// replica's copy in place and costs nothing on the simulated fabric).
package kvstore

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"acuerdo/internal/abcast"
)

// OpKind is a hash-table update command.
type OpKind byte

// Update commands replicated through the broadcast engine.
const (
	OpCreate OpKind = iota + 1
	OpSet
	OpDelete
)

// Op is one update command.
type Op struct {
	ID    uint64 // request ID (unique per client request)
	Kind  OpKind
	Key   string
	Value []byte
}

// mustFit panics when a key of kl bytes or a value of vl bytes is too long for
// its length field: encoded anyway, the lengths would wrap and the bytes
// decode as a different, "truncated" or "trailing bytes" op.
func mustFit(kl, vl int) {
	if kl > math.MaxUint16 || uint64(vl) > math.MaxUint32 {
		panic(fmt.Sprintf("kvstore: op too large to encode: %d-byte key (max %d), %d-byte value (max %d)",
			kl, math.MaxUint16, vl, uint32(math.MaxUint32)))
	}
}

// Encode serializes the op into a new buffer (see AppendEncode).
func (o Op) Encode() []byte { return o.AppendEncode(nil) }

// AppendEncode appends the op's encoding to dst and returns the result; the
// leading 8 bytes are the request ID so the encoding doubles as an abcast
// payload. It copies Key and Value, and panics on an op whose lengths do not
// fit the encoding (mustFit).
func (o Op) AppendEncode(dst []byte) []byte {
	mustFit(len(o.Key), len(o.Value))
	dst = binary.LittleEndian.AppendUint64(dst, o.ID)
	dst = append(dst, byte(o.Kind))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(o.Key)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(o.Value)))
	dst = append(dst, o.Key...)
	return append(dst, o.Value...)
}

// split validates an encoded op and returns views of its key and value. The
// buffer must be exactly one encoded op: length fields that run past the
// buffer (truncation), trailing bytes beyond the encoded lengths (garbage a
// lax decoder would silently accept) and an unknown kind are all rejected,
// before anything is copied.
func split(b []byte) (kind OpKind, key, value []byte, err error) {
	if len(b) < 15 {
		return 0, nil, nil, fmt.Errorf("kvstore: short op (%d bytes)", len(b))
	}
	kl := int(binary.LittleEndian.Uint16(b[9:]))
	vl := int(binary.LittleEndian.Uint32(b[11:]))
	if 15+kl+vl > len(b) {
		return 0, nil, nil, fmt.Errorf("kvstore: truncated op")
	}
	if 15+kl+vl != len(b) {
		return 0, nil, nil, fmt.Errorf("kvstore: %d trailing bytes after op", len(b)-15-kl-vl)
	}
	switch kind = OpKind(b[8]); kind {
	case OpCreate, OpSet, OpDelete:
	default:
		return 0, nil, nil, fmt.Errorf("kvstore: unknown op kind %d", kind)
	}
	return kind, b[15 : 15+kl], b[15+kl:], nil
}

// DecodeOp parses an encoded op (see split for what it rejects) into an Op
// that shares nothing with b.
func DecodeOp(b []byte) (Op, error) {
	kind, key, value, err := split(b)
	if err != nil {
		return Op{}, err
	}
	return Op{
		ID:    binary.LittleEndian.Uint64(b),
		Kind:  kind,
		Key:   string(key),
		Value: append([]byte(nil), value...),
	}, nil
}

// Store is one replica's hash-table copy. Keys and values live in an arena of
// fixed-size byte chunks. A key's first write carves, in one piece, the key
// bytes the map key is made from and the value's slot: a header (the room
// carved, the value's length, whether the key is live) followed by the room.
// The map holds the header's address. A later write that fits the room
// overwrites it in place and a delete only marks the header, so the slot
// waits for the key's next set; only a value longer than its room carves the
// key again, with a new slot. A write stream over a fixed keyspace carves
// nothing once every key has held its longest value.
type Store struct {
	m       map[string]*byte // key -> its slot header
	free    []byte           // the unused tail of the newest chunk
	live    int              // keys that are not deleted
	Applied uint64
}

// A slot header is the room (uint32), the value's length (uint32) and a live
// byte, little-endian.
const hdrLen = 9

// arenaChunk is the size of an arena chunk: about a thousand keys of the
// placement workload's shape (20-byte key, 100-byte value). A value that
// does not fit one is carved into a chunk of its own.
const arenaChunk = 128 << 10

// NewStore creates an empty table.
func NewStore() *Store { return &Store{m: make(map[string]*byte)} }

// carve returns the next n bytes of the arena.
func (s *Store) carve(n int) []byte {
	if n > len(s.free) {
		s.free = make([]byte, max(n, arenaChunk))
	}
	b := s.free[:n:n]
	s.free = s.free[n:]
	return b
}

// slot returns the header at p and the room behind it.
func slot(p *byte) (h, room []byte) {
	n := binary.LittleEndian.Uint32(unsafe.Slice(p, 4))
	b := unsafe.Slice(p, hdrLen+int(n))
	return b[:hdrLen], b[hdrLen:]
}

// apply executes one update command from views of its key and value; the
// store keeps neither.
func (s *Store) apply(kind OpKind, key, value []byte) {
	s.Applied++
	var h, room []byte
	p, held := s.m[string(key)]
	if held {
		h, room = slot(p)
	}
	live := held && h[8] == 1
	switch {
	case kind == OpDelete:
		if live {
			h[8] = 0
			s.live--
		}
		return
	case !live:
		s.live++
	}
	if held && len(value) <= len(room) {
		binary.LittleEndian.PutUint32(h[4:], uint32(len(value)))
		h[8] = 1
		copy(room, value)
		return
	}
	// A first write, or a value longer than the room: key bytes, header and
	// value in one carve. The map's key becomes this copy of the key bytes.
	b := s.carve(len(key) + hdrLen + len(value))
	copy(b, key)
	h = b[len(key):]
	binary.LittleEndian.PutUint32(h, uint32(len(value)))
	binary.LittleEndian.PutUint32(h[4:], uint32(len(value)))
	h[8] = 1
	copy(h[hdrLen:], value)
	s.m[unsafe.String(unsafe.SliceData(b), len(key))] = &h[0]
}

// Get reads a key directly (the broadcast-bypassing read path). The result
// is the store's own bytes: valid until the next write to that key, which may
// overwrite them in place.
func (s *Store) Get(key string) ([]byte, bool) {
	p, ok := s.m[key]
	if !ok {
		return nil, false
	}
	h, room := slot(p)
	if h[8] == 0 {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(h[4:])
	return room[:n:n], true
}

// Len returns the number of keys.
func (s *Store) Len() int { return s.live }

// Replicated is a hash table replicated across n replicas through an
// atomic broadcast engine. The engine's owner must route every replica's
// delivered payloads into ApplyAt (all engines in this repository expose an
// OnDeliver hook for exactly this).
type Replicated struct {
	Engine abcast.System
	Stores []*Store
	nextID uint64
}

// NewReplicated builds the replicated table over engine with n replicas.
func NewReplicated(engine abcast.System, n int) *Replicated {
	r := &Replicated{Engine: engine, Stores: make([]*Store, n)}
	for i := range r.Stores {
		r.Stores[i] = NewStore()
	}
	return r
}

// ApplyAt feeds one delivered broadcast payload into replica i's store.
// Deliveries arrive in total order, so all stores stay identical. The op is
// applied from the payload view and nothing of payload is retained.
func (r *Replicated) ApplyAt(i int, payload []byte) error {
	kind, key, value, err := split(payload)
	if err != nil {
		return err
	}
	r.Stores[i].apply(kind, key, value)
	return nil
}

// Update replicates an update command, encoded into buf's storage (grown if
// it is too small), and returns the encoded payload; done runs when the
// client observes the commit, and buf is the caller's again from then on
// (abcast.System.Submit).
func (r *Replicated) Update(buf []byte, kind OpKind, key string, value []byte, done func()) []byte {
	r.nextID++
	p := Op{ID: r.nextID, Kind: kind, Key: key, Value: value}.AppendEncode(buf[:0])
	r.Engine.Submit(p, done)
	return p
}

// Set replicates a set command.
func (r *Replicated) Set(key string, value []byte, done func()) {
	r.Update(nil, OpSet, key, value, done)
}

// Delete replicates a delete command.
func (r *Replicated) Delete(key string, done func()) {
	r.Update(nil, OpDelete, key, nil, done)
}

// Get reads key from replica i directly, bypassing the broadcast engine.
func (r *Replicated) Get(i int, key string) ([]byte, bool) {
	return r.Stores[i].Get(key)
}
