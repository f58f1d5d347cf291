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

// Encode serializes the op; the leading 8 bytes are the request ID so the
// encoding doubles as an abcast payload. It copies Key and Value, and panics
// on an op whose lengths do not fit the encoding (mustFit).
func (o Op) Encode() []byte {
	mustFit(len(o.Key), len(o.Value))
	b := make([]byte, 15+len(o.Key)+len(o.Value))
	binary.LittleEndian.PutUint64(b, o.ID)
	b[8] = byte(o.Kind)
	binary.LittleEndian.PutUint16(b[9:], uint16(len(o.Key)))
	binary.LittleEndian.PutUint32(b[11:], uint32(len(o.Value)))
	copy(b[15:], o.Key)
	copy(b[15+len(o.Key):], o.Value)
	return b
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

// Store is one replica's hash-table copy.
type Store struct {
	m       map[string][]byte
	Applied uint64
}

// NewStore creates an empty table.
func NewStore() *Store { return &Store{m: make(map[string][]byte)} }

// Apply executes one committed update command. The store keeps o.Value.
func (s *Store) Apply(o Op) {
	s.Applied++
	switch o.Kind {
	case OpCreate, OpSet:
		s.m[o.Key] = o.Value
	case OpDelete:
		delete(s.m, o.Key)
	}
}

// Get reads a key directly (the broadcast-bypassing read path). The result
// is the store's own bytes: valid until the next write to that key, which may
// overwrite them in place.
func (s *Store) Get(key string) ([]byte, bool) {
	v, ok := s.m[key]
	return v, ok
}

// Len returns the number of keys.
func (s *Store) Len() int { return len(s.m) }

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
// applied from the payload view and nothing of payload is retained: a set to
// a key the store holds at the same value length overwrites that value in
// place, and only a new key or a changed length allocates.
func (r *Replicated) ApplyAt(i int, payload []byte) error {
	kind, key, value, err := split(payload)
	if err != nil {
		return err
	}
	s := r.Stores[i]
	if old, ok := s.m[string(key)]; ok && kind != OpDelete && len(old) == len(value) {
		s.Applied++
		copy(old, value)
		return nil
	}
	s.Apply(Op{Kind: kind, Key: string(key), Value: append([]byte(nil), value...)})
	return nil
}

// Update replicates an update command; done runs when the client observes
// the commit.
func (r *Replicated) Update(kind OpKind, key string, value []byte, done func()) {
	r.nextID++
	op := Op{ID: r.nextID, Kind: kind, Key: key, Value: value}
	r.Engine.Submit(op.Encode(), done)
}

// Set replicates a set command.
func (r *Replicated) Set(key string, value []byte, done func()) {
	r.Update(OpSet, key, value, done)
}

// Delete replicates a delete command.
func (r *Replicated) Delete(key string, done func()) {
	r.Update(OpDelete, key, nil, done)
}

// Get reads key from replica i directly, bypassing the broadcast engine.
func (r *Replicated) Get(i int, key string) ([]byte, bool) {
	return r.Stores[i].Get(key)
}
