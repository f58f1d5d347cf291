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

// Encode serializes the op; the leading 8 bytes are the request ID so the
// encoding doubles as an abcast payload.
func (o Op) Encode() []byte {
	b := make([]byte, 15+len(o.Key)+len(o.Value))
	binary.LittleEndian.PutUint64(b, o.ID)
	b[8] = byte(o.Kind)
	binary.LittleEndian.PutUint16(b[9:], uint16(len(o.Key)))
	binary.LittleEndian.PutUint32(b[11:], uint32(len(o.Value)))
	copy(b[15:], o.Key)
	copy(b[15+len(o.Key):], o.Value)
	return b
}

// DecodeOp parses an encoded op. The buffer must be exactly one encoded
// op: length fields that run past the buffer (truncation) and trailing
// bytes beyond the encoded lengths (garbage a lax decoder would silently
// accept) are both rejected.
func DecodeOp(b []byte) (Op, error) {
	if len(b) < 15 {
		return Op{}, fmt.Errorf("kvstore: short op (%d bytes)", len(b))
	}
	kl := int(binary.LittleEndian.Uint16(b[9:]))
	vl := int(binary.LittleEndian.Uint32(b[11:]))
	if 15+kl+vl > len(b) {
		return Op{}, fmt.Errorf("kvstore: truncated op")
	}
	if 15+kl+vl != len(b) {
		return Op{}, fmt.Errorf("kvstore: %d trailing bytes after op", len(b)-15-kl-vl)
	}
	o := Op{
		ID:   binary.LittleEndian.Uint64(b),
		Kind: OpKind(b[8]),
		Key:  string(b[15 : 15+kl]),
	}
	if vl > 0 {
		o.Value = append([]byte(nil), b[15+kl:15+kl+vl]...)
	}
	switch o.Kind {
	case OpCreate, OpSet, OpDelete:
	default:
		return Op{}, fmt.Errorf("kvstore: unknown op kind %d", o.Kind)
	}
	return o, nil
}

// Store is one replica's hash-table copy.
type Store struct {
	m       map[string][]byte
	Applied uint64
}

// NewStore creates an empty table.
func NewStore() *Store { return &Store{m: make(map[string][]byte)} }

// Apply executes one committed update command.
func (s *Store) Apply(o Op) {
	s.Applied++
	switch o.Kind {
	case OpCreate, OpSet:
		s.m[o.Key] = o.Value
	case OpDelete:
		delete(s.m, o.Key)
	}
}

// Get reads a key directly (the broadcast-bypassing read path).
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
// Deliveries arrive in total order, so all stores stay identical.
func (r *Replicated) ApplyAt(i int, payload []byte) error {
	op, err := DecodeOp(payload)
	if err != nil {
		return err
	}
	r.Stores[i].Apply(op)
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
