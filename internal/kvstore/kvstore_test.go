package kvstore

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"acuerdo/internal/acuerdo"
	"acuerdo/internal/rdma"
	"acuerdo/internal/simnet"
)

func TestOpRoundTrip(t *testing.T) {
	f := func(id uint64, key string, value []byte) bool {
		if len(key) > 60000 {
			key = key[:60000]
		}
		op := Op{ID: id, Kind: OpSet, Key: key, Value: value}
		got, err := DecodeOp(op.Encode())
		if err != nil {
			return false
		}
		return got.ID == id && got.Kind == OpSet && got.Key == key &&
			bytes.Equal(got.Value, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeOp([]byte{1, 2, 3}); err == nil {
		t.Fatal("short op accepted")
	}
	op := Op{ID: 1, Kind: OpSet, Key: "k", Value: []byte("v")}
	enc := op.Encode()
	enc[8] = 99
	if _, err := DecodeOp(enc); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := DecodeOp(op.Encode()[:16]); err == nil {
		t.Fatal("truncated op accepted")
	}
}

// TestOpRoundTripAllKinds is the Encode/DecodeOp property test across every
// op kind: decode(encode(op)) == op for arbitrary ids, keys, and values.
func TestOpRoundTripAllKinds(t *testing.T) {
	for _, kind := range []OpKind{OpCreate, OpSet, OpDelete} {
		kind := kind
		f := func(id uint64, key string, value []byte) bool {
			if len(key) > 60000 {
				key = key[:60000]
			}
			op := Op{ID: id, Kind: kind, Key: key, Value: value}
			got, err := DecodeOp(op.Encode())
			if err != nil {
				return false
			}
			return got.ID == id && got.Kind == kind && got.Key == key &&
				bytes.Equal(got.Value, value)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
	}
}

// TestDecodeOpMalformed is the malformed-input table: short buffers,
// truncations, wrong kinds, oversized length fields, and trailing garbage
// must all be rejected.
func TestDecodeOpMalformed(t *testing.T) {
	good := Op{ID: 7, Kind: OpSet, Key: "key", Value: []byte("value")}.Encode()
	oversizedKey := append([]byte(nil), good...)
	binary.LittleEndian.PutUint16(oversizedKey[9:], 60000)
	oversizedVal := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(oversizedVal[11:], 1<<30)
	wrongKind := append([]byte(nil), good...)
	wrongKind[8] = 99
	zeroKind := append([]byte(nil), good...)
	zeroKind[8] = 0
	trailing := append(append([]byte(nil), good...), 0xde, 0xad)

	cases := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"short", []byte{1, 2, 3}},
		{"header-only-minus-one", good[:14]},
		{"truncated-key", good[:16]},
		{"truncated-value", good[:len(good)-2]},
		{"wrong-kind", wrongKind},
		{"zero-kind", zeroKind},
		{"oversized-key-length", oversizedKey},
		{"oversized-value-length", oversizedVal},
		{"trailing-garbage", trailing},
	}
	for _, c := range cases {
		if _, err := DecodeOp(c.in); err == nil {
			t.Errorf("%s: DecodeOp accepted %d bytes", c.name, len(c.in))
		}
	}
	if _, err := DecodeOp(good); err != nil {
		t.Fatalf("well-formed op rejected: %v", err)
	}

	// The other way round: an op whose lengths do not fit their fields used
	// to encode with the lengths wrapped, into bytes that decode as one of
	// the cases above (or, worse, as a different well-formed op). Encode
	// refuses instead. A value past uint32 needs a 4 GiB slice, so that case
	// goes to the length check directly.
	for _, c := range []struct {
		name   string
		encode func()
		refuse bool
	}{
		{"key-past-uint16", func() { Op{Kind: OpSet, Key: strings.Repeat("k", 1<<16), Value: []byte("v")}.Encode() }, true},
		{"key-at-uint16", func() { Op{Kind: OpSet, Key: strings.Repeat("k", 1<<16-1)}.Encode() }, false},
		{"value-past-uint32", func() { mustFit(3, int(uint64(1)<<32)) }, true},
		{"value-at-uint32", func() { mustFit(3, int(uint64(1)<<32-1)) }, false},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if strings.Contains(msg, "too large to encode") != c.refuse {
					t.Errorf("%s: panic %q, want a refusal: %v", c.name, msg, c.refuse)
				}
			}()
			c.encode()
		}()
	}
}

// TestStoreApply: create, set and delete through ApplyAt, then a set of the
// deleted key, which revives it from its tombstone.
func TestStoreApply(t *testing.T) {
	rm := NewReplicated(nil, 1)
	apply := func(kind OpKind, key, value string) {
		t.Helper()
		if err := rm.ApplyAt(0, Op{Kind: kind, Key: key, Value: []byte(value)}.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	s := rm.Stores[0]
	apply(OpCreate, "a", "1")
	apply(OpSet, "a", "2")
	if v, ok := s.Get("a"); !ok || string(v) != "2" {
		t.Fatalf("a = %q/%v", v, ok)
	}
	apply(OpDelete, "a", "")
	if _, ok := s.Get("a"); ok || s.Len() != 0 {
		t.Fatalf("delete did not remove key: %d keys", s.Len())
	}
	apply(OpDelete, "a", "")
	apply(OpSet, "a", "three")
	if v, ok := s.Get("a"); !ok || string(v) != "three" || s.Len() != 1 {
		t.Fatalf("a = %q/%v in %d keys", v, ok, s.Len())
	}
	if s.Applied != 5 {
		t.Fatalf("applied = %d", s.Applied)
	}
}

// TestReplicatedOverAcuerdo runs the full §4.3 stack: a replicated hash
// table over a live Acuerdo instance.
func TestReplicatedOverAcuerdo(t *testing.T) {
	sim := simnet.New(1)
	fabric := rdma.NewFabric(sim, rdma.DefaultParams())
	cl := acuerdo.NewCluster(sim, fabric, acuerdo.DefaultClusterConfig(3))
	rm := NewReplicated(cl, 3)
	cl.OnDeliver = func(replica int, hdr acuerdo.MsgHdr, payload []byte) {
		if err := rm.ApplyAt(replica, payload); err != nil {
			t.Fatal(err)
		}
	}
	cl.Start()
	sim.RunFor(20 * time.Millisecond)

	done := 0
	rm.Set("alpha", []byte("1"), func() { done++ })
	rm.Set("beta", []byte("2"), func() { done++ })
	rm.Set("alpha", []byte("3"), func() { done++ })
	rm.Delete("beta", func() { done++ })
	sim.RunFor(10 * time.Millisecond)
	if done != 4 {
		t.Fatalf("committed %d of 4", done)
	}
	// Every replica converged to the same table; reads bypass broadcast.
	for i := 0; i < 3; i++ {
		if v, ok := rm.Get(i, "alpha"); !ok || string(v) != "3" {
			t.Fatalf("replica %d: alpha = %q/%v", i, v, ok)
		}
		if _, ok := rm.Get(i, "beta"); ok {
			t.Fatalf("replica %d: beta survived delete", i)
		}
	}
}

// TestReplicasConvergeAfterFailover: updates across a leader crash leave
// all surviving replicas with identical tables.
func TestReplicasConvergeAfterFailover(t *testing.T) {
	sim := simnet.New(2)
	fabric := rdma.NewFabric(sim, rdma.DefaultParams())
	cl := acuerdo.NewCluster(sim, fabric, acuerdo.DefaultClusterConfig(3))
	rm := NewReplicated(cl, 3)
	cl.OnDeliver = func(replica int, hdr acuerdo.MsgHdr, payload []byte) {
		if err := rm.ApplyAt(replica, payload); err != nil {
			t.Fatal(err)
		}
	}
	cl.Start()
	sim.RunFor(20 * time.Millisecond)
	for i := 0; i < 20; i++ {
		rm.Set(string(rune('a'+i%5)), []byte{byte(i)}, nil)
	}
	sim.RunFor(10 * time.Millisecond)
	old := cl.LeaderIdx()
	cl.Replicas[old].Crash()
	sim.RunFor(40 * time.Millisecond)
	for i := 0; i < 20; i++ {
		rm.Set(string(rune('a'+i%5)), []byte{byte(100 + i)}, nil)
	}
	sim.RunFor(40 * time.Millisecond)
	// Surviving replicas agree key-by-key.
	var ref int = -1
	for i := 0; i < 3; i++ {
		if cl.Replicas[i].Node.Crashed() {
			continue
		}
		if ref == -1 {
			ref = i
			continue
		}
		for k := 0; k < 5; k++ {
			key := string(rune('a' + k))
			va, oka := rm.Get(ref, key)
			vb, okb := rm.Get(i, key)
			if oka != okb || !bytes.Equal(va, vb) {
				t.Fatalf("replicas %d/%d diverge on %q: %v/%v", ref, i, key, va, vb)
			}
		}
	}
}
