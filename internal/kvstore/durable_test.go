package kvstore

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
	"time"

	"acuerdo/internal/disk"
	"acuerdo/internal/simnet"
)

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
}

func applyN(d *DurableStore, from, to int) {
	for i := from; i < to; i++ {
		d.Apply(Op{ID: uint64(i + 1), Kind: OpSet,
			Key:   string(rune('a' + i%7)),
			Value: []byte{byte(i)},
		})
	}
}

// TestDurableStoreCrashRecovery: group-committed ops survive a crash and
// replay into an identical table; the volatile tail is lost.
func TestDurableStoreCrashRecovery(t *testing.T) {
	sim := simnet.New(1)
	dev := disk.NewDevice(sim, 0, disk.DefaultParams())
	d := NewDurableStore(dev, 0)
	applyN(d, 0, 20)
	synced := false
	d.Sync(func(err error) {
		if err != nil {
			t.Errorf("sync: %v", err)
		}
		synced = true
	})
	sim.RunFor(time.Millisecond)
	if !synced {
		t.Fatal("sync never completed")
	}
	want := map[string][]byte{}
	for k, v := range d.Store.m {
		want[k] = v
	}
	wantApplied := d.Store.Applied

	// Two more ops that never reach a flush, then power loss.
	applyN(d, 20, 22)
	dev.Crash(sim.Rand())

	r, info := OpenDurableStore(dev, 0)
	if r.Store.Applied != wantApplied {
		t.Fatalf("recovered applied=%d, want %d (volatile tail must drop, durable prefix must not)",
			r.Store.Applied, wantApplied)
	}
	if info.Replayed != int(wantApplied) {
		t.Fatalf("replayed %d ops, want %d", info.Replayed, wantApplied)
	}
	if len(r.Store.m) != len(want) {
		t.Fatalf("recovered %d keys, want %d", len(r.Store.m), len(want))
	}
	for k, v := range want {
		if got, ok := r.Store.Get(k); !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %q: got %q/%v want %q", k, got, ok, v)
		}
	}
}

// TestDurableStoreSnapshotRestart: recovery loads the snapshot and replays
// only the WAL suffix past its frontier.
func TestDurableStoreSnapshotRestart(t *testing.T) {
	sim := simnet.New(2)
	dev := disk.NewDevice(sim, 0, disk.DefaultParams())
	d := NewDurableStore(dev, 8) // snapshot every 8 ops
	applyN(d, 0, 30)
	d.Sync(nil)
	sim.RunFor(time.Millisecond)
	dev.Crash(sim.Rand())

	r, info := OpenDurableStore(dev, 8)
	if info.SnapshotApplied == 0 {
		t.Fatal("no snapshot was loaded")
	}
	if got := info.SnapshotApplied + uint64(info.Replayed); got != 30 {
		t.Fatalf("snapshot(%d) + replay(%d) = %d, want 30",
			info.SnapshotApplied, info.Replayed, got)
	}
	if r.Store.Applied != 30 {
		t.Fatalf("recovered applied = %d, want 30", r.Store.Applied)
	}
	for i := 23; i < 30; i++ { // the last writer per key wins
		key := string(rune('a' + i%7))
		if v, ok := r.Store.Get(key); !ok || v[0] != byte(i) {
			t.Fatalf("key %q = %v/%v, want [%d]", key, v, ok, i)
		}
	}
}

// TestDurableStoreTornWALRestart: a torn crash mid-record recovers the
// checksummed prefix and drops the partial record.
func TestDurableStoreTornWALRestart(t *testing.T) {
	sim := simnet.New(3)
	dev := disk.NewDevice(sim, 0, disk.DefaultParams())
	d := NewDurableStore(dev, 0)
	applyN(d, 0, 10)
	d.Sync(nil)
	sim.RunFor(time.Millisecond)
	applyN(d, 10, 11) // one volatile op
	dev.ArmTornWrite()
	dev.Crash(sim.Rand())

	r, info := OpenDurableStore(dev, 0)
	if r.Store.Applied != 10 {
		t.Fatalf("recovered applied = %d, want the 10 synced ops", r.Store.Applied)
	}
	if info.Tail == disk.TailCorrupt {
		t.Fatalf("torn tail misclassified as corruption")
	}
}

// TestDurableStoreDeterministicDigest: same seed, same ops — byte-identical
// durable state.
func TestDurableStoreDeterministicDigest(t *testing.T) {
	run := func() uint64 {
		sim := simnet.New(11)
		dev := disk.NewDevice(sim, 0, disk.DefaultParams())
		d := NewDurableStore(dev, 8)
		applyN(d, 0, 25)
		d.Sync(nil)
		sim.RunFor(time.Millisecond)
		return uint64(dev.Digest())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("digests diverged: %016x vs %016x", a, b)
	}
}
