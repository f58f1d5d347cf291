package digest_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
	"time"

	"acuerdo/internal/digest"
	"acuerdo/internal/disk"
	"acuerdo/internal/placement"
	"acuerdo/internal/simnet"
	"acuerdo/internal/ycsb"
)

// TestByteFoldIsFNV1a cross-checks Str and Uint64 against the standard
// library: they are canonical FNV-1a over the bytes / the little-endian
// encoding. Word is deliberately not (one round per word); the device digest
// golden below pins it.
func TestByteFoldIsFNV1a(t *testing.T) {
	for _, s := range []string{"", "a", "user0000000000000042", "acuerdo\x00\xff"} {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got := digest.Offset.Str(s); uint64(got) != h.Sum64() {
			t.Errorf("Str(%q) = %s, hash/fnv says %016x", s, got.Hex(), h.Sum64())
		}
	}
	for _, v := range []uint64{0, 1, 42, 1<<40 + 7, ^uint64(0)} {
		h := fnv.New64a()
		h.Write(binary.LittleEndian.AppendUint64(nil, v))
		if got := digest.Offset.Uint64(v); uint64(got) != h.Sum64() {
			t.Errorf("Uint64(%d) = %s, hash/fnv says %016x", v, got.Hex(), h.Sum64())
		}
	}
	if got := digest.Sum(0xbeef).Hex(); got != "000000000000beef" {
		t.Errorf("Hex = %q", got)
	}
}

// TestGoldenValues pins digests captured before the hand-rolled folds were
// replaced by this package: the committed BENCH_*.json fingerprints are built
// from exactly these, so none may move.
func TestGoldenValues(t *testing.T) {
	for pgs, want := range map[int]struct {
		fp  digest.Sum
		pgs [4]int // KeyPG of the keys below
	}{
		16: {0x8b2f5554b5eed832, [4]int{2, 0, 5, 10}},
		64: {0x97dd4d0b21d709c9, [4]int{50, 16, 37, 26}},
	} {
		m, err := placement.Build(placement.DefaultConfig(pgs))
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Fingerprint(); got != want.fp {
			t.Errorf("placement map fingerprint (%d PGs) = %s, want %s", pgs, got.Hex(), want.fp.Hex())
		}
		for i, key := range []string{"user0000000000000000", "user0000000000000042", "", "acuerdo"} {
			if got := m.KeyPG(key); got != want.pgs[i] {
				t.Errorf("KeyPG(%q) over %d PGs = %d, want %d", key, pgs, got, want.pgs[i])
			}
		}
	}

	// YCSB's key scramble, through the key stream built on it.
	w := ycsb.NewWorkload(10000, 100, 0.99, 1)
	for _, want := range []string{"user0000000000000486", "user0000000000008014", "user0000000000005744"} {
		if got := w.NextKey(); got != want {
			t.Errorf("ycsb key = %s, want %s", got, want)
		}
	}

	sim := simnet.New(1)
	dev := disk.NewDevice(sim, 0, disk.DefaultParams())
	wal := disk.NewLogStore(dev, "wal")
	for i := uint64(0); i < 4; i++ {
		wal.AppendEntry(i, 9, []byte{byte(i)}, nil)
	}
	sim.RunFor(time.Millisecond)
	if got := dev.Digest(); got != 0x5ca80d5c7ea8a03b {
		t.Errorf("device digest = %s, want 5ca80d5c7ea8a03b", got.Hex())
	}
}

// TestWordFoldDoesNotAllocate guards the hot path: trace.emit and
// observe.fold chain five Words per event.
func TestWordFoldDoesNotAllocate(t *testing.T) {
	s := digest.Offset
	if n := testing.AllocsPerRun(100, func() { s = s.Word(1).Word(2).Uint64(3) }); n != 0 {
		t.Errorf("fold allocated %v times per run", n)
	}
}
