package disk

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"acuerdo/internal/digest"
	"acuerdo/internal/simnet"
)

func newSim(seed int64) *simnet.Sim { return simnet.New(seed) }

func TestAppendSyncDurability(t *testing.T) {
	sim := newSim(1)
	dev := NewDevice(sim, 0, DefaultParams())
	synced := false
	if got := dev.Append("wal", []byte("hel"), nil, []byte("lo")); string(got) != "hello" {
		t.Fatalf("Append landed %q, want the parts concatenated", got)
	}
	if st := dev.Stats(); st.Writes != 1 || st.WriteBytes != 5 {
		t.Fatalf("a three-part append counted %d writes of %d bytes, want one of 5", st.Writes, st.WriteBytes)
	}
	if _, durable := dev.Size("wal"); durable != 0 {
		t.Fatalf("bytes durable before any fsync: %d", durable)
	}
	dev.Sync("wal", func() { synced = true })
	sim.RunFor(time.Millisecond)
	if !synced {
		t.Fatal("sync callback did not fire")
	}
	if total, durable := dev.Size("wal"); total != 5 || durable != 5 {
		t.Fatalf("got total=%d durable=%d, want 5/5", total, durable)
	}
	if got := dev.Durable("wal"); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("durable content %q", got)
	}
}

func TestFsyncLatencyOnClock(t *testing.T) {
	sim := newSim(1)
	p := DefaultParams()
	p.FsyncLatency = 10 * time.Microsecond
	p.FsyncBytePer = 0
	dev := NewDevice(sim, 0, p)
	dev.Append("wal", make([]byte, 100))
	start := sim.Now()
	var doneAt simnet.Time
	dev.Sync("wal", func() { doneAt = sim.Now() })
	sim.RunFor(time.Millisecond)
	if got := doneAt.Sub(start); got != 10*time.Microsecond {
		t.Fatalf("fsync took %v, want 10us", got)
	}
}

func TestCrashDropsVolatileTail(t *testing.T) {
	sim := newSim(1)
	dev := NewDevice(sim, 0, DefaultParams())
	dev.Append("wal", []byte("durable|"))
	dev.Sync("wal", nil)
	sim.RunFor(time.Millisecond)
	dev.Append("wal", []byte("volatile"))
	dev.Crash(sim.Rand())
	if got := dev.Durable("wal"); !bytes.Equal(got, []byte("durable|")) {
		t.Fatalf("post-crash content %q", got)
	}
	if total, durable := dev.Size("wal"); total != durable {
		t.Fatalf("crash left volatile bytes: total=%d durable=%d", total, durable)
	}
}

func TestCrashDropsPendingCallbacks(t *testing.T) {
	sim := newSim(1)
	dev := NewDevice(sim, 0, DefaultParams())
	fired := false
	dev.Append("wal", []byte("x"))
	dev.Sync("wal", func() { fired = true })
	dev.Crash(sim.Rand())
	sim.RunFor(time.Millisecond)
	if fired {
		t.Fatal("completion callback fired across a crash")
	}
}

func TestWALGroupCommitBatches(t *testing.T) {
	sim := newSim(1)
	dev := NewDevice(sim, 0, DefaultParams())
	w := NewLogStore(dev, "wal")
	const n = 16
	acked := 0
	for i := 0; i < n; i++ {
		w.AppendEntry(uint64(i), 0, []byte{byte(i)}, func() { acked++ })
	}
	sim.RunFor(time.Millisecond)
	if acked != n {
		t.Fatalf("acked %d of %d appends", acked, n)
	}
	// All 16 appends land before the first flush completes: one flush for
	// the head, at most one more for the batch behind it.
	if f := dev.Stats().Fsyncs; f > 2 {
		t.Fatalf("group commit issued %d fsyncs for %d concurrent appends", f, n)
	}
}

// TestLogStoreGoldenBytes pins the on-device record format byte for byte —
// [crc][len][kind][payload] for one entry, one truncate, one meta cell and
// the flush marker — so a change to how records are built cannot move what
// an older log replays as.
func TestLogStoreGoldenBytes(t *testing.T) {
	sim := newSim(1)
	dev := NewDevice(sim, 0, DefaultParams())
	ls := NewLogStore(dev, "wal")
	ls.AppendEntry(7, 3, []byte("acuerdo"), nil)
	ls.Truncate(5, nil)
	ls.SetMeta(2, 0x0102030405060708, nil)
	ls.Flush(nil)
	sim.RunFor(time.Millisecond)
	const want = "af61a250" + "17000000" + "01" + "0700000000000000" + "0300000000000000" + "6163756572646f" +
		"4c321f80" + "08000000" + "02" + "0500000000000000" +
		"bfc9a5e6" + "09000000" + "03" + "02" + "0807060504030201" +
		"3edff241" + "09000000" + "03" + "ff" + "0000000000000000"
	if got := hex.EncodeToString(dev.Durable("wal")); got != want {
		t.Fatalf("device bytes\n got %s\nwant %s", got, want)
	}
}

func TestLogStoreRecoverRoundTrip(t *testing.T) {
	sim := newSim(1)
	dev := NewDevice(sim, 0, DefaultParams())
	ls := NewLogStore(dev, "wal")
	for i := uint64(0); i < 5; i++ {
		ls.AppendEntry(i, 100+i, []byte{byte(i)}, nil)
	}
	ls.Truncate(3, nil) // drop entries 3, 4
	ls.AppendEntry(3, 203, []byte{33}, nil)
	ls.SetMeta(1, 42, nil)
	ls.SetMeta(1, 43, nil) // last write wins
	ls.SetMeta(2, 7, nil)
	ls.Flush(nil)
	sim.RunFor(time.Millisecond)
	dev.Crash(sim.Rand())

	rec := RecoverLog(dev, "wal")
	if rec.Tail != TailClean || rec.Dropped != 0 {
		t.Fatalf("tail=%v dropped=%d, want clean/0", rec.Tail, rec.Dropped)
	}
	entries := collect(&rec)
	if len(entries) != 4 {
		t.Fatalf("recovered %d entries, want 4", len(entries))
	}
	for i, want := range []uint64{100, 101, 102, 203} {
		if entries[i].Term != want {
			t.Errorf("entry %d term %d, want %d", i, entries[i].Term, want)
		}
	}
	if entries[3].Seq != 3 || entries[3].Data[0] != 33 {
		t.Fatalf("the rewritten entry recovered as %+v", entries[3])
	}
	if rec.Meta[1] != 43 || rec.Meta[2] != 7 {
		t.Fatalf("meta = %v", rec.Meta)
	}
}

// TestRecoverRewrittenSlotKeepsLastRecord: a slot written twice with no
// truncate between recovers its last record, and a slot left out stays zero,
// when the stream is laid out by position as raft and zab lay it out.
func TestRecoverRewrittenSlotKeepsLastRecord(t *testing.T) {
	sim := newSim(1)
	dev := NewDevice(sim, 0, DefaultParams())
	ls := NewLogStore(dev, "wal")
	ls.AppendEntry(0, 1, []byte("first"), nil)
	ls.AppendEntry(2, 2, []byte("gap before"), nil)
	ls.AppendEntry(0, 3, []byte("last"), nil)
	sim.RunFor(time.Millisecond)
	rec := RecoverLog(dev, "wal")
	pos := positional(&rec)
	if pos.Len() != 3 || pos.At(0).Term != 3 || string(pos.At(0).Data) != "last" || pos.At(1).Term != 0 || pos.At(2).Term != 2 {
		t.Fatalf("positional log with a gap and a rewrite: %+v %+v %+v", pos.At(0), pos.At(1), pos.At(2))
	}
}

func TestRecoverStopsAtTornTail(t *testing.T) {
	sim := newSim(7)
	dev := NewDevice(sim, 0, DefaultParams())
	ls := NewLogStore(dev, "wal")
	for i := uint64(0); i < 3; i++ {
		ls.AppendEntry(i, 1, bytes.Repeat([]byte{byte(i)}, 64), nil)
	}
	sim.RunFor(time.Millisecond) // all three durable
	// One more entry buffered but never flushed, then a torn crash: a
	// random strict prefix of the unsynced record survives on the platter.
	ls.AppendEntry(3, 1, bytes.Repeat([]byte{3}, 64), nil)
	dev.ArmTornWrite()
	dev.Crash(sim.Rand())

	rec := RecoverLog(dev, "wal")
	// The fsynced records are the durability floor; the torn partial record
	// must never surface as an entry.
	entries := collect(&rec)
	if len(entries) != 3 {
		t.Fatalf("recovered %d entries, want exactly the 3 fsynced ones", len(entries))
	}
	if rec.Dropped > 0 && rec.Tail != TailTorn {
		t.Fatalf("%d trailing bytes but tail=%v, want torn", rec.Dropped, rec.Tail)
	}
	for i, e := range entries {
		if e.Seq != uint64(i) || e.Term != 1 || len(e.Data) != 64 {
			t.Fatalf("entry %d corrupted: %+v", i, e)
		}
	}

	// The restart step must trim the torn bytes: an entry appended and
	// fsynced after the restart has to survive a second power cut, not hide
	// behind them. It reads a second, untorn log in the same step and charges
	// the ledger and the CPU once for both.
	if rec.Dropped == 0 {
		t.Fatal("seed left no torn bytes on the platter; pick one that does")
	}
	NewLogStore(dev, "other").AppendEntry(0, 9, []byte("kept"), nil)
	sim.RunFor(time.Millisecond)
	var ledger Recovery
	proc := simnet.NewProc(sim, 0, "replica")
	logs := ledger.Reopen(dev, proc, "wal", "other")
	wal, other := logs[0], logs[1]
	if _, durable := dev.Size("wal"); len(collect(&wal.Recovered)) != 3 || durable != wal.Bytes {
		t.Fatalf("Reopen recovered %d entries and left %d durable bytes, want 3 and %d", len(collect(&wal.Recovered)), durable, wal.Bytes)
	}
	if kept := collect(&other.Recovered); len(kept) != 1 || string(kept[0].Data) != "kept" || other.Store.Name() != "other" {
		t.Fatalf("second log recovered %+v", kept)
	}
	read := wal.Bytes + other.Bytes
	if got := ledger.DiskRecoveredBytes(); got != int64(read) {
		t.Fatalf("ledger counts %d disk bytes, want %d", got, read)
	}
	if got, want := proc.BusyUntil().Sub(sim.Now()), dev.ReadCost(read); got != want {
		t.Fatalf("restart paused the CPU for %v, want one read of both logs, %v", got, want)
	}
	wal.Store.AppendEntry(3, 2, bytes.Repeat([]byte{3}, 64), nil)
	sim.RunFor(time.Millisecond)
	dev.Crash(sim.Rand())
	if wal = ledger.Reopen(dev, proc, "wal")[0]; len(collect(&wal.Recovered)) != 4 || wal.Tail != TailClean {
		t.Fatalf("second recovery found %d entries (tail %v), want 4 clean", len(collect(&wal.Recovered)), wal.Tail)
	}
	if got := ledger.DiskRecoveredBytes(); got != int64(read+wal.Bytes) {
		t.Fatalf("ledger counts %d disk bytes after two restarts, want %d", got, read+wal.Bytes)
	}
}

func TestRecoverStopsAtBitFlip(t *testing.T) {
	sim := newSim(3)
	dev := NewDevice(sim, 0, DefaultParams())
	ls := NewLogStore(dev, "wal")
	for i := uint64(0); i < 8; i++ {
		ls.AppendEntry(i, 1, bytes.Repeat([]byte{byte(i)}, 32), nil)
	}
	sim.RunFor(time.Millisecond)
	if !dev.CorruptDurable(sim.Rand()) {
		t.Fatal("corruption found nothing to flip")
	}
	rec := RecoverLog(dev, "wal")
	if rec.Tail != TailCorrupt {
		t.Fatalf("tail=%v, want corrupt", rec.Tail)
	}
	entries := collect(&rec)
	if len(entries) >= 8 || rec.Dropped == 0 {
		t.Fatalf("corruption undetected: %d entries, %d dropped", len(entries), rec.Dropped)
	}
	// The surviving prefix must be intact.
	for i, e := range entries {
		if e.Seq != uint64(i) || !bytes.Equal(e.Data, bytes.Repeat([]byte{byte(i)}, 32)) {
			t.Fatalf("recovered prefix entry %d damaged", i)
		}
	}
}

func TestFsyncStallDelaysFlush(t *testing.T) {
	sim := newSim(1)
	p := DefaultParams()
	p.FsyncLatency = 10 * time.Microsecond
	p.FsyncBytePer = 0
	dev := NewDevice(sim, 0, p)
	dev.Append("wal", []byte("x"))
	dev.StallFsync(5 * time.Millisecond)
	start := sim.Now()
	var doneAt simnet.Time
	dev.Sync("wal", func() { doneAt = sim.Now() })
	sim.RunFor(20 * time.Millisecond)
	if got := doneAt.Sub(start); got != 5*time.Millisecond+10*time.Microsecond {
		t.Fatalf("stalled fsync took %v, want 5.01ms", got)
	}
}

func TestDigestTracksDurableStateOnly(t *testing.T) {
	mk := func(seed int64, extraVolatile bool) uint64 {
		sim := newSim(seed)
		dev := NewDevice(sim, 0, DefaultParams())
		ls := NewLogStore(dev, "wal")
		for i := uint64(0); i < 4; i++ {
			ls.AppendEntry(i, 9, []byte{byte(i)}, nil)
		}
		sim.RunFor(time.Millisecond)
		if extraVolatile {
			ls.AppendEntry(99, 9, []byte("unsynced"), nil) // buffered, never flushed
		}
		return uint64(dev.Digest())
	}
	if mk(1, false) != mk(2, false) {
		t.Fatal("identical durable state produced different digests")
	}
	if mk(1, false) != mk(1, true) {
		t.Fatal("volatile bytes leaked into the durable digest")
	}
	// And durable differences must show.
	sim := newSim(1)
	dev := NewDevice(sim, 0, DefaultParams())
	NewLogStore(dev, "wal").AppendEntry(0, 1, []byte("different"), nil)
	sim.RunFor(time.Millisecond)
	if uint64(dev.Digest()) == mk(1, false) {
		t.Fatal("different durable state produced equal digests")
	}
}

// refFile is a device file as it was before segments: one contiguous byte
// slice grown by append, its first synced bytes durable. refDevice holds such
// files and applies each device operation to them the way the flat file did;
// TestDeviceSegmentsMatchFlatFile holds the segmented Device to it.
type refFile struct {
	data   []byte
	synced int
}

type refDevice map[string]*refFile

func (r refDevice) get(name string) *refFile {
	if r[name] == nil {
		r[name] = &refFile{}
	}
	return r[name]
}

func (r refDevice) names() []string {
	var out []string
	for name := range r {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (r refDevice) crash(torn bool, rng *rand.Rand) {
	for _, name := range r.names() {
		f := r[name]
		keep := f.synced
		if tail := len(f.data) - f.synced; torn && tail > 0 {
			keep += rng.Intn(tail)
		}
		f.data, f.synced = f.data[:keep], keep
	}
}

func (r refDevice) corrupt(rng *rand.Rand) bool {
	var victim *refFile
	var max int
	for _, name := range r.names() {
		if f := r[name]; f.synced > max {
			victim, max = f, f.synced
		}
	}
	if victim == nil {
		return false
	}
	off := max/2 + rng.Intn(max-max/2)
	victim.data[off] ^= 1 << uint(rng.Intn(8))
	return true
}

func (r refDevice) digest() digest.Sum {
	h := digest.Offset
	for _, name := range r.names() {
		f := r[name]
		h = h.Str(name).Word(uint64(f.synced))
		var acc uint64
		for i := 0; i < f.synced; i++ {
			acc = acc<<8 | uint64(f.data[i])
			if i&7 == 7 {
				h = h.Word(acc)
				acc = 0
			}
		}
		h = h.Word(acc)
	}
	return h
}

// TestDeviceSegmentsMatchFlatFile drives a segmented Device and the flat
// reference with the same seeded programs over two files: appends of random
// size (small ones, ones larger than a segment, ones that fill the last
// segment exactly, a segment's worth, empty ones), completed flushes, a
// flush cut off by a power loss, clean and torn crashes, Reopen's trim,
// Truncate, CorruptDurable and Wipe. After every step both hold the same
// sizes, the same durable bytes and the same digest.
func TestDeviceSegmentsMatchFlatFile(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	names := []string{"a", "b"}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		sim := newSim(seed)
		dev := NewDevice(sim, 0, DefaultParams())
		ref := refDevice{}
		rng := rand.New(rand.NewSource(seed))
		var boundaries, spanning, crossings, maxSegs int
		for step := 0; step < 250; step++ {
			name := names[rng.Intn(len(names))]
			op := rng.Intn(100)
			switch {
			case op < 60:
				var n int
				switch k := rng.Intn(20); {
				case k < 12:
					n = rng.Intn(300)
				case k < 14:
					n = segSize + 1 + rng.Intn(2*segSize)
					spanning++
				case k < 17:
					// Fill the last segment exactly, when it has room.
					if f := dev.files[name]; f != nil && len(f.segs) > 0 {
						last := f.segs[len(f.segs)-1]
						n = cap(last) - len(last)
					}
					if n > 0 {
						boundaries++
					}
				case k < 19:
					n = segSize
				}
				if f := dev.files[name]; f != nil && len(f.segs) > 0 {
					if last := f.segs[len(f.segs)-1]; n > 0 && n > cap(last)-len(last) && len(last) < cap(last) {
						crossings++ // would have straddled a boundary
					}
				}
				p := make([]byte, n)
				rng.Read(p)
				cut := rng.Intn(n + 1)
				got := dev.Append(name, p[:cut], nil, p[cut:])
				if !bytes.Equal(got, p) {
					t.Fatalf("seed %d step %d: Append of %d bytes landed %d different bytes", seed, step, n, len(got))
				}
				f := ref.get(name)
				f.data = append(f.data, p...)
			case op < 72:
				dev.Sync(name, nil)
				sim.RunFor(time.Millisecond)
				f := ref.get(name)
				f.synced = len(f.data)
			case op < 75:
				// A flush in flight when the power goes completes nothing.
				dev.Sync(name, nil)
				ref.get(name)
				dev.Crash(sim.Rand())
				ref.crash(false, nil)
			case op < 83:
				torn := rng.Intn(2) == 0
				if torn {
					dev.ArmTornWrite()
				}
				crashSeed := rng.Int63()
				dev.Crash(rand.New(rand.NewSource(crashSeed)))
				ref.crash(torn, rand.New(rand.NewSource(crashSeed)))
			case op < 90:
				f := ref.get(name)
				n := rng.Intn(f.synced + 1)
				dev.trim(name, n)
				f.data, f.synced = f.data[:n], n
			case op < 93:
				dev.Truncate(name)
				f := ref.get(name)
				f.data, f.synced = nil, 0
			case op < 98:
				corruptSeed := rng.Int63()
				got := dev.CorruptDurable(rand.New(rand.NewSource(corruptSeed)))
				if want := ref.corrupt(rand.New(rand.NewSource(corruptSeed))); got != want {
					t.Fatalf("seed %d step %d: CorruptDurable flipped %v, reference %v", seed, step, got, want)
				}
			default:
				dev.Wipe()
				clear(ref)
			}
			for _, name := range names {
				total, durable := dev.Size(name)
				f := ref[name]
				if f == nil {
					f = &refFile{}
				}
				if total != len(f.data) || durable != f.synced {
					t.Fatalf("seed %d step %d: %s is %d bytes, %d durable; reference %d, %d", seed, step, name, total, durable, len(f.data), f.synced)
				}
				if got, want := dev.Durable(name), f.data[:f.synced]; !bytes.Equal(got, want) {
					t.Fatalf("seed %d step %d: %s's durable bytes differ from the reference's", seed, step, name)
				}
			}
			if got, want := dev.Digest(), ref.digest(); got != want {
				t.Fatalf("seed %d step %d: digest %x, reference %x", seed, step, got, want)
			}
			for _, f := range dev.files {
				maxSegs = max(maxSegs, len(f.segs))
			}
		}
		if seed == 1 && (boundaries == 0 || spanning == 0 || crossings == 0 || maxSegs < 4) {
			t.Fatalf("seed 1 filled %d segments exactly, wrote %d oversize and %d segment-crossing appends, and held at most %d segments: the program exercises too little", boundaries, spanning, crossings, maxSegs)
		}
	}
}

func TestWipeDestroysEverything(t *testing.T) {
	sim := newSim(1)
	dev := NewDevice(sim, 0, DefaultParams())
	NewLogStore(dev, "wal").AppendEntry(0, 1, []byte("x"), nil)
	sim.RunFor(time.Millisecond)
	dev.Wipe()
	if rec := RecoverLog(dev, "wal"); len(collect(&rec)) != 0 || rec.Bytes != 0 {
		t.Fatalf("wipe left %d entries / %d bytes", len(collect(&rec)), rec.Bytes)
	}
}

func TestDeterministicTornCrash(t *testing.T) {
	run := func() (int, uint64) {
		sim := newSim(42)
		dev := NewDevice(sim, 0, DefaultParams())
		ls := NewLogStore(dev, "wal")
		for i := uint64(0); i < 4; i++ {
			ls.AppendEntry(i, 1, bytes.Repeat([]byte{byte(i)}, 48), nil)
		}
		sim.RunFor(time.Millisecond)
		for i := uint64(4); i < 8; i++ {
			ls.AppendEntry(i, 1, bytes.Repeat([]byte{byte(i)}, 48), nil)
		}
		dev.ArmTornWrite()
		dev.Crash(sim.Rand())
		rec := RecoverLog(dev, "wal")
		return len(collect(&rec)), uint64(dev.Digest())
	}
	n1, d1 := run()
	n2, d2 := run()
	if n1 != n2 || d1 != d2 {
		t.Fatalf("same seed diverged: (%d,%016x) vs (%d,%016x)", n1, d1, n2, d2)
	}
}

func TestReadCostScalesWithBytes(t *testing.T) {
	sim := newSim(1)
	p := DefaultParams()
	p.ReadLatency = 5 * time.Microsecond
	p.ReadBytePer = time.Nanosecond
	dev := NewDevice(sim, 0, p)
	if got, want := dev.ReadCost(1000), 6*time.Microsecond; got != want {
		t.Fatalf("ReadCost(1000) = %v, want %v", got, want)
	}
}

func ExampleRecoverLog() {
	sim := simnet.New(1)
	dev := NewDevice(sim, 0, DefaultParams())
	ls := NewLogStore(dev, "wal")
	ls.AppendEntry(0, 7, []byte("payload"), nil)
	ls.SetMeta(1, 99, nil)
	sim.RunFor(time.Millisecond)
	dev.Crash(sim.Rand())
	rec := RecoverLog(dev, "wal")
	for e := range rec.All() {
		fmt.Printf("%d %d %s\n", e.Seq, e.Term, e.Data)
	}
	fmt.Println(rec.Meta[1], rec.Tail)
	// Output:
	// 0 7 payload
	// 99 clean
}
