package disk

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"acuerdo/internal/chunks"
	"acuerdo/internal/digest"
	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

// refLogStore is LogStore's flush pump as it was before the record path
// stopped allocating: each write builds its record in a fresh buffer and
// queues its callback, nil or not; a flush hands its batch to a per-flush
// closure; a durable frontier is reported by a closure in done's place. It is
// the reference TestLogStoreDifferential holds LogStore to.
type refLogStore struct {
	dev     *Device
	name    string
	report  func(n uint64)
	busy    bool
	pending []func()
}

func (ls *refLogStore) write(kind byte, rec []byte, done func()) {
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(rec)-recHeader))
	rec[8] = kind
	binary.LittleEndian.PutUint32(rec[0:], crc32.ChecksumIEEE(rec[8:]))
	ls.dev.Append(ls.name, rec)
	ls.pending = append(ls.pending, done)
	ls.kick()
}

func (ls *refLogStore) kick() {
	if ls.busy || len(ls.pending) == 0 {
		return
	}
	ls.busy = true
	batch := ls.pending
	ls.pending = nil
	ls.dev.Sync(ls.name, func() {
		ls.busy = false
		for _, cb := range batch {
			if cb != nil {
				cb()
			}
		}
		ls.kick()
	})
}

func (ls *refLogStore) AppendEntry(seq, term uint64, data []byte, done func()) {
	rec := make([]byte, recHeader+16+len(data))
	binary.LittleEndian.PutUint64(rec[recHeader:], seq)
	binary.LittleEndian.PutUint64(rec[recHeader+8:], term)
	copy(rec[recHeader+16:], data)
	ls.write(kindEntry, rec, done)
}

func (ls *refLogStore) Truncate(keepBelow uint64, done func()) {
	var rec [recHeader + 8]byte
	binary.LittleEndian.PutUint64(rec[recHeader:], keepBelow)
	ls.write(kindTrunc, rec[:], done)
}

func (ls *refLogStore) SetMeta(key uint8, val uint64, done func()) {
	var rec [recHeader + 9]byte
	rec[recHeader] = key
	binary.LittleEndian.PutUint64(rec[recHeader+1:], val)
	ls.write(kindMeta, rec[:], done)
}

func (ls *refLogStore) Flush(done func()) { ls.SetMeta(flushKey, 0, done) }

func (ls *refLogStore) FlushFrontier(n uint64) { ls.Flush(func() { ls.report(n) }) }

// walAPI is what the differential drives on both stores.
type walAPI interface {
	AppendEntry(seq, term uint64, data []byte, done func())
	Truncate(keepBelow uint64, done func())
	SetMeta(key uint8, val uint64, done func())
	Flush(done func())
	FlushFrontier(n uint64)
}

// opener opens (or, after a crash, reopens) the named log with report as its
// frontier hook.
type opener func(dev *Device, name string, reopen bool, report func(n uint64)) walAPI

func openLogStore(dev *Device, name string, reopen bool, report func(n uint64)) walAPI {
	ls := NewLogStore(dev, name)
	if reopen {
		ls, _ = Reopen(dev, name)
	}
	ls.OnFrontier = report
	return ls
}

func openRef(dev *Device, name string, reopen bool, report func(n uint64)) walAPI {
	if reopen {
		if rec := RecoverLog(dev, name); rec.Dropped > 0 {
			dev.trim(name, rec.Bytes)
		}
	}
	return &refLogStore{dev: dev, name: name, report: report}
}

// release is one callback or frontier report: which, and when.
type release struct {
	id int
	at simnet.Time
}

type walRun struct {
	releases []release
	files    [2][]byte
	stats    Stats
	fp       digest.Sum
}

// driveWAL runs one seeded program over two logs sharing a device: entries,
// truncations, meta cells, flushes and frontier flushes, with and without
// callbacks, time advancing by less than a flush and more, fsync stalls, and
// power cuts (some torn) followed by a reopen. Every third callback writes
// again from inside its batch, itself with a callback.
func driveWAL(seed int64, open opener) walRun {
	var out walRun
	sim := newSim(seed)
	tr := trace.New(trace.FingerprintRing)
	sim.SetTracer(tr)
	dev := NewDevice(sim, 0, DefaultParams())
	rng := rand.New(rand.NewSource(seed))
	names := [2]string{"a", "b"}
	var logs [2]walAPI
	ids := 0
	report := func(id int) func(n uint64) {
		return func(n uint64) { out.releases = append(out.releases, release{-int(n) - 1000*id, sim.Now()}) }
	}
	var done func(l int) func()
	done = func(l int) func() {
		ids++
		id := ids
		return func() {
			out.releases = append(out.releases, release{id, sim.Now()})
			if id%3 == 0 && id < 2000 {
				logs[l].AppendEntry(uint64(id), 9, []byte{byte(id)}, done(l))
			}
		}
	}
	maybe := func(l int) func() {
		if rng.Intn(3) == 0 {
			return nil
		}
		return done(l)
	}
	for l := range logs {
		logs[l] = open(dev, names[l], false, report(l))
	}
	seq, frontier := uint64(0), uint64(0)
	for step := 0; step < 400; step++ {
		l := rng.Intn(2)
		switch op := rng.Intn(100); {
		case op < 35:
			seq++
			logs[l].AppendEntry(seq, uint64(step), bytes.Repeat([]byte{byte(seq)}, rng.Intn(48)), maybe(l))
		case op < 45:
			logs[l].SetMeta(uint8(1+rng.Intn(3)), uint64(step), maybe(l))
		case op < 50:
			logs[l].Truncate(seq/2, maybe(l))
		case op < 58:
			logs[l].Flush(maybe(l))
		case op < 66:
			frontier++
			logs[l].FlushFrontier(frontier)
		case op < 95:
			sim.RunFor(time.Duration(rng.Intn(25000)) * time.Nanosecond)
		case op < 97:
			dev.StallFsync(time.Duration(rng.Intn(40)) * time.Microsecond)
		default:
			if rng.Intn(2) == 0 {
				dev.ArmTornWrite()
			}
			dev.Crash(sim.Rand())
			for l := range logs {
				logs[l] = open(dev, names[l], true, report(l))
			}
		}
	}
	sim.RunFor(10 * time.Millisecond)
	for l, name := range names {
		out.files[l] = dev.Durable(name)
	}
	out.stats = dev.Stats()
	out.fp = tr.Fingerprint()
	return out
}

// TestLogStoreDifferential holds the allocation-free pump to the one before
// it: on every seed the same callbacks and frontier reports are released in
// the same order at the same instants, the device ends with the same durable
// bytes and counters, and the traced event stream is the same.
func TestLogStoreDifferential(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 50
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		got, want := driveWAL(seed, openLogStore), driveWAL(seed, openRef)
		if len(got.releases) != len(want.releases) {
			t.Fatalf("seed %d: %d releases, reference %d", seed, len(got.releases), len(want.releases))
		}
		for i := range got.releases {
			if got.releases[i] != want.releases[i] {
				t.Fatalf("seed %d: release %d is %+v, reference %+v", seed, i, got.releases[i], want.releases[i])
			}
		}
		for l := range got.files {
			if !bytes.Equal(got.files[l], want.files[l]) {
				t.Fatalf("seed %d: log %d holds %d durable bytes, reference %d, or they differ", seed, l, len(got.files[l]), len(want.files[l]))
			}
		}
		if got.stats != want.stats || got.fp != want.fp {
			t.Fatalf("seed %d: stats %+v fingerprint %x, reference %+v %x", seed, got.stats, got.fp, want.stats, want.fp)
		}
		if seed == 1 && (len(want.releases) < 100 || want.stats.Crashes == 0) {
			t.Fatalf("seed 1 released %d callbacks over %d crashes: the program exercises too little", len(want.releases), want.stats.Crashes)
		}
	}
}

// TestStaleFsyncCompletesNothing cuts power with a flush in flight, reopens
// the log and flushes again before the dead flush's event is due. That event
// still fires — nothing is cancelled — and must complete nothing: the new
// flush lands at its own time, once.
func TestStaleFsyncCompletesNothing(t *testing.T) {
	sim := newSim(1)
	p := DefaultParams()
	p.FsyncLatency = 10 * time.Microsecond
	p.FsyncBytePer = 0
	dev := NewDevice(sim, 0, p)
	ls := NewLogStore(dev, "wal")
	var released []simnet.Time
	lost := false
	ls.AppendEntry(0, 1, []byte("lost"), func() { lost = true })
	sim.RunFor(5 * time.Microsecond) // the flush is due at 10 us
	dev.Crash(sim.Rand())
	ls, _ = Reopen(dev, "wal")
	start := sim.Now()
	ls.AppendEntry(0, 2, []byte("kept"), func() { released = append(released, sim.Now()) })
	sim.RunFor(time.Millisecond)
	if lost {
		t.Fatal("a callback of the flush the crash interrupted ran")
	}
	if len(released) != 1 || released[0].Sub(start) != p.FsyncLatency {
		t.Fatalf("post-restart flush released at %v (issued at %v), want once, %v later", released, start, p.FsyncLatency)
	}
	if st := dev.Stats(); st.Fsyncs != 1 {
		t.Fatalf("%d fsyncs completed, want only the post-restart one", st.Fsyncs)
	}
	rec := RecoverLog(dev, "wal")
	if got := collect(&rec); len(got) != 1 || string(got[0].Data) != "kept" {
		t.Fatalf("recovered %+v, want only the post-restart entry", got)
	}
}

// TestSyncQueueStaysBounded: a store whose every flush completion writes
// again queues its next flush before the device sees its queue drain, as
// every protocol under load does, so the device queue never rewinds by
// draining; it must still not grow with the number of flushes.
func TestSyncQueueStaysBounded(t *testing.T) {
	sim := newSim(1)
	dev := NewDevice(sim, 0, DefaultParams())
	ls := NewLogStore(dev, "wal")
	other := NewLogStore(dev, "other")
	flushes := 0
	var again func()
	again = func() {
		if flushes++; flushes < 10000 {
			ls.SetMeta(1, uint64(flushes), again)
			other.SetMeta(1, uint64(flushes), nil)
		}
	}
	again()
	sim.RunFor(time.Second)
	if flushes != 10000 {
		t.Fatalf("%d flushes completed, want 10000", flushes)
	}
	if c := cap(dev.syncQueue); c > 8 {
		t.Fatalf("the device queue grew to %d slots over %d back-to-back flushes", c, flushes)
	}
}

// TestRecoverLogCarvesCappedViews: recovered entries are read-only views of
// the device's own bytes, copied from nowhere, each capped at its own length
// so an append to one reallocates instead of overwriting the record after
// it. A later write leaves them alone; a bit flip in the bytes they view
// reaches them, which is why a caller that keeps them copies them first.
func TestRecoverLogCarvesCappedViews(t *testing.T) {
	sim := newSim(1)
	dev := NewDevice(sim, 0, DefaultParams())
	ls := NewLogStore(dev, "wal")
	want := []string{"first", "", "third"}
	for i, w := range want {
		ls.AppendEntry(uint64(i), 1, []byte(w), nil)
	}
	sim.RunFor(time.Millisecond)
	rec := RecoverLog(dev, "wal")
	views := collect(&rec)
	seg := dev.files["wal"].segs[0]
	if len(views) != len(want) {
		t.Fatalf("recovered %d entries, want %d", len(views), len(want))
	}
	for i, e := range views {
		if string(e.Data) != want[i] || cap(e.Data) != len(e.Data) {
			t.Fatalf("entry %d: %q len %d cap %d, want a capped %q", i, e.Data, len(e.Data), cap(e.Data), want[i])
		}
	}
	_ = append(views[0].Data, "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX"...)
	_ = append(views[1].Data, "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX"...)
	if string(views[2].Data) != "third" {
		t.Fatalf("an append to an earlier entry clobbered the last: %q", views[2].Data)
	}
	if d := views[2].Data; &d[0] != &seg[len(seg)-len(want[2])] {
		t.Fatal("the last recovered entry is not a view of the device's segment")
	}
	ls.AppendEntry(3, 1, []byte("fourth"), nil)
	sim.RunFor(time.Millisecond)
	if string(views[2].Data) != "third" {
		t.Fatalf("a later write reached the last recovered entry: %q", views[2].Data)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; string(views[2].Data) == "third"; i++ {
		if i == 1000 || !dev.CorruptDurable(rng) {
			t.Fatal("no bit flip reached the last recovered entry")
		}
	}
}

// TestLogStoreAllocFree pins the record path at zero allocations: entries
// with callbacks, a meta cell, a frontier flush and the group commit that
// lands them, on a recycled queue and fsync record. The file grows as it
// goes, one segment per 64 KiB and never by a copy, so its growth averages
// to nothing per cycle too.
func TestLogStoreAllocFree(t *testing.T) {
	sim := newSim(1)
	dev := NewDevice(sim, 0, DefaultParams())
	ls := NewLogStore(dev, "wal")
	reported := uint64(0)
	ls.OnFrontier = func(n uint64) { reported = n }
	data := make([]byte, 100)
	acked := 0
	done := func() { acked++ }
	seq := uint64(0)
	cycle := func() {
		for i := 0; i < 8; i++ {
			seq++
			ls.AppendEntry(seq, 1, data, done)
		}
		ls.SetMeta(1, seq, nil)
		ls.FlushFrontier(seq)
		sim.RunFor(100 * time.Microsecond)
	}
	cycle()
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("a group-commit cycle allocates %.1f objects, want 0", avg)
	}
	if reported != seq || acked != int(seq) {
		t.Fatalf("frontier %d and %d callbacks after %d entries", reported, acked, seq)
	}
	// Bytes, not objects, tell a file that copies itself as it grows from
	// one that does not: a slice grown by append allocates about twice what
	// it ends up holding, a segmented file at most one segment more.
	from, _ := dev.Size("wal")
	before, after := memSpan(func() {
		for i := 0; i < 500; i++ {
			cycle()
		}
	})
	to, _ := dev.Size("wal")
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(to-from+segSize+4096); got > bound {
		t.Fatalf("writing %d bytes allocated %d, want at most %d", to-from, got, bound)
	}
}

// TestRecoverLogAllocFree pins recovery's allocations at a constant: the
// meta map and the truncate list, and nothing per record. Recovering a log a
// hundred times longer, and walking all of it, allocates the same objects and
// the same bytes.
func TestRecoverLogAllocFree(t *testing.T) {
	measure := func(n int) (objects float64, bytes uint64) {
		sim := newSim(1)
		dev := NewDevice(sim, 0, DefaultParams())
		ls := NewLogStore(dev, "wal")
		data := make([]byte, 8)
		for i := 0; i < n; i++ {
			ls.AppendEntry(uint64(i), 1, data, nil)
			if i%1000 == 999 {
				ls.SetMeta(1, uint64(i), nil)
			}
		}
		ls.Truncate(uint64(n-n/4), nil)
		sim.RunFor(time.Second)
		replay := func() {
			rec := RecoverLog(dev, "wal")
			got := 0
			for range rec.All() {
				got++
			}
			if got != n-n/4 {
				t.Fatalf("recovered %d entries of %d", got, n-n/4)
			}
		}
		objects = testing.AllocsPerRun(3, replay)
		before, after := memSpan(replay)
		return objects, after.TotalAlloc - before.TotalAlloc
	}
	smallObj, smallBytes := measure(1000)
	largeObj, largeBytes := measure(100000)
	if smallObj != largeObj || largeObj > 4 {
		t.Fatalf("recovering 1 000 entries allocates %.0f objects and 100 000 allocate %.0f, want the same few", smallObj, largeObj)
	}
	if largeBytes > smallBytes+64 || smallBytes > largeBytes+64 || largeBytes > 1024 {
		t.Fatalf("recovering 1 000 entries allocates %d bytes and 100 000 allocate %d, want the same few hundred", smallBytes, largeBytes)
	}
}

// refRecovered is what refRecoverLog reconstructs: Recovered's fields and
// the entry list RecoverLog once built, each truncate record applied to the
// entries before it as the walk met it.
type refRecovered struct {
	Entries        []RecEntry
	Meta           map[uint8]uint64
	Bytes, Dropped int
	Tail           TailState
}

// refRecoverLog is RecoverLog as it was before it read the device in place
// and stopped listing entries: one copy of the whole durable prefix, scanned
// as a flat buffer into a list. It is the reference
// TestRecoverLogDifferential holds RecoverLog and All to.
func refRecoverLog(dev *Device, name string) refRecovered {
	rec := refRecovered{Meta: make(map[uint8]uint64)}
	buf := dev.Durable(name)
	off := 0
	for off+recHeader <= len(buf) {
		crc := binary.LittleEndian.Uint32(buf[off:])
		n := int(binary.LittleEndian.Uint32(buf[off+4:]))
		if off+recHeader+n > len(buf) {
			rec.Tail = TailTorn
			break
		}
		body := buf[off+8 : off+recHeader+n]
		if crc32.ChecksumIEEE(body) != crc {
			rec.Tail = TailCorrupt
			break
		}
		kind, payload := body[0], body[1:]
		switch kind {
		case kindEntry:
			if len(payload) >= 16 {
				rec.Entries = append(rec.Entries, RecEntry{
					Seq:  binary.LittleEndian.Uint64(payload[0:]),
					Term: binary.LittleEndian.Uint64(payload[8:]),
					Data: payload[16:len(payload):len(payload)],
				})
			}
		case kindTrunc:
			if len(payload) >= 8 {
				keepBelow := binary.LittleEndian.Uint64(payload)
				kept := rec.Entries[:0]
				for _, e := range rec.Entries {
					if e.Seq < keepBelow {
						kept = append(kept, e)
					}
				}
				rec.Entries = kept
			}
		case kindMeta:
			if len(payload) >= 9 && payload[0] != flushKey {
				rec.Meta[payload[0]] = binary.LittleEndian.Uint64(payload[1:])
			}
		}
		off += recHeader + n
	}
	if rec.Tail == TailClean && off < len(buf) {
		rec.Tail = TailTorn
	}
	rec.Bytes = off
	rec.Dropped = len(buf) - off
	return rec
}

// refPositional is the positional rule raft and zab recovered by before
// they consumed the stream: out[i] is the last surviving record for index i,
// a gap stays zero, and the log is as long as the largest Seq.
func refPositional(entries []RecEntry) []RecEntry {
	n := uint64(0)
	for _, e := range entries {
		n = max(n, e.Seq+1)
	}
	out := make([]RecEntry, n)
	for _, e := range entries {
		out[e.Seq] = e
	}
	return out
}

// collect lists what All yields.
func collect(rec *Recovered) []RecEntry {
	var out []RecEntry
	for e := range rec.All() {
		out = append(out, e)
	}
	return out
}

// positional lays the stream out by Seq through chunks.List.Set, as raft
// and zab replay it into their logs.
func positional(rec *Recovered) *chunks.List[RecEntry] {
	var l chunks.List[RecEntry]
	for e := range rec.All() {
		l.Set(int(e.Seq), e)
	}
	return &l
}

// seededWAL writes a seeded history to one log — entries from empty to
// larger than a segment, meta cells, truncations — makes all of it durable,
// and returns the device. The same seed builds the same file.
func seededWAL(seed int64) *Device {
	sim := newSim(seed)
	rng := rand.New(rand.NewSource(seed))
	dev := NewDevice(sim, 0, DefaultParams())
	ls := NewLogStore(dev, "wal")
	data := make([]byte, segSize+segSize/2)
	rng.Read(data)
	seq := uint64(0)
	for i := 0; i < 300; i++ {
		switch op := rng.Intn(100); {
		case op < 5:
			ls.Truncate(seq-uint64(rng.Intn(int(seq)+1)), nil)
		case op < 15:
			ls.SetMeta(uint8(rng.Intn(3)), rng.Uint64(), nil)
		case op < 17:
			ls.AppendEntry(seq, 1, data[:segSize+rng.Intn(segSize/2)], nil)
			seq++
		default:
			n := rng.Intn(3000)
			if rng.Intn(4) == 0 {
				n = rng.Intn(20)
			}
			ls.AppendEntry(seq, uint64(rng.Intn(3)), data[i:i+n], nil)
			seq++
		}
	}
	sim.RunFor(time.Second)
	return dev
}

// TestRecoverLogDifferential holds the in-place replay to the copying one on
// seeded device histories: clean, with the durable frontier ending mid-
// segment, cut at and near every segment edge (torn tails that end in a
// header, in a body, or exactly on an edge), and with a bit flipped in a
// segment that is not the last. Meta, Tail, Bytes and Dropped must be
// identical, All must yield exactly the reference's entry list, and that
// stream laid out by position (chunks.List.Set, as raft and zab replay it)
// must equal the reference's list under the old positional rule. Histories
// dense in truncate records — rewrites of the slots a truncate dropped,
// keepBelow rising and falling, and truncates past a torn tail or a bit
// flip, which must not count — are held to the same.
func TestRecoverLogDifferential(t *testing.T) {
	check := func(what string, dev *Device) {
		t.Helper()
		got, want := RecoverLog(dev, "wal"), refRecoverLog(dev, "wal")
		entries := collect(&got)
		if got.Tail != want.Tail || got.Bytes != want.Bytes || got.Dropped != want.Dropped || len(entries) != len(want.Entries) {
			t.Fatalf("%s: tail %v bytes %d dropped %d entries %d, reference %v %d %d %d", what,
				got.Tail, got.Bytes, got.Dropped, len(entries), want.Tail, want.Bytes, want.Dropped, len(want.Entries))
		}
		for i, e := range entries {
			w := want.Entries[i]
			if e.Seq != w.Seq || e.Term != w.Term || !bytes.Equal(e.Data, w.Data) || cap(e.Data) != len(e.Data) {
				t.Fatalf("%s: entry %d is (%d, %d, %d bytes, cap %d), reference (%d, %d, %d bytes)", what, i,
					e.Seq, e.Term, len(e.Data), cap(e.Data), w.Seq, w.Term, len(w.Data))
			}
		}
		pos, wantPos := positional(&got), refPositional(want.Entries)
		if pos.Len() != len(wantPos) {
			t.Fatalf("%s: the positional log holds %d entries, reference %d", what, pos.Len(), len(wantPos))
		}
		for i, w := range wantPos {
			if e := pos.At(i); e.Seq != w.Seq || e.Term != w.Term || !bytes.Equal(e.Data, w.Data) {
				t.Fatalf("%s: positional entry %d is (%d, %d, %d bytes), reference (%d, %d, %d bytes)", what, i,
					e.Seq, e.Term, len(e.Data), w.Seq, w.Term, len(w.Data))
			}
		}
		if len(got.Meta) != len(want.Meta) {
			t.Fatalf("%s: meta %v, reference %v", what, got.Meta, want.Meta)
		}
		for k, v := range want.Meta {
			if got.Meta[k] != v {
				t.Fatalf("%s: meta %v, reference %v", what, got.Meta, want.Meta)
			}
		}
	}
	tails := map[TailState]int{}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dev := seededWAL(seed)
		f := dev.files["wal"]
		if len(f.segs) < 3 {
			t.Fatalf("seed %d: the history fills %d segments, want at least 3", seed, len(f.segs))
		}
		check("clean", dev)
		// The durable frontier mid-segment, the rest a volatile tail.
		for i := 0; i < 20; i++ {
			dev := seededWAL(seed)
			dev.files["wal"].synced = rng.Intn(f.size + 1)
			check("synced mid-segment", dev)
			tails[RecoverLog(dev, "wal").Tail]++
		}
		// A crash that keeps bytes up to at and near each segment edge.
		edge := 0
		for _, sg := range f.segs[:len(f.segs)-1] {
			edge += len(sg)
			for _, d := range []int{-recHeader - 1, -recHeader, -1, 0, 1, recHeader - 1, recHeader, recHeader + 17} {
				dev := seededWAL(seed)
				dev.files["wal"].cut(edge + d)
				check("cut near a segment edge", dev)
				tails[RecoverLog(dev, "wal").Tail]++
			}
		}
		// One bit flipped anywhere in a segment that is not the last, and one
		// in the length of such a segment's last record, which then claims
		// bytes across the edge.
		for i := 0; i < 20; i++ {
			dev := seededWAL(seed)
			segs := dev.files["wal"].segs
			sg := segs[rng.Intn(len(segs)-1)]
			sg[rng.Intn(len(sg))] ^= 1 << rng.Intn(8)
			check("a corrupt record in a non-last segment", dev)
			tails[RecoverLog(dev, "wal").Tail]++
		}
		for k := range f.segs[:len(f.segs)-1] {
			dev := seededWAL(seed)
			sg := dev.files["wal"].segs[k]
			last := 0
			for off := 0; off < len(sg); off += recHeader + int(binary.LittleEndian.Uint32(sg[off+4:])) {
				last = off
			}
			sg[last+4+rng.Intn(2)] ^= 1 << rng.Intn(8)
			check("a record length crossing a segment edge", dev)
			tails[RecoverLog(dev, "wal").Tail]++
		}
	}
	if tails[TailClean] == 0 || tails[TailTorn] == 0 || tails[TailCorrupt] == 0 {
		t.Fatalf("the histories end %v: want every tail state", tails)
	}
	var rewrites, rises, falls, hidden int
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dev := truncWAL(seed)
		check("truncations, clean", dev)
		spans := recordSpans(dev.Durable("wal"))
		prev := -1 // the keepBelow of the last truncate
		for k, sp := range spans {
			if sp.kind == kindEntry && prev >= 0 && binary.LittleEndian.Uint64(sp.payload) == uint64(prev) {
				rewrites++
			}
			if sp.kind != kindTrunc {
				continue
			}
			keep := int(binary.LittleEndian.Uint64(sp.payload))
			if prev >= 0 && keep > prev {
				rises++
			} else if prev >= 0 && keep < prev {
				falls++
			}
			prev = keep
			if k == 0 {
				continue
			}
			// A record before this truncate is torn, or has a bit flipped:
			// the verified walk stops there, and the truncate must not count.
			hidden++
			at := spans[rng.Intn(k)]
			dev := truncWAL(seed)
			dev.files["wal"].synced = at.off + 1 + rng.Intn(at.n-1)
			check("a torn tail before a truncate", dev)
			dev = truncWAL(seed)
			flipAt(dev.files["wal"], at.off+rng.Intn(at.n), 1<<rng.Intn(8))
			check("a bit flip before a truncate", dev)
		}
		for i := 0; i < 20; i++ {
			dev := truncWAL(seed)
			dev.files["wal"].synced = rng.Intn(dev.files["wal"].size + 1)
			check("truncations, synced anywhere", dev)
		}
	}
	if rewrites == 0 || rises == 0 || falls == 0 || hidden == 0 {
		t.Fatalf("the truncation histories rewrite %d slots, raise keepBelow %d times and lower it %d, and hide %d truncates: want each",
			rewrites, rises, falls, hidden)
	}
}

// truncWAL writes a seeded history dense in truncate records: keepBelow
// anywhere from 0 to past the log's end, so it rises and falls from one
// truncate to the next, and half the time the dropped slots rewritten, as
// raft and zab rewrite them. It makes all of it durable and returns the
// device. The same seed builds the same file.
func truncWAL(seed int64) *Device {
	sim := newSim(seed)
	rng := rand.New(rand.NewSource(seed))
	dev := NewDevice(sim, 0, DefaultParams())
	ls := NewLogStore(dev, "wal")
	data := make([]byte, 4000)
	rng.Read(data)
	seq := uint64(0)
	for i := 0; i < 400; i++ {
		switch op := rng.Intn(100); {
		case op < 15:
			keep := uint64(rng.Intn(int(seq) + 8))
			ls.Truncate(keep, nil)
			if keep < seq && rng.Intn(2) == 0 {
				seq = keep
			}
		case op < 20:
			ls.SetMeta(uint8(rng.Intn(3)), rng.Uint64(), nil)
		default:
			n := rng.Intn(2000)
			ls.AppendEntry(seq, uint64(i), data[n:n+rng.Intn(2000)], nil)
			seq++
		}
	}
	sim.RunFor(time.Second)
	return dev
}

// span is one record of a flat durable prefix: its offset and length, kind
// and payload.
type span struct {
	off, n  int
	kind    byte
	payload []byte
}

// recordSpans splits a flat durable prefix into its records, up to the
// first one that runs past its end.
func recordSpans(buf []byte) []span {
	var out []span
	for off := 0; off+recHeader <= len(buf); {
		n := recHeader + int(binary.LittleEndian.Uint32(buf[off+4:]))
		if off+n > len(buf) {
			break
		}
		out = append(out, span{off, n, buf[off+8], buf[off+recHeader : off+n]})
		off += n
	}
	return out
}

// flipAt flips bit at logical offset off of f.
func flipAt(f *file, off int, bit byte) {
	for _, s := range f.segs {
		if off < len(s) {
			s[off] ^= bit
			return
		}
		off -= len(s)
	}
}

// memSpan reads the heap counters around f as testing.AllocsPerRun does, on
// one P, and after a collection, so no background sweep or other goroutine
// lands a stray allocation inside the span.
func memSpan(f func()) (before, after runtime.MemStats) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return before, after
}
