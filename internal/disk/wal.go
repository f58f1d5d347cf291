package disk

import (
	"encoding/binary"
	"hash/crc32"
	"iter"

	"acuerdo/internal/simnet"
)

// WAL record wire format, little-endian:
//
//	[crc u32][len u32][kind u8][payload len bytes]
//
// crc is CRC-32 (IEEE) over kind+payload. Replay scans the durable prefix
// record by record and stops at the first record whose header runs past the
// durable bytes (a torn write) or whose checksum fails (a torn write inside
// the payload, or bit-flip media corruption) — everything before that point
// is the recovered durable prefix, everything after is discarded.
const recHeader = 9

// Record kinds. An entry's payload is [seq u64][term u64][data], a
// truncate's [keepBelow u64], a meta cell's [key u8][val u64].
const (
	kindEntry byte = 1
	kindTrunc byte = 2
	kindMeta  byte = 3
)

// flushKey is the meta key Flush writes and replay ignores.
const flushKey = 255

// RecEntry is one recovered log entry: a (Seq, Term) identifier pair whose
// meaning belongs to the caller (raft: index/term; zab: position/zxid;
// paxos: instance/ballot; acuerdo: position/0) and the payload. Data as
// Recovered.All yields it is a read-only, capped view of the device's own
// bytes: valid until the device's next write, and an append to it
// reallocates rather than clobbering the next entry's. A caller that keeps
// the bytes past that copies them into storage of its own.
type RecEntry struct {
	Seq, Term uint64
	Data      []byte
}

// TailState classifies how a WAL replay ended.
type TailState int

// Replay tail states.
const (
	// TailClean: every durable byte parsed as a valid record.
	TailClean TailState = iota
	// TailTorn: the last record ran past the durable bytes (torn write).
	TailTorn
	// TailCorrupt: a checksum failed mid-prefix (bit-flip corruption); the
	// valid prefix before it was recovered, the rest discarded.
	TailCorrupt
)

// String renders the tail state for logs and test failures.
func (t TailState) String() string {
	switch t {
	case TailClean:
		return "clean"
	case TailTorn:
		return "torn"
	case TailCorrupt:
		return "corrupt"
	}
	return "unknown"
}

// Recovered is the durable state a WAL replay reconstructed. Its entries are
// not held: All walks them off the device.
type Recovered struct {
	// Meta holds the last durable value per meta key.
	Meta map[uint8]uint64
	// Bytes is the length of the valid record prefix consumed.
	Bytes int
	// Dropped is the count of durable bytes after the valid prefix that
	// were discarded (torn or corrupt tail).
	Dropped int
	// Tail reports how the scan ended.
	Tail TailState
	// DataBytes sums the payloads of the valid prefix's entry records, those
	// a later truncate drops included: room for one copy of all All yields.
	DataBytes int

	f *file
	// below holds, per truncate record of the valid prefix in record order,
	// the least keepBelow of it and of every truncate after it.
	below []uint64
}

// All yields the positional log the valid prefix describes, in record order:
// every entry record but those a later truncate(keepBelow) drops, which are
// the ones with Seq >= keepBelow. A later record for a Seq supersedes an
// earlier one. All walks the valid prefix again, in place, so each entry's
// Data is a view of the device (see RecEntry) and the walk must run before
// the device's next write.
func (r *Recovered) All() iter.Seq[RecEntry] {
	return func(yield func(RecEntry) bool) {
		if r.f == nil {
			return
		}
		more, t := true, 0
		r.f.records(r.Bytes, false, func(kind byte, payload []byte) {
			switch {
			case !more:
			case kind == kindTrunc && len(payload) >= 8:
				t++
			case kind == kindEntry && len(payload) >= 16:
				e := RecEntry{
					Seq:  binary.LittleEndian.Uint64(payload[0:]),
					Term: binary.LittleEndian.Uint64(payload[8:]),
					Data: payload[16:len(payload):len(payload)],
				}
				if t == len(r.below) || e.Seq < r.below[t] {
					more = yield(e)
				}
			}
		})
	}
}

// LogStore is the group-committed write-ahead log the protocol packages
// persist through, on one device file: ordered entries carrying a (Seq,
// Term) pair, positional truncation, and small-integer metadata cells
// (current term, voted-for, commit frontier, epoch...). A write lands its
// record on the device in place and queues the caller behind the next flush;
// while a flush is in flight further writes pile onto one batch that a
// single follow-up flush covers — fsync cost amortizes across the batch
// exactly like etcd/ZooKeeper group commit. done runs once a flush has made
// the record durable, or never, if the device loses power first. A nil done
// means fire-and-forget: the record still rides the next group commit. The
// record path allocates nothing once the queues have grown, except the
// file's own growth: one 64 KiB segment per 64 KiB written, never copied
// (Device.Append lands each record inside one segment).
type LogStore struct {
	dev  *Device
	name string

	// OnFrontier reports a FlushFrontier's n once its flush has landed. The
	// owner sets it on every store it opens or reopens; nil reports nothing.
	OnFrontier func(n uint64)

	busy  bool
	dirty bool // a record is buffered that no flush in flight covers
	// queued waits on the next flush and batch on the one in flight; spare
	// is a released batch, recycled as the next queue. onSynced takes the
	// batch before it releases anyone, so a waiter that writes and starts
	// the next flush mid-batch never appends into the slice being released.
	queued, batch, spare []waiter
	synced               func() // bound to onSynced
}

// waiter is one caller queued behind a flush: a callback, or (done nil) a
// durable frontier for OnFrontier.
type waiter struct {
	done     func()
	frontier uint64
}

// NewLogStore opens (or creates) the named log on dev.
func NewLogStore(dev *Device, name string) *LogStore {
	ls := &LogStore{dev: dev, name: name}
	ls.synced = ls.onSynced
	return ls
}

// Name returns the log's file name.
func (ls *LogStore) Name() string { return ls.name }

// write lands hdr ‖ data as one record, stamping its length, kind and
// checksum over the landed bytes; hdr[recHeader:] already holds the
// payload's fixed fields. The flush that covers it starts at the caller's
// kick.
func (ls *LogStore) write(kind byte, hdr, data []byte) {
	rec := ls.dev.Append(ls.name, hdr, data)
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(rec)-recHeader))
	rec[8] = kind
	binary.LittleEndian.PutUint32(rec[0:], crc32.ChecksumIEEE(rec[8:]))
	ls.dirty = true
}

// after queues done (unless nil) behind the next flush and kicks.
func (ls *LogStore) after(done func()) {
	if done != nil {
		ls.queued = append(ls.queued, waiter{done: done})
	}
	ls.kick()
}

// kick starts a flush covering every buffered record, unless one is in
// flight (its completion kicks again) or nothing was written since the last.
func (ls *LogStore) kick() {
	if ls.busy || !ls.dirty {
		return
	}
	ls.busy, ls.dirty = true, false
	ls.batch, ls.queued, ls.spare = ls.queued, ls.spare, nil
	ls.dev.Sync(ls.name, ls.synced)
}

// onSynced releases the landed flush's batch in queue order. busy clears
// first, so a waiter that writes starts the next flush mid-batch, as a
// caller of the device would; the batch is recycled only after the loop.
func (ls *LogStore) onSynced() {
	batch := ls.batch
	ls.batch = nil
	ls.busy = false
	for _, w := range batch {
		if w.done != nil {
			w.done()
		} else if ls.OnFrontier != nil {
			ls.OnFrontier(w.frontier)
		}
	}
	clear(batch)
	ls.spare = batch[:0]
	ls.kick()
}

// AppendEntry persists one log entry.
func (ls *LogStore) AppendEntry(seq, term uint64, data []byte, done func()) {
	var hdr [recHeader + 16]byte
	binary.LittleEndian.PutUint64(hdr[recHeader:], seq)
	binary.LittleEndian.PutUint64(hdr[recHeader+8:], term)
	ls.write(kindEntry, hdr[:], data)
	ls.after(done)
}

// Truncate persists a positional truncation: on replay, every entry with
// Seq >= keepBelow recovered so far is dropped.
func (ls *LogStore) Truncate(keepBelow uint64, done func()) {
	var hdr [recHeader + 8]byte
	binary.LittleEndian.PutUint64(hdr[recHeader:], keepBelow)
	ls.write(kindTrunc, hdr[:], nil)
	ls.after(done)
}

// SetMeta persists one metadata cell (last write wins on replay).
func (ls *LogStore) SetMeta(key uint8, val uint64, done func()) {
	ls.meta(key, val)
	ls.after(done)
}

func (ls *LogStore) meta(key uint8, val uint64) {
	var hdr [recHeader + 9]byte
	hdr[recHeader] = key
	binary.LittleEndian.PutUint64(hdr[recHeader+1:], val)
	ls.write(kindMeta, hdr[:], nil)
}

// Flush arranges for done once everything appended so far is durable.
func (ls *LogStore) Flush(done func()) { ls.SetMeta(flushKey, 0, done) }

// FlushFrontier is Flush reporting n through OnFrontier, in done's place:
// once everything appended so far is durable, the owner learns that its
// first n entries are.
func (ls *LogStore) FlushFrontier(n uint64) {
	ls.meta(flushKey, 0)
	ls.queued = append(ls.queued, waiter{frontier: n})
	ls.kick()
}

// Reset truncates the log to empty; pending group commits still complete
// against the old content's flush. No package here calls it — the storage
// story has no snapshot to supersede a log — and it survives, with
// Device.Truncate beneath it, only for the frozen benchmark/kernels.go,
// which empties its kernel's log between batches. Delete both with the next
// benchmark PR.
func (ls *LogStore) Reset() { ls.dev.Truncate(ls.name) }

// Reopen is the one restart path for a typed log on a device that has just
// come back from a crash: it replays the durable prefix (RecoverLog) and
// returns a fresh store to append through — the old handle's in-flight
// flush died with the device epoch, so its completion callbacks will never
// fire. A torn or corrupt tail the replay dropped is trimmed off the file:
// otherwise later appends sit behind the garbage, the next recovery stops
// at it, and a replica power-cut twice loses its durable prefix. The trim
// is immediately durable metadata, like Device.Truncate (zero simulated
// time, no trace event). Reopen charges nothing for the read; a replica
// restart goes through Recovery.Reopen, which does.
func Reopen(dev *Device, name string) (*LogStore, Recovered) {
	rec := RecoverLog(dev, name)
	if rec.Dropped > 0 {
		dev.trim(name, rec.Bytes)
	}
	return NewLogStore(dev, name), rec
}

// Reopened is one log brought back by Recovery.Reopen: the fresh store to
// append through and what its replay reconstructed.
type Reopened struct {
	Store *LogStore
	Recovered
}

// Recovery is a durable group's recovery ledger: the bytes its replicas read
// back from their own disks, and the payload bytes re-shipped over the
// interconnect to refill what those disks had lost. A group embeds it for
// abcast.DurableGroup's two counters.
type Recovery struct {
	diskBytes, fabricBytes int64
}

// DiskRecoveredBytes implements abcast.DurableGroup.
func (r *Recovery) DiskRecoveredBytes() int64 { return r.diskBytes }

// FabricRecoveryBytes implements abcast.DurableGroup.
func (r *Recovery) FabricRecoveryBytes() int64 { return r.fabricBytes }

// Refetched counts n payload bytes that arrived over the interconnect for a
// position the replica held before it crashed.
func (r *Recovery) Refetched(n int) { r.fabricBytes += int64(n) }

// Reopen is the head of every durable restart: it reopens the named logs on
// dev (the package-level Reopen, in the order given), adds the bytes read to
// the ledger, and pauses proc for one recovery read over all of them. Each
// protocol continues from the returned replays with its own record decoder,
// metadata keys and re-apply loop over All; one that keeps the recovered
// payloads copies them into storage it owns.
func (r *Recovery) Reopen(dev *Device, proc *simnet.Proc, names ...string) []Reopened {
	logs := make([]Reopened, len(names))
	bytes := 0
	for i, name := range names {
		logs[i].Store, logs[i].Recovered = Reopen(dev, name)
		bytes += logs[i].Bytes
	}
	r.diskBytes += int64(bytes)
	proc.Pause(dev.ReadCost(bytes))
	return logs
}

// RecoverLog replays name's durable prefix on dev and returns the
// reconstructed state. One verified walk over the segments, in place,
// finds the valid prefix and collects the meta cells and the truncate
// records; it copies nothing and lists no entry (Recovered.All walks them).
// It performs no simulated-time charging itself.
func RecoverLog(dev *Device, name string) Recovered {
	rec := Recovered{Meta: make(map[uint8]uint64), f: dev.files[name]}
	if rec.f == nil {
		return rec
	}
	rec.Bytes, rec.Tail = rec.f.records(rec.f.synced, true, func(kind byte, payload []byte) {
		switch {
		case kind == kindEntry && len(payload) >= 16:
			rec.DataBytes += len(payload) - 16
		case kind == kindTrunc && len(payload) >= 8:
			rec.below = append(rec.below, binary.LittleEndian.Uint64(payload))
		case kind == kindMeta && len(payload) >= 9 && payload[0] != flushKey:
			rec.Meta[payload[0]] = binary.LittleEndian.Uint64(payload[1:])
		}
	})
	for i := len(rec.below) - 2; i >= 0; i-- {
		rec.below[i] = min(rec.below[i], rec.below[i+1])
	}
	rec.Dropped = rec.f.synced - rec.Bytes
	return rec
}

// records walks f's first n bytes (at most its durable prefix) record by
// record, in place, handing each record's kind and payload to visit, and
// returns the length of the prefix it consumed and how the walk ended. With
// verify it stops at the first record whose checksum fails. A record never
// straddles a segment edge (Device.Append lands each write inside one
// segment), so a header or body that would cross one inside the durable
// prefix is corrupt; one that runs past the durable prefix is torn.
func (f *file) records(n int, verify bool, visit func(kind byte, payload []byte)) (int, TailState) {
	base := 0
	for _, s := range f.segs {
		if base >= n {
			break
		}
		s = s[:min(len(s), n-base)]
		for off := 0; off < len(s); {
			end := off + recHeader
			if end <= len(s) {
				end += int(binary.LittleEndian.Uint32(s[off+4:]))
			}
			if end > len(s) {
				if base+end > n {
					return base + off, TailTorn
				}
				return base + off, TailCorrupt
			}
			body := s[off+8 : end] // kind byte + payload
			if verify && crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(s[off:]) {
				return base + off, TailCorrupt
			}
			visit(body[0], body[1:])
			off = end
		}
		base += len(s)
	}
	return base, TailClean
}
