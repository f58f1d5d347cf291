// Package disk is the deterministic simulated-storage subsystem: a per-node
// NVMe-like Device on the simnet clock (configurable fsync/read latency,
// volatile page cache vs. fsynced durable prefix, crash semantics that drop
// un-fsynced bytes) and a checksummed group-commit write-ahead log
// (LogStore) whose record path allocates nothing but the file's own growth.
// A device file is a list of 64 KiB segments that are never regrown or
// copied, so a WAL that grows to n bytes allocates about n/64 KiB segments
// and writes each byte once. The protocol packages
// layer their durable log/ballot/vote state on it and share its restart
// spine (Recovery.Reopen, the head of every durable restart, and
// GroupCommit, the one-flush-in-flight batching pump); internal/chaos
// injects its disk faults (fsync stalls, torn last records, bit-flip
// corruption) through the fault surface here. The device fails only by
// losing power: a write is never refused, so no completion carries an
// error.
//
// There is one storage story: a replica's durable state is its protocol's
// WAL, and the application above it is rebuilt by re-delivery of the
// recovered log. There are no snapshot files and no application-level log,
// which would write every operation a second time under the protocol's own.
//
// Everything is driven by simnet events and the simulator's seeded RNG, so
// disk-backed runs replay bit for bit from a seed like every other layer.
package disk

import (
	"math/rand"
	"sort"
	"time"

	"acuerdo/internal/digest"
	"acuerdo/internal/simnet"
	"acuerdo/internal/trace"
)

// Params models one device's service times. The defaults approximate a
// datacenter NVMe drive: ~10 us flushes. A buffered (page-cache) write is
// memcpy-speed and completes when Append returns, so it has no latency here.
type Params struct {
	// FsyncLatency is the fixed cost of one flush.
	FsyncLatency time.Duration
	// FsyncBytePer is the additional per-byte cost of flushing dirty bytes.
	FsyncBytePer time.Duration
	// ReadLatency is the fixed cost of opening a file for recovery reads.
	ReadLatency time.Duration
	// ReadBytePer is the additional per-byte cost of a recovery read.
	ReadBytePer time.Duration
}

// DefaultParams returns the standard NVMe-like device model.
func DefaultParams() Params {
	return Params{
		FsyncLatency: 10 * time.Microsecond,
		FsyncBytePer: time.Nanosecond,
		ReadLatency:  5 * time.Microsecond,
		ReadBytePer:  time.Nanosecond,
	}
}

// file is one named byte stream on a device, held as segments that are
// never regrown or copied: each Append lands inside one segment, in the last
// one if it fits there and in a new one otherwise (segSize bytes, or exactly
// the write's length for a larger write), so a segment may end short of its
// capacity. The stream is the concatenation of the segments; size is its
// length. Bytes below synced survive a crash; the tail [synced, size) is the
// volatile page cache.
type file struct {
	segs   [][]byte
	size   int
	synced int
}

// segSize is a file segment's capacity: a growing WAL allocates one segment
// per 64 KiB written and never copies what it holds.
const segSize = 64 << 10

// cut shortens the stream to its first n bytes and makes all of them
// durable. The segment holding byte n-1 keeps its array; later segments go.
func (f *file) cut(n int) {
	f.size, f.synced = n, n
	for i, s := range f.segs {
		if n <= len(s) {
			f.segs[i] = s[:n]
			clear(f.segs[i+1:])
			f.segs = f.segs[:i+1]
			return
		}
		n -= len(s)
	}
}

// Stats counts a device's lifetime activity; the recovery benchmark reports
// WriteBytes/FsyncBytes and the bytes recovered through RecoverLog.
type Stats struct {
	// Writes and WriteBytes count buffered write calls and their payloads.
	Writes     int64
	WriteBytes int64
	// Fsyncs and FsyncBytes count completed flushes and the bytes they made
	// durable.
	Fsyncs     int64
	FsyncBytes int64
	// Crashes counts Crash calls; TornCrashes those that left a torn tail.
	Crashes     int64
	TornCrashes int64
	// Faults counts applied fault-surface calls (stall/torn-arm/corrupt).
	Faults int64
}

// Fault identifiers for the KDiskFault trace event's A operand.
const (
	faultStall = iota
	faultTornArm
	faultCorrupt
)

// Device is one node's simulated disk. All methods must be called from
// inside the simulation; completion callbacks run as simnet events. A
// Device is not safe for use from multiple host goroutines (the simulator
// is single-threaded by design).
type Device struct {
	sim    *simnet.Sim
	node   int
	params Params

	files map[string]*file

	// epoch guards fsync completions: Crash increments it and every pending
	// completion belonging to the old epoch is dropped, exactly like
	// simnet.Proc's crash semantics.
	epoch uint64

	// fsync machinery: one flush in flight at a time, a FIFO queue behind it
	// (syncQueue[syncHead:], its head the flush in flight), and the free
	// list of the records that carry a flush from issue to completion.
	syncBusy   bool
	syncQueue  []syncReq
	syncHead   int
	syncFree   []*inflight
	stallUntil simnet.Time

	// fault state
	tornArmed bool

	stats Stats
}

type syncReq struct {
	name string
	done func()
}

// inflight is one issued fsync on its way to completion. It holds what a
// per-flush closure would capture; records are free-listed on the Device and
// fire is bound once, when the record is created, so a flush allocates
// nothing. Each record carries the epoch it was issued in: a crash cancels
// nothing, so a pre-crash completion still fires, finds its epoch stale and
// only recycles its record.
type inflight struct {
	dev   *Device
	req   syncReq
	upTo  int
	dirty int
	epoch uint64
	fire  func() // bound to complete
}

// NewDevice creates an empty device owned by node (the replica index used
// in trace events) on sim's clock.
func NewDevice(sim *simnet.Sim, node int, params Params) *Device {
	return &Device{
		sim:    sim,
		node:   node,
		params: params,
		files:  make(map[string]*file),
	}
}

// Node returns the owning replica index.
func (d *Device) Node() int { return d.node }

// Stats returns the device's activity counters.
func (d *Device) Stats() Stats { return d.stats }

// names returns the file names in sorted order (map iteration order must
// never leak into simulation state).
func (d *Device) names() []string {
	out := make([]string, 0, len(d.files))
	for name := range d.files {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (d *Device) get(name string) *file {
	f := d.files[name]
	if f == nil {
		f = &file{}
		d.files[name] = f
	}
	return f
}

// Append buffers the concatenation of parts at the end of name (creating it
// if needed) as one write and returns the landed bytes, which the caller may
// finish in place (a checksum over them) before anything else touches the
// file. The write lands inside one segment, so the landed bytes are
// contiguous. The buffered bytes are volatile until a Sync covering them
// completes.
func (d *Device) Append(name string, parts ...[]byte) []byte {
	f := d.get(name)
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	k := len(f.segs) - 1
	if k < 0 || cap(f.segs[k])-len(f.segs[k]) < n {
		f.segs = append(f.segs, make([]byte, 0, max(segSize, n)))
		k++
	}
	seg := f.segs[k]
	start := len(seg)
	for _, p := range parts {
		seg = append(seg, p...)
	}
	f.segs[k] = seg
	f.size += n
	d.stats.Writes++
	d.stats.WriteBytes += int64(n)
	if tr := d.sim.Tracer(); tr != nil {
		tr.Instant(trace.KDiskWrite, d.node, int64(d.sim.Now()), int64(n), int64(d.node))
		tr.Add(trace.CtrDiskWrites, 1)
		tr.Add(trace.CtrDiskWriteBytes, int64(n))
	}
	return seg[start:]
}

// Sync schedules an fsync of name: when it completes, every byte buffered
// in name at the time Sync was called is durable. Flushes are serialized
// per device (FIFO); an armed fsync-stall window delays the head of the
// queue until the window closes. done may be nil.
func (d *Device) Sync(name string, done func()) {
	if d.syncHead > 0 && 2*d.syncHead >= len(d.syncQueue) {
		// A completion that flushes again queues its next flush before the
		// device can see its queue drain, so a busy device's queue never
		// does: slide the live tail down (rewind it, when it did drain) once
		// at least half of it is spent.
		n := copy(d.syncQueue, d.syncQueue[d.syncHead:])
		clear(d.syncQueue[n:])
		d.syncQueue, d.syncHead = d.syncQueue[:n], 0
	}
	d.syncQueue = append(d.syncQueue, syncReq{name: name, done: done})
	if !d.syncBusy {
		d.syncBusy = true
		d.startSync()
	}
}

// startSync issues the flush at the head of the queue.
func (d *Device) startSync() {
	req := d.syncQueue[d.syncHead]
	f := d.get(req.name)
	upTo := f.size
	dirty := upTo - f.synced
	if dirty < 0 {
		dirty = 0
	}
	start := d.sim.Now()
	if d.stallUntil > start {
		start = d.stallUntil
	}
	doneAt := start.Add(d.params.FsyncLatency + time.Duration(dirty)*d.params.FsyncBytePer)
	var s *inflight
	if n := len(d.syncFree); n > 0 {
		s = d.syncFree[n-1]
		d.syncFree = d.syncFree[:n-1]
	} else {
		s = &inflight{dev: d}
		s.fire = s.complete
	}
	s.req, s.upTo, s.dirty, s.epoch = req, upTo, dirty, d.epoch
	d.sim.After(doneAt.Sub(d.sim.Now()), s.fire)
}

// complete recycles s (before anything it calls can issue a flush again),
// then, unless a crash intervened, makes the flushed prefix durable, pops
// the queue, runs the caller's done and starts the next flush.
func (s *inflight) complete() {
	d, req, upTo, dirty := s.dev, s.req, s.upTo, s.dirty
	stale := s.epoch != d.epoch
	s.req = syncReq{}
	d.syncFree = append(d.syncFree, s)
	if stale {
		return // crashed meanwhile; queue was discarded
	}
	if f, ok := d.files[req.name]; ok && upTo > f.synced {
		f.synced = upTo
	}
	d.stats.Fsyncs++
	d.stats.FsyncBytes += int64(dirty)
	if tr := d.sim.Tracer(); tr != nil {
		tr.Instant(trace.KDiskFsync, d.node, int64(d.sim.Now()), int64(dirty), int64(d.node))
		tr.Add(trace.CtrDiskFsyncs, 1)
		tr.Add(trace.CtrDiskFsyncBytes, int64(dirty))
	}
	d.syncQueue[d.syncHead] = syncReq{}
	d.syncHead++
	if req.done != nil {
		req.done()
	}
	if d.syncHead < len(d.syncQueue) {
		d.startSync()
	} else {
		d.syncBusy = false
	}
}

// dropSyncs forgets every queued flush: a crash took their completions.
func (d *Device) dropSyncs() {
	d.epoch++
	d.syncBusy = false
	clear(d.syncQueue)
	d.syncQueue, d.syncHead = d.syncQueue[:0], 0
}

// Truncate resets name to empty (creating it if needed). The truncation is
// modeled as an immediately durable metadata journal entry, as on any
// journaling filesystem.
func (d *Device) Truncate(name string) {
	f := d.get(name)
	f.segs, f.size, f.synced = nil, 0, 0
}

// trim cuts name down to its first n bytes, all of them durable (Reopen
// discarding a torn tail).
func (d *Device) trim(name string, n int) { d.get(name).cut(n) }

// Size returns name's total buffered length and its durable prefix length.
func (d *Device) Size(name string) (total, durable int) {
	f, ok := d.files[name]
	if !ok {
		return 0, 0
	}
	return f.size, f.synced
}

// ReadCost returns the simulated time a recovery read of n bytes takes;
// callers charge it to their process (Pause) or clock (After).
func (d *Device) ReadCost(n int) time.Duration {
	return d.params.ReadLatency + time.Duration(n)*d.params.ReadBytePer
}

// Crash models a power loss: every pending completion is dropped, the sync
// queue is discarded, and each file loses its volatile tail. If a
// torn-write fault is armed, each file with a volatile tail instead keeps a
// random partial prefix of that tail — the torn last record a checksummed
// WAL replay must detect and discard. A nil Device is a replica in the
// volatile model: it has no disk to lose.
func (d *Device) Crash(rng *rand.Rand) {
	if d == nil {
		return
	}
	d.dropSyncs()
	d.stats.Crashes++
	torn := d.tornArmed
	d.tornArmed = false
	if torn {
		d.stats.TornCrashes++
	}
	for _, name := range d.names() {
		f := d.files[name]
		keep := f.synced
		if tail := f.size - f.synced; torn && tail > 0 && rng != nil {
			keep += rng.Intn(tail) // 0 <= extra < tail: at least one byte lost
		}
		// Everything that survived the power loss is on the platter now —
		// a torn partial record is durable garbage until replay discards it.
		f.cut(keep)
	}
}

// Wipe destroys all content, durable bytes included (the amnesia model:
// the node lost its disk, not just its memory). Pending completions drop.
func (d *Device) Wipe() {
	d.dropSyncs()
	d.files = make(map[string]*file)
}

// StallFsync opens (or extends) an fsync-stall window: flushes issued
// before the window closes do not complete until it does. In-flight
// flushes are unaffected (their completion is already on the wire).
func (d *Device) StallFsync(dur time.Duration) {
	until := d.sim.Now().Add(dur)
	if until > d.stallUntil {
		d.stallUntil = until
	}
	d.fault(faultStall, int64(dur))
}

// ArmTornWrite arms the torn-write fault: the next Crash leaves a random
// partial prefix of each file's volatile tail instead of dropping it
// cleanly. The arm is consumed by the crash.
func (d *Device) ArmTornWrite() {
	d.tornArmed = true
	d.fault(faultTornArm, 0)
}

// CorruptDurable flips one random bit inside the durable region of the
// device's largest durable file (ties broken by name) — silent media
// corruption that only a checksum verify during recovery can catch. It
// reports whether any bit was flipped.
func (d *Device) CorruptDurable(rng *rand.Rand) bool {
	var victim *file
	var max int
	for _, name := range d.names() {
		f := d.files[name]
		if f.synced > max {
			victim, max = f, f.synced
		}
	}
	if victim == nil || rng == nil {
		return false
	}
	// Flip in the second half of the durable region so a prefix survives to
	// recover from; the replay must stop exactly at the corrupted record.
	off := max/2 + rng.Intn(max-max/2)
	bit := byte(1) << uint(rng.Intn(8))
	at := off
	for _, s := range victim.segs {
		if at < len(s) {
			s[at] ^= bit
			break
		}
		at -= len(s)
	}
	d.fault(faultCorrupt, int64(off))
	return true
}

func (d *Device) fault(id int, operand int64) {
	d.stats.Faults++
	if tr := d.sim.Tracer(); tr != nil {
		tr.Instant(trace.KDiskFault, d.node, int64(d.sim.Now()), int64(id), operand)
		tr.Add(trace.CtrDiskFaults, 1)
	}
}

// Digest folds every file's name, durable length, and durable bytes into a
// word-folded digest: two devices with identical durable state have
// identical digests. The chaos harness compares it across same-seed runs so
// durable-state drift fails the durability lane.
func (d *Device) Digest() digest.Sum {
	h := digest.Offset
	for _, name := range d.names() {
		f := d.files[name]
		h = h.Str(name).Word(uint64(f.synced))
		// Fold durable bytes 8 at a time (cheap and order-sensitive),
		// segment by segment, the accumulator carried across boundaries.
		var acc uint64
		i := 0
		for _, s := range f.segs {
			for _, b := range s[:min(len(s), f.synced-i)] {
				acc = acc<<8 | uint64(b)
				if i&7 == 7 {
					h = h.Word(acc)
					acc = 0
				}
				i++
			}
		}
		h = h.Word(acc)
	}
	return h
}
