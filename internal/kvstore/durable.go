package kvstore

import (
	"encoding/binary"
	"sort"

	"acuerdo/internal/disk"
)

// DurableStore layers the simulated disk under one replica's table: every
// applied op is appended to a checksummed WAL (group-committed in the
// background — applying never waits on the disk), and every SnapEvery ops
// the whole table is written as an atomically renamed snapshot, after which
// the WAL restarts empty. OpenDurableStore rebuilds the table after a crash
// by loading the snapshot and replaying the WAL's durable tail — the §4.3
// hash table's snapshot + log-replay restart.
type DurableStore struct {
	// Store is the in-memory table; reads go straight to it.
	Store *Store

	dev *disk.Device
	log *disk.LogStore

	// SnapEvery is the op count between snapshots; zero disables them.
	SnapEvery int
	snapping  bool
	sinceSnap int
	// snapApplied is the Applied frontier covered by the last durable
	// snapshot; WAL replay skips ops at or below it.
	snapApplied uint64
}

// Device file names used by a DurableStore.
const (
	kvWALName  = "kv.wal"
	kvSnapName = "kv.snap"
)

// NewDurableStore creates an empty durable table on dev.
func NewDurableStore(dev *disk.Device, snapEvery int) *DurableStore {
	return &DurableStore{
		Store:     NewStore(),
		dev:       dev,
		log:       disk.NewLogStore(dev, kvWALName),
		SnapEvery: snapEvery,
	}
}

// RecoveryInfo reports what OpenDurableStore reconstructed.
type RecoveryInfo struct {
	// SnapshotApplied is the Applied frontier the loaded snapshot covered
	// (zero when no usable snapshot existed).
	SnapshotApplied uint64
	// Replayed is the count of WAL ops applied on top of the snapshot.
	Replayed int
	// Tail reports how WAL replay ended (clean / torn / corrupt).
	Tail disk.TailState
	// Bytes is the durable byte count read during recovery; charge
	// dev.ReadCost(Bytes) to the recovering process.
	Bytes int
}

// OpenDurableStore rebuilds a durable table from dev's surviving state:
// snapshot first, then the WAL tail, skipping ops the snapshot already
// covers. Ops that were never group-committed (or sit behind a torn or
// corrupt record) are lost, exactly as on a real machine — the replication
// layer re-fetches them over the fabric.
func OpenDurableStore(dev *disk.Device, snapEvery int) (*DurableStore, RecoveryInfo) {
	d := NewDurableStore(dev, snapEvery)
	var info RecoveryInfo
	if blob, ok := disk.ReadSnapshot(dev, kvSnapName); ok {
		if applied, m, ok := decodeSnapshot(blob); ok {
			d.Store.Applied = applied
			d.Store.m = m
			d.snapApplied = applied
			info.SnapshotApplied = applied
		}
		info.Bytes += len(blob)
	}
	log, rec := disk.Reopen(dev, kvWALName)
	d.log = log
	info.Tail = rec.Tail
	info.Bytes += rec.Bytes
	for _, e := range rec.Entries {
		if e.Seq <= d.snapApplied {
			continue // the snapshot already covers this op
		}
		op, err := DecodeOp(e.Data)
		if err != nil {
			continue // a record that never was a valid op; skip it
		}
		d.Store.Apply(op)
		info.Replayed++
	}
	return d, info
}

// Apply executes one committed update and persists it in the background.
// The in-memory apply is immediate; durability lags by at most one group
// commit (and is what a crash loses).
func (d *DurableStore) Apply(o Op) {
	d.Store.Apply(o)
	d.log.AppendEntry(d.Store.Applied, 0, o.Encode(), nil)
	d.sinceSnap++
	if d.SnapEvery > 0 && d.sinceSnap >= d.SnapEvery && !d.snapping {
		d.snapshot()
	}
}

// Sync arranges for done(err) once every op applied so far is durable.
func (d *DurableStore) Sync(done func(error)) { d.log.Flush(done) }

// snapshot writes the current table as a new snapshot. The WAL is never
// truncated mid-run — doing so before the snapshot is durable would lose
// group-committed ops, and rewriting it afterwards buys nothing inside a
// bounded simulation — so replay simply skips every op the snapshot
// covers. (Real systems GC closed WAL segments here; segment files are not
// modeled.)
func (d *DurableStore) snapshot() {
	d.snapping = true
	d.sinceSnap = 0
	frontier := d.Store.Applied
	blob := encodeSnapshot(frontier, d.Store.m)
	disk.WriteSnapshot(d.dev, kvSnapName, blob, func(err error) {
		d.snapping = false
		if err == nil {
			d.snapApplied = frontier
		}
	})
}

// encodeSnapshot serializes (applied, table) deterministically: keys are
// sorted, so two replicas with equal tables produce identical snapshots
// and identical device digests.
func encodeSnapshot(applied uint64, m map[string][]byte) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	size := 12
	for _, k := range keys {
		size += 6 + len(k) + len(m[k])
	}
	out := make([]byte, size)
	binary.LittleEndian.PutUint64(out[0:], applied)
	binary.LittleEndian.PutUint32(out[8:], uint32(len(keys)))
	off := 12
	for _, k := range keys {
		v := m[k]
		binary.LittleEndian.PutUint16(out[off:], uint16(len(k)))
		binary.LittleEndian.PutUint32(out[off+2:], uint32(len(v)))
		copy(out[off+6:], k)
		copy(out[off+6+len(k):], v)
		off += 6 + len(k) + len(v)
	}
	return out
}

func decodeSnapshot(b []byte) (applied uint64, m map[string][]byte, ok bool) {
	if len(b) < 12 {
		return 0, nil, false
	}
	applied = binary.LittleEndian.Uint64(b[0:])
	n := int(binary.LittleEndian.Uint32(b[8:]))
	m = make(map[string][]byte, n)
	off := 12
	for i := 0; i < n; i++ {
		if off+6 > len(b) {
			return 0, nil, false
		}
		kl := int(binary.LittleEndian.Uint16(b[off:]))
		vl := int(binary.LittleEndian.Uint32(b[off+2:]))
		if off+6+kl+vl > len(b) {
			return 0, nil, false
		}
		key := string(b[off+6 : off+6+kl])
		m[key] = append([]byte(nil), b[off+6+kl:off+6+kl+vl]...)
		off += 6 + kl + vl
	}
	return applied, m, true
}
