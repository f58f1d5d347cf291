// Package acuerdo implements the Acuerdo atomic broadcast protocol
// (Izraelevitz et al., "Acuerdo: Fast Atomic Broadcast over RDMA", ICPP '22)
// over the simulated RDMA fabric.
//
// The implementation follows the paper's pseudocode (Figures 1, 4, 5, 6, 7):
// a single leader per epoch pipelines messages to followers over RDMA ring
// buffers; followers acknowledge only their most recently accepted header
// through a shared state table (FIFO delivery implicitly acknowledges all
// earlier messages); the leader commits once a quorum has accepted and
// propagates commits off the critical path; and elections converge on an
// up-to-date leader by a fixed-point voting scheme over a dedicated SST.
package acuerdo

import (
	"encoding/binary"
	"fmt"
)

// PID is a process identifier (the replica's index in the group).
type PID uint32

// Epoch identifies one leader's period of sovereignty. Epochs are totally
// ordered by round number, then leader ID, and only grow over time.
type Epoch struct {
	Round uint32
	Ldr   PID
}

// Cmp returns -1, 0, or +1 comparing e with o in epoch order.
func (e Epoch) Cmp(o Epoch) int {
	switch {
	case e.Round != o.Round:
		if e.Round < o.Round {
			return -1
		}
		return 1
	case e.Ldr != o.Ldr:
		if e.Ldr < o.Ldr {
			return -1
		}
		return 1
	}
	return 0
}

// Less reports e < o.
func (e Epoch) Less(o Epoch) bool { return e.Cmp(o) < 0 }

func (e Epoch) String() string { return fmt.Sprintf("(%d,%d)", e.Round, e.Ldr) }

// Term returns e as one number in epoch order, round<<32 | ldr: the term its
// leader wins and its entries carry, as elections report it.
func (e Epoch) Term() uint64 { return uint64(e.Round)<<32 | uint64(e.Ldr) }

// NewBiggerEpoch returns an epoch with self as leader that is strictly
// greater than both a and b (used when a node votes for itself, Figure 7
// line 102). Votes therefore only ever increase, which is what rules out
// the split-vote livelock of Raft/DARE-style elections.
func NewBiggerEpoch(a, b Epoch, self PID) Epoch {
	r := a.Round
	if b.Round > r {
		r = b.Round
	}
	return Epoch{Round: r + 1, Ldr: self}
}

// MsgHdr orders every broadcast message: first by epoch, then by the
// monotonically increasing per-epoch count. Count zero is reserved for the
// epoch's diff message.
type MsgHdr struct {
	E   Epoch
	Cnt uint32
}

// Cmp returns -1, 0, or +1 comparing h with o in total message order.
func (h MsgHdr) Cmp(o MsgHdr) int {
	if c := h.E.Cmp(o.E); c != 0 {
		return c
	}
	switch {
	case h.Cnt < o.Cnt:
		return -1
	case h.Cnt > o.Cnt:
		return 1
	}
	return 0
}

// Less reports h < o.
func (h MsgHdr) Less(o MsgHdr) bool { return h.Cmp(o) < 0 }

// LessEq reports h <= o.
func (h MsgHdr) LessEq(o MsgHdr) bool { return h.Cmp(o) <= 0 }

func (h MsgHdr) String() string { return fmt.Sprintf("(%s,%d)", h.E, h.Cnt) }

// Vote is one row of the election SST: the epoch the voter wants to join
// and the last accepted header of that epoch's candidate. Votes are ordered
// by epoch, then accepted header, and only increase.
type Vote struct {
	ENew Epoch
	Acpt MsgHdr
}

// Cmp returns -1, 0, or +1 comparing v with o in vote order.
func (v Vote) Cmp(o Vote) int {
	if c := v.ENew.Cmp(o.ENew); c != 0 {
		return c
	}
	return v.Acpt.Cmp(o.Acpt)
}

// IsZero reports whether the vote is unset.
func (v Vote) IsZero() bool { return v == Vote{} }

func (v Vote) String() string { return fmt.Sprintf("<%s,%s>", v.ENew, v.Acpt) }

// CommitRow is one row of the commit SST: the node's last committed header
// plus a heartbeat word. The heartbeat makes the periodic push observable
// even when no new commits happen, which is what the failure detector
// monitors. Its top bits are the node's incarnation (Incarnation), bumped
// at every restart, and its low incShift bits count pushes; the count
// survives a restart, so the word only grows.
type CommitRow struct {
	Hdr MsgHdr
	HB  uint64
}

// incShift is the heartbeat word's split: pushes below it, the incarnation
// above. 2^48 pushes at the 4 µs cadence outlast any run by decades.
const incShift = 48

// Incarnation returns the incarnation the row's heartbeat word carries: how
// many times its node has restarted.
func (r CommitRow) Incarnation() uint32 { return uint32(r.HB >> incShift) }

// --- fixed-size SST codecs ---

// HdrCodec encodes MsgHdr rows (12 bytes) for the acceptance SST.
type HdrCodec struct{}

// Size returns the encoded row size.
func (HdrCodec) Size() int { return 12 }

// Encode writes h into dst.
func (HdrCodec) Encode(dst []byte, h MsgHdr) {
	binary.LittleEndian.PutUint32(dst[0:], h.E.Round)
	binary.LittleEndian.PutUint32(dst[4:], uint32(h.E.Ldr))
	binary.LittleEndian.PutUint32(dst[8:], h.Cnt)
}

// Decode reads a MsgHdr from src into dst.
func (HdrCodec) Decode(dst *MsgHdr, src []byte) { *dst = hdrAt(src) }

// hdrAt reads the MsgHdr encoded at the start of src.
func hdrAt(src []byte) MsgHdr {
	return MsgHdr{
		E: Epoch{
			Round: binary.LittleEndian.Uint32(src[0:]),
			Ldr:   PID(binary.LittleEndian.Uint32(src[4:])),
		},
		Cnt: binary.LittleEndian.Uint32(src[8:]),
	}
}

// VoteCodec encodes Vote rows (20 bytes) for the election SST.
type VoteCodec struct{}

// Size returns the encoded row size.
func (VoteCodec) Size() int { return 20 }

// Encode writes v into dst.
func (VoteCodec) Encode(dst []byte, v Vote) {
	binary.LittleEndian.PutUint32(dst[0:], v.ENew.Round)
	binary.LittleEndian.PutUint32(dst[4:], uint32(v.ENew.Ldr))
	HdrCodec{}.Encode(dst[8:], v.Acpt)
}

// Decode reads a Vote from src into dst.
func (VoteCodec) Decode(dst *Vote, src []byte) {
	*dst = Vote{
		ENew: Epoch{
			Round: binary.LittleEndian.Uint32(src[0:]),
			Ldr:   PID(binary.LittleEndian.Uint32(src[4:])),
		},
		Acpt: hdrAt(src[8:]),
	}
}

// CommitCodec encodes CommitRow rows (20 bytes) for the commit SST.
type CommitCodec struct{}

// Size returns the encoded row size.
func (CommitCodec) Size() int { return 20 }

// Encode writes r into dst.
func (CommitCodec) Encode(dst []byte, r CommitRow) {
	HdrCodec{}.Encode(dst[0:], r.Hdr)
	binary.LittleEndian.PutUint64(dst[12:], r.HB)
}

// Decode reads a CommitRow from src into dst.
func (CommitCodec) Decode(dst *CommitRow, src []byte) {
	*dst = CommitRow{
		Hdr: hdrAt(src[0:]),
		HB:  binary.LittleEndian.Uint64(src[12:]),
	}
}

// --- wire message encoding (ring buffer payloads) ---

// Message kinds on the wire.
const (
	kindNormal = byte(0)
	kindDiff   = byte(1)
)

// msgHdrSize is the encoded message header that precedes a normal record's
// payload: the MsgHdr and the kind byte.
const msgHdrSize = 13

// putMsgHdr encodes a record's message header into dst[:msgHdrSize].
func putMsgHdr(dst []byte, hdr MsgHdr, kind byte) {
	HdrCodec{}.Encode(dst, hdr)
	dst[12] = kind
}

// EncodeMessage builds the ring-buffer record for a normal broadcast
// message in a fresh buffer.
func EncodeMessage(hdr MsgHdr, payload []byte) []byte {
	return appendMessage(make([]byte, 0, msgHdrSize+len(payload)), hdr, payload)
}

// appendMessage appends the ring-buffer record for a normal broadcast
// message to dst: the WAL's record format, which a durable replica builds in
// a buffer it reuses (Broadcast gathers the same bytes into the wire frame
// without building the record).
func appendMessage(dst []byte, hdr MsgHdr, payload []byte) []byte {
	var mh [msgHdrSize]byte
	putMsgHdr(mh[:], hdr, kindNormal)
	return append(append(dst, mh[:]...), payload...)
}

// EncodeDiff builds the ring-buffer record for a diff message containing
// the entries of l at positions [i, j) (a RangeClosed), in order. from is the
// inclusive lower bound of the diff's range (the receiver's last known
// committed header); the receiver removes its own log entries at or above it
// before splicing the diff in, even when the diff is empty.
func EncodeDiff(hdr, from MsgHdr, l *Log, i, j int) []byte {
	n := 29
	for p := i; p < j; p++ {
		n += 16 + len(l.At(p).Payload)
	}
	buf := make([]byte, n)
	putMsgHdr(buf, hdr, kindDiff)
	HdrCodec{}.Encode(buf[13:], from)
	binary.LittleEndian.PutUint32(buf[25:], uint32(j-i))
	off := 29
	for p := i; p < j; p++ {
		e := l.At(p)
		HdrCodec{}.Encode(buf[off:], e.Hdr)
		binary.LittleEndian.PutUint32(buf[off+12:], uint32(len(e.Payload)))
		copy(buf[off+16:], e.Payload)
		off += 16 + len(e.Payload)
	}
	return buf
}

// DecodeMessage parses a ring-buffer record. For diff records the range
// lower bound and entries are returned; for normal records the payload is.
// The payload and every entry's Payload are views into rec, valid as long as
// rec is: Log.Insert copies what the replica keeps.
func DecodeMessage(rec []byte) (hdr MsgHdr, payload []byte, entries []Entry, diffFrom MsgHdr, isDiff bool, err error) {
	if len(rec) < 13 {
		return hdr, nil, nil, diffFrom, false, fmt.Errorf("acuerdo: short record (%d bytes)", len(rec))
	}
	hdr = hdrAt(rec)
	switch rec[12] {
	case kindNormal:
		return hdr, rec[13:], nil, diffFrom, false, nil
	case kindDiff:
		if len(rec) < 29 {
			return hdr, nil, nil, diffFrom, true, fmt.Errorf("acuerdo: short diff record")
		}
		diffFrom = hdrAt(rec[13:])
		cnt := binary.LittleEndian.Uint32(rec[25:])
		off := 29
		// An entry is at least its 16-byte header, so the bytes that remain
		// bound the count: a corrupt one must not size an allocation.
		if uint64(cnt)*16 > uint64(len(rec)-off) {
			return hdr, nil, nil, diffFrom, true, fmt.Errorf("acuerdo: diff claims %d entries in %d bytes", cnt, len(rec)-off)
		}
		entries = make([]Entry, 0, cnt)
		for i := uint32(0); i < cnt; i++ {
			if off+16 > len(rec) {
				return hdr, nil, nil, diffFrom, true, fmt.Errorf("acuerdo: truncated diff entry %d", i)
			}
			eh := hdrAt(rec[off:])
			ln := binary.LittleEndian.Uint32(rec[off+12:])
			end := off + 16 + int(ln)
			if end > len(rec) {
				return hdr, nil, nil, diffFrom, true, fmt.Errorf("acuerdo: truncated diff payload %d", i)
			}
			entries = append(entries, Entry{Hdr: eh, Payload: rec[off+16 : end : end]})
			off = end
		}
		return hdr, nil, entries, diffFrom, true, nil
	default:
		return hdr, nil, nil, diffFrom, false, fmt.Errorf("acuerdo: unknown record kind %d", rec[12])
	}
}
