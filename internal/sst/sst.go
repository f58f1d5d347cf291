// Package sst implements the Shared State Table abstraction from Derecho
// (Jha et al., TOCS 2019), which Acuerdo uses for acceptance notifications,
// commit propagation, and leader election.
//
// An SST is a replicated array with one row per node. A node may write only
// its own row and pushes updates to some or all peers with one-sided RDMA
// writes; because later writes to the same remote address overwrite earlier
// ones, the table is ideal for monotonic values where only the last write
// matters. Reading the local replica yields a (possibly stale) snapshot of
// every peer's latest pushed row.
package sst

import (
	"fmt"

	"acuerdo/internal/rdma"
)

// Codec serializes row values into a fixed-size byte representation. Rows
// must be fixed-size so that every update lands at the same remote address.
// Decode overwrites *dst and may reuse what it references (a row's slice), so
// decoding into the same storage every poll allocates nothing.
type Codec[T any] interface {
	Size() int
	Encode(dst []byte, v T)
	Decode(dst *T, src []byte)
}

// Table is one node's replica of a shared state table.
type Table[T any] struct {
	Self  int // this node's row index
	codec Codec[T]
	n     int

	local  *rdma.MR   // local replica: peers write their rows here
	remote []*rdma.MR // peers' replicas (remote[Self] == local)
	qps    []*rdma.QP // qps[j] targets node j (nil for Self)

	// Observe, when non-nil, is invoked after every Set with this node's
	// freshly encoded row. A group with a fact subscriber hooks it to state
	// each write as a trace.SSTWrite fact, which the runtime invariant
	// observer checks for per-cell monotonicity at the write source — the
	// property that makes last-write-wins RDMA pushes safe. Left nil (the
	// default), Set pays nothing.
	Observe func(self int, row []byte)

	got T // Get's decode target
}

// Build creates one table replicated across nodes, returning the per-node
// handles in node order. Row i may be written only through handle i.
func Build[T any](nodes []*rdma.Node, codec Codec[T]) []*Table[T] {
	n := len(nodes)
	size := codec.Size()
	tables := make([]*Table[T], n)
	mrs := make([]*rdma.MR, n)
	for i, nd := range nodes {
		mrs[i] = nd.RegisterMemory(n * size)
	}
	for i, nd := range nodes {
		t := &Table[T]{Self: i, codec: codec, n: n, local: mrs[i], remote: mrs}
		t.qps = make([]*rdma.QP, n)
		for j, peer := range nodes {
			if j == i {
				continue
			}
			t.qps[j] = nd.Connect(peer)
			// SST pushes are tiny and frequent; sign sparsely.
			t.qps[j].SignalEvery = 1024
		}
		tables[i] = t
	}
	return tables
}

// N returns the number of rows.
func (t *Table[T]) N() int { return t.n }

func (t *Table[T]) rowBytes(i int) []byte {
	s := t.codec.Size()
	return t.local.Buf[i*s : (i+1)*s]
}

// Set stores v into this node's local row without pushing it.
func (t *Table[T]) Set(v T) {
	t.codec.Encode(t.rowBytes(t.Self), v)
	if t.Observe != nil {
		t.Observe(t.Self, t.rowBytes(t.Self))
	}
}

// Get decodes row i from the local replica. It decodes into storage the
// table keeps, so a row type holding a slice shares it with the previous Get's
// result; Snapshot is the way to keep several rows.
func (t *Table[T]) Get(i int) T {
	t.codec.Decode(&t.got, t.rowBytes(i))
	return t.got
}

// Snapshot decodes every row of the local replica into dst, which it resizes
// to N rows, and returns it. Passing back the slice of the last Snapshot
// reuses its rows: the caller keeps one slice and a poll allocates nothing.
func (t *Table[T]) Snapshot(dst []T) []T {
	if cap(dst) < t.n {
		dst = make([]T, t.n)
	}
	dst = dst[:t.n]
	for i := range dst {
		t.codec.Decode(&dst[i], t.rowBytes(i))
	}
	return dst
}

// PushMine replicates this node's row to every peer (push_mine in the
// paper's pseudocode).
func (t *Table[T]) PushMine() {
	for j := 0; j < t.n; j++ {
		if j == t.Self {
			continue
		}
		t.PushMineTo(j)
	}
}

// PushMineTo replicates this node's row to peer j only (push_mine_to). Used
// on the acceptance fast path, where only the leader needs the update.
func (t *Table[T]) PushMineTo(j int) {
	if j == t.Self {
		return
	}
	s := t.codec.Size()
	if _, err := t.qps[j].Write(t.remote[j], t.Self*s, t.rowBytes(t.Self)); err != nil {
		// Ring full toward a dead/slow peer: SST rows are idempotent
		// (last write wins), so dropping a push is safe — a later push
		// carries fresher state. This mirrors real deployments where a
		// wedged QP to a dead node is simply abandoned.
		if err != rdma.ErrSendQueueFull {
			panic(fmt.Sprintf("sst: push failed: %v", err))
		}
	}
}
