package simnet

import "math/bits"

// minFrame is the smallest frame capacity handed out; class c holds frames
// of capacity minFrame<<c.
const minFrame = 64

// FramePool recycles the wire-frame payload copies of the simulated
// transports (rdma.Fabric, tcpnet.Net) by power-of-two size class, so a
// 1 KB payload frame is reused exactly even when the pool is full of 64 B
// ack frames. Like the Sim it serves, a pool is single-goroutine. The zero
// value is ready to use.
type FramePool struct {
	free [][][]byte // free[c]: idle frames of capacity minFrame<<c
}

// frameClass returns the smallest class whose frames hold n bytes.
func frameClass(n int) int {
	if n <= minFrame {
		return 0
	}
	return bits.Len(uint(n-1) / minFrame)
}

// Get returns a length-n frame with unspecified contents.
func (p *FramePool) Get(n int) []byte {
	c := frameClass(n)
	if c < len(p.free) && len(p.free[c]) > 0 {
		l := p.free[c]
		p.free[c] = l[:len(l)-1]
		return l[len(l)-1][:n]
	}
	return make([]byte, n, minFrame<<c)
}

// Put recycles a frame obtained from Get. Callers must not touch it
// afterwards.
func (p *FramePool) Put(b []byte) {
	c := frameClass(cap(b))
	if cap(b) != minFrame<<c {
		return // not one of ours
	}
	for len(p.free) <= c {
		p.free = append(p.free, nil)
	}
	p.free[c] = append(p.free[c], b)
}
