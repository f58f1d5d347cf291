package rdma

// Hooks for pool_test.go, which is package rdma_test because it builds whole
// systems and those import this package.

// Hi is the region's high-water mark of landed bytes.
func (mr *MR) Hi() int { return mr.hi }

// DrainPool empties the process-wide MR pool and returns what it held.
func DrainPool() [][]byte {
	mrPoolMu.Lock()
	defer mrPoolMu.Unlock()
	var out [][]byte
	for size, l := range mrPool {
		out = append(out, l...)
		delete(mrPool, size)
	}
	return out
}

// Pooled returns f's poolable regions, in registration order.
func (f *Fabric) Pooled() []*MR { return f.mrs }
