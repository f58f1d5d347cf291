package disk

// Durable returns a copy of name's durable prefix — the bytes that survive
// a crash right now — flattened out of its segments for tests to compare.
// Recovery reads the segments in place (RecoverLog).
func (d *Device) Durable(name string) []byte {
	f, ok := d.files[name]
	if !ok {
		return nil
	}
	out := make([]byte, f.synced)
	n := 0
	for _, s := range f.segs {
		n += copy(out[n:], s)
	}
	return out
}
