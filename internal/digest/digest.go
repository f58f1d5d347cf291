// Package digest is the repository's one determinism digest: a 64-bit
// FNV-1a state every harness folds its evidence into, so "two same-seed runs
// match" is decided by one arithmetic in one place. A Sum is only ever
// compared with other Sums (between runs, or against a committed
// BENCH_*.json), never with an external hash — which licenses the word fold.
//
// Two folds exist because two are pinned in committed fingerprints. Word
// mixes a whole 64-bit word per multiply; the streaming digests on the
// simulation hot path use it (trace events, observer checks, durable device
// contents). Uint64 and Str are canonical FNV-1a, one byte per multiply, as
// hash/fnv computes it; the placement map, key routing, the YCSB scramble and
// the placement run fingerprint use them. All inline and none allocates.
package digest

import "fmt"

// Sum is a streaming digest state. Start from Offset (or any basis the
// caller owns), chain folds, and compare or render the result.
type Sum uint64

// Offset and Prime are the 64-bit FNV offset basis and prime.
const (
	Offset Sum = 14695981039346656037
	Prime  Sum = 1099511628211
)

// Word folds v in one round: (s ^ v) * Prime.
func (s Sum) Word(v uint64) Sum { return (s ^ Sum(v)) * Prime }

// Uint64 folds v's eight bytes, least significant first, one round each.
func (s Sum) Uint64(v uint64) Sum {
	for i := 0; i < 8; i++ {
		s = (s ^ Sum(v&0xff)) * Prime
		v >>= 8
	}
	return s
}

// Str folds the bytes of b in order, one round each.
func (s Sum) Str(b string) Sum {
	for i := 0; i < len(b); i++ {
		s = (s ^ Sum(b[i])) * Prime
	}
	return s
}

// Hex renders s as the 16 lower-case hex digits artifacts and tables carry.
func (s Sum) Hex() string { return fmt.Sprintf("%016x", uint64(s)) }
