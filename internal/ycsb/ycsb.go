// Package ycsb implements the YCSB workload generator (Cooper et al., SoCC
// 2010) pieces the paper's Figure 9 experiment needs: the scrambled
// zipfian key-popularity distribution with the standard 0.99 skew and the
// YCSB-load phase (a continuous stream of writes).
package ycsb

import (
	"fmt"
	"math"
	"math/rand"

	"acuerdo/internal/digest"
)

// Zipfian generates zipf-distributed values in [0, n) using the
// Gray et al. incremental algorithm, exactly as YCSB's ZipfianGenerator
// does.
type Zipfian struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	zeta2 float64
	eta   float64
}

// NewZipfian creates a generator over [0, n) with skew theta (YCSB default
// 0.99).
func NewZipfian(n uint64, theta float64) *Zipfian {
	z := &Zipfian{n: n, theta: theta}
	z.alpha = 1 / (1 - theta)
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next zipf-distributed value.
func (z *Zipfian) Next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// Workload is the YCSB-load configuration: continuous writes with
// scrambled-zipfian key popularity.
type Workload struct {
	// RecordCount is the keyspace size.
	RecordCount uint64
	// ValueSize is the value payload size per write.
	ValueSize int
	// Theta is the zipfian skew (paper: .99).
	Theta float64

	zipf *Zipfian
	rng  *rand.Rand
}

// NewWorkload builds a YCSB-load workload.
func NewWorkload(records uint64, valueSize int, theta float64, seed int64) *Workload {
	return &Workload{
		RecordCount: records,
		ValueSize:   valueSize,
		Theta:       theta,
		zipf:        NewZipfian(records, theta),
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// NextKey draws the next key.
func (w *Workload) NextKey() string {
	// The FNV scramble spreads popular items over the keyspace (YCSB's
	// ScrambledZipfian).
	v := uint64(digest.Offset.Uint64(w.zipf.Next(w.rng))) % w.RecordCount
	return fmt.Sprintf("user%016d", v)
}

// NextOp draws the next write: a key and a value.
func (w *Workload) NextOp() (key string, value []byte) {
	key = w.NextKey()
	value = make([]byte, w.ValueSize)
	w.rng.Read(value)
	return key, value
}
