// Package metrics provides latency histograms and throughput accounting for
// the benchmark harness.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"acuerdo/internal/chunks"
)

// Histogram collects duration samples and reports order statistics.
// The zero value is ready to use.
type Histogram struct {
	samples chunks.List[time.Duration] // insertion order, never reordered
	sorted  []time.Duration            // lazily built sorted copy for order statistics
	sum     time.Duration
}

// Add records one sample.
func (h *Histogram) Add(d time.Duration) {
	h.samples.Append(d)
	h.sorted = nil
	h.sum += d
}

// Merge records every sample of o, in o's insertion order, chunk by chunk.
func (h *Histogram) Merge(o *Histogram) {
	for c := range o.samples.Chunks(0, o.samples.Len()) {
		for _, d := range c {
			h.samples.Append(d)
		}
	}
	h.sorted = nil
	h.sum += o.sum
}

// N returns the number of samples.
func (h *Histogram) N() int { return h.samples.Len() }

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	if h.N() == 0 {
		return 0
	}
	return h.sum / time.Duration(h.N())
}

// sort builds the sorted copy; the backing samples stay in insertion order.
func (h *Histogram) sort() {
	if h.sorted == nil {
		h.sorted = h.samples.AppendTo(make([]time.Duration, 0, h.N()))
		slices.Sort(h.sorted)
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) by linear
// interpolation between the two closest order statistics (the same
// definition as numpy's default): the rank p/100*(N-1) is split into its
// integer and fractional parts, and the result interpolates between the
// samples at the bracketing ranks. With a sample at the exact rank —
// including p=100, which always returns the maximum — no interpolation
// happens.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.N() == 0 {
		return 0
	}
	h.sort()
	rank := p / 100 * float64(len(h.sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return h.sorted[lo]
	}
	frac := rank - float64(lo)
	return h.sorted[lo] + time.Duration(frac*float64(h.sorted[hi]-h.sorted[lo]))
}

// Quantiles returns the percentiles ps in one call (each 0 < p <= 100),
// sorting at most once.
func (h *Histogram) Quantiles(ps ...float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	for i, p := range ps {
		out[i] = h.Percentile(p)
	}
	return out
}

// Min returns the smallest sample.
func (h *Histogram) Min() time.Duration {
	if h.N() == 0 {
		return 0
	}
	h.sort()
	return h.sorted[0]
}

// Max returns the largest sample.
func (h *Histogram) Max() time.Duration {
	if h.N() == 0 {
		return 0
	}
	h.sort()
	return h.sorted[len(h.sorted)-1]
}

// Samples returns a copy of the recorded samples in insertion order. Order
// statistics never disturb it: the seed-replay harness compares these
// byte-for-byte between same-seed runs — identical event execution must
// produce identical latency sequences, not just identical aggregates.
func (h *Histogram) Samples() []time.Duration {
	return h.samples.AppendTo(make([]time.Duration, 0, h.N()))
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	h.samples.Truncate(0)
	h.sum = 0
	h.sorted = nil
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.N(), h.Mean(), h.Percentile(50), h.Percentile(99), h.Max())
}

// DefaultBuckets are the fixed histogram-bucket upper bounds used by
// Export, spanning sub-microsecond RDMA commits to second-scale election
// stalls in a 1-2-5 progression.
var DefaultBuckets = []time.Duration{
	1 * time.Microsecond, 2 * time.Microsecond, 5 * time.Microsecond,
	10 * time.Microsecond, 20 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 200 * time.Microsecond, 500 * time.Microsecond,
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 20 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 200 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second,
}

// Bucket is one cumulative histogram bucket: Count samples were <= Le.
type Bucket struct {
	Le    time.Duration
	Count int
}

// Snapshot is a machine-readable histogram summary with fixed quantiles
// and cumulative buckets: the fixed DefaultBuckets ladder, extended by one
// final bucket at the observed maximum only when samples fall beyond the
// ladder. Bucket bounds are strictly increasing and the last count always
// reaches N.
type Snapshot struct {
	N       int
	Sum     time.Duration
	Mean    time.Duration
	Min     time.Duration
	Max     time.Duration
	P50     time.Duration
	P90     time.Duration
	P99     time.Duration
	P999    time.Duration
	Buckets []Bucket
}

// Export summarizes the histogram over DefaultBuckets.
func (h *Histogram) Export() Snapshot {
	s := Snapshot{
		N:    h.N(),
		Sum:  h.sum,
		Mean: h.Mean(),
		Min:  h.Min(),
		Max:  h.Max(),
	}
	if s.N == 0 {
		return s
	}
	qs := h.Quantiles(50, 90, 99, 99.9)
	s.P50, s.P90, s.P99, s.P999 = qs[0], qs[1], qs[2], qs[3]
	// h.sorted is built by the calls above; cumulative counts by binary
	// search over it.
	for _, le := range DefaultBuckets {
		n := sort.Search(len(h.sorted), func(i int) bool { return h.sorted[i] > le })
		s.Buckets = append(s.Buckets, Bucket{Le: le, Count: n})
	}
	// Close the ladder with an observed-max bucket only when the max
	// actually exceeds the last fixed bound. Appending it unconditionally
	// put a bound below earlier ones whenever every sample fit inside the
	// fixed ladder (the common sub-second case), breaking the cumulative
	// buckets' monotonicity in Le; the fixed ladder already reaches N then.
	if s.Max > DefaultBuckets[len(DefaultBuckets)-1] {
		s.Buckets = append(s.Buckets, Bucket{Le: s.Max, Count: s.N})
	}
	return s
}

// Throughput converts a message count over a simulated interval into
// messages/second.
func Throughput(msgs int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(msgs) / elapsed.Seconds()
}

// MBPerSec converts a payload byte count over an interval into MB/s
// (decimal megabytes, matching the paper's axes).
func MBPerSec(bytes int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / elapsed.Seconds()
}
