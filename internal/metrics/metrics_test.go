package metrics

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zero")
	}
	for _, d := range []time.Duration{30, 10, 20} {
		h.Add(d)
	}
	if h.N() != 3 || h.Mean() != 20 || h.Min() != 10 || h.Max() != 30 {
		t.Fatalf("stats: n=%d mean=%v min=%v max=%v", h.N(), h.Mean(), h.Min(), h.Max())
	}
	if h.Percentile(50) != 20 {
		t.Fatalf("p50 = %v", h.Percentile(50))
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	f := func(vals []uint16) bool {
		var h Histogram
		for _, v := range vals {
			h.Add(time.Duration(v))
		}
		prev := time.Duration(-1)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPercentileAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	var raw []time.Duration
	for i := 0; i < 1000; i++ {
		d := time.Duration(rng.Intn(100000))
		h.Add(d)
		raw = append(raw, d)
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
	if h.Min() != raw[0] || h.Max() != raw[999] {
		t.Fatal("min/max mismatch")
	}
	if got, want := h.Percentile(100), raw[999]; got != want {
		t.Fatalf("p100 = %v, want %v", got, want)
	}
}

func TestHistogramAddAfterSort(t *testing.T) {
	var h Histogram
	h.Add(10)
	_ = h.Percentile(50) // forces sort
	h.Add(5)
	if h.Min() != 5 {
		t.Fatalf("min = %v after post-sort add", h.Min())
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Add(10)
	h.Reset()
	if h.N() != 0 || h.Mean() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestThroughputHelpers(t *testing.T) {
	if got := Throughput(1000, time.Second); got != 1000 {
		t.Fatalf("Throughput = %f", got)
	}
	if got := MBPerSec(2e6, time.Second); got != 2 {
		t.Fatalf("MBPerSec = %f", got)
	}
	if Throughput(5, 0) != 0 || MBPerSec(5, 0) != 0 {
		t.Fatal("zero-duration should yield 0")
	}
}

func TestHistogramPercentileEdgeCases(t *testing.T) {
	var h Histogram
	if h.Percentile(100) != 0 {
		t.Fatal("p100 of empty histogram should be 0")
	}
	h.Add(42)
	for _, p := range []float64{1, 50, 100} {
		if got := h.Percentile(p); got != 42 {
			t.Fatalf("n=1 p%.0f = %v, want 42", p, got)
		}
	}
	h.Add(142)
	if got := h.Percentile(100); got != 142 {
		t.Fatalf("p100 = %v, want max", got)
	}
	// Linear interpolation between the two ranks: p50 is halfway.
	if got := h.Percentile(50); got != 92 {
		t.Fatalf("p50 = %v, want interpolated 92", got)
	}
	if got := h.Percentile(75); got != 117 {
		t.Fatalf("p75 = %v, want interpolated 117", got)
	}
}

func TestHistogramSamplesInsertionOrder(t *testing.T) {
	var h Histogram
	in := []time.Duration{30, 10, 20}
	for _, d := range in {
		h.Add(d)
	}
	// Order statistics must not disturb the insertion-ordered samples: the
	// seed-replay harness fingerprints this sequence.
	_ = h.Percentile(99)
	_ = h.Min()
	_ = h.Max()
	got := h.Samples()
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("samples reordered: %v, want %v", got, in)
		}
	}
	// And the returned slice is a copy.
	got[0] = 999
	if h.Samples()[0] != 30 {
		t.Fatal("Samples() aliases internal state")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i))
	}
	qs := h.Quantiles(50, 90, 99)
	want := []time.Duration{h.Percentile(50), h.Percentile(90), h.Percentile(99)}
	for i := range qs {
		if qs[i] != want[i] {
			t.Fatalf("Quantiles[%d] = %v, want %v", i, qs[i], want[i])
		}
	}
}

func TestHistogramExport(t *testing.T) {
	var h Histogram
	if s := h.Export(); s.N != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty export: %+v", s)
	}
	h.Add(500 * time.Nanosecond) // below the first bucket bound
	h.Add(3 * time.Microsecond)
	h.Add(40 * time.Microsecond)
	h.Add(2 * time.Second) // beyond the last fixed bound
	s := h.Export()
	if s.N != 4 || s.Min != 500*time.Nanosecond || s.Max != 2*time.Second {
		t.Fatalf("export summary: %+v", s)
	}
	if s.P50 != h.Percentile(50) || s.P999 != h.Percentile(99.9) {
		t.Fatal("export quantiles disagree with Percentile")
	}
	counts := map[time.Duration]int{}
	for _, b := range s.Buckets {
		counts[b.Le] = b.Count
	}
	if counts[time.Microsecond] != 1 || counts[5*time.Microsecond] != 2 ||
		counts[50*time.Microsecond] != 3 || counts[time.Second] != 3 {
		t.Fatalf("bucket counts: %+v", s.Buckets)
	}
	// The final bucket is bounded by the observed max so it reaches N.
	last := s.Buckets[len(s.Buckets)-1]
	if last.Le != s.Max || last.Count != s.N {
		t.Fatalf("final bucket: %+v", last)
	}
	// Cumulative counts are monotone.
	prev := 0
	for _, b := range s.Buckets {
		if b.Count < prev {
			t.Fatalf("non-monotone buckets: %+v", s.Buckets)
		}
		prev = b.Count
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	h.Add(time.Microsecond)
	if s := h.String(); s == "" {
		t.Fatal("empty string")
	}
}

// TestHistogramExportSubSecond pins the bucket ladder for the common case:
// every sample inside the fixed bounds. Export used to append a final
// {Le: Max, Count: N} bucket unconditionally, which put a bound below the
// earlier ones (Max was e.g. 40µs after a 1s fixed bound) and broke the
// cumulative ladder's monotonicity in Le; now the observed-max bucket
// appears only when samples land beyond the fixed ladder.
func TestHistogramExportSubSecond(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{
		700 * time.Nanosecond,
		3 * time.Microsecond,
		8 * time.Microsecond,
		40 * time.Microsecond,
		900 * time.Microsecond,
	} {
		h.Add(d)
	}
	s := h.Export()
	if len(s.Buckets) != len(DefaultBuckets) {
		t.Fatalf("got %d buckets, want the %d fixed bounds only", len(s.Buckets), len(DefaultBuckets))
	}
	for i, b := range s.Buckets {
		if b.Le != DefaultBuckets[i] {
			t.Fatalf("bucket %d bound %v, want %v", i, b.Le, DefaultBuckets[i])
		}
		if i > 0 && s.Buckets[i-1].Le >= b.Le {
			t.Fatalf("bucket bounds not strictly increasing: %+v", s.Buckets)
		}
		if i > 0 && s.Buckets[i-1].Count > b.Count {
			t.Fatalf("bucket counts not monotone: %+v", s.Buckets)
		}
	}
	if last := s.Buckets[len(s.Buckets)-1]; last.Count != s.N {
		t.Fatalf("ladder tops out at %d, want N=%d", last.Count, s.N)
	}
	// And the over-ladder case keeps its closing max bucket.
	h.Add(2 * time.Second)
	s = h.Export()
	if len(s.Buckets) != len(DefaultBuckets)+1 {
		t.Fatalf("got %d buckets, want fixed bounds plus the max bucket", len(s.Buckets))
	}
	if last := s.Buckets[len(s.Buckets)-1]; last.Le != 2*time.Second || last.Count != s.N {
		t.Fatalf("closing bucket %+v, want {2s, %d}", last, s.N)
	}
}

// TestHistogramPercentileInterpolation pins the interpolated values the
// doc promises: rank p/100*(N-1), linear between bracketing order
// statistics (numpy's default definition).
func TestHistogramPercentileInterpolation(t *testing.T) {
	var h Histogram
	// Samples 10,20,30,40ms: N-1 = 3, so p maps to rank 3p/100.
	for _, d := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 40 * time.Millisecond} {
		h.Add(d)
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{25, 17500 * time.Microsecond},     // rank 0.75: 10ms + 0.75*10ms
		{50, 25 * time.Millisecond},        // rank 1.5: midpoint of 20ms,30ms
		{75, 32500 * time.Microsecond},     // rank 2.25: 30ms + 0.25*10ms
		{90, 37 * time.Millisecond},        // rank 2.7: 30ms + 0.7*10ms
		{100, 40 * time.Millisecond},       // exact top rank, no interpolation
		{100.0 / 3, 20 * time.Millisecond}, // rank exactly 1.0
	}
	for _, c := range cases {
		if got := h.Percentile(c.p); got != c.want {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Single sample: every percentile is that sample.
	var one Histogram
	one.Add(7 * time.Millisecond)
	if one.Percentile(50) != 7*time.Millisecond || one.Percentile(99.9) != 7*time.Millisecond {
		t.Fatal("single-sample percentiles must return the sample")
	}
}

// TestHistogramMerge: merging is adding every sample in order — same
// insertion order, same sum, same exported snapshot — also after the
// receiver's order statistics were already built.
func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var merged, added Histogram
	for part := 0; part < 5; part++ {
		var h Histogram
		for i := rng.Intn(200); i > 0; i-- {
			h.Add(time.Duration(rng.Intn(1e6)))
		}
		merged.Merge(&h)
		for _, s := range h.Samples() {
			added.Add(s)
		}
		if !reflect.DeepEqual(merged.Samples(), added.Samples()) || !reflect.DeepEqual(merged.Export(), added.Export()) {
			t.Fatalf("after part %d: merged %v, added %v", part, &merged, &added)
		}
	}
}
