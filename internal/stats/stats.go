// Package stats provides the measurement utilities the experiment harness
// aggregates with: streaming histograms with percentile queries, running
// mean/max trackers, exponentially weighted averages and simple time-series
// reductions. Everything is deterministic and allocation-light so it can
// run inside the per-cycle simulation loop.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a power-of-two-bucketed streaming histogram of non-negative
// integer samples (latencies in cycles). Bucket i holds samples in
// [2^(i-1), 2^i), with bucket 0 holding {0}.
type Histogram struct {
	buckets []uint64
	count   uint64
	sum     uint64
	max     uint64
	min     uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]uint64, 40), min: math.MaxUint64}
}

// Reset empties the histogram in place, reusing the bucket storage.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.count, h.sum, h.max = 0, 0, 0
	h.min = math.MaxUint64
}

// CopyFrom makes h a copy of src, reusing h's bucket storage.
func (h *Histogram) CopyFrom(src *Histogram) {
	h.buckets = append(h.buckets[:0], src.buckets...)
	h.count, h.sum, h.max, h.min = src.count, src.sum, src.max, src.min
}

// bucketOf maps a sample to its bucket index.
func bucketOf(v uint64) int {
	b := 0
	for v > 0 {
		b++
		v >>= 1
	}
	return b
}

// Observe adds one sample.
func (h *Histogram) Observe(v uint64) {
	b := bucketOf(v)
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b]++
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if v < h.min {
		h.min = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() uint64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Percentile returns an upper bound of the p-th percentile (0 < p <= 100):
// the upper edge of the bucket containing it. Bucketing makes this exact to
// within a factor of two, which is the right fidelity for latency tails.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		p = 1e-9
	}
	if p > 100 {
		p = 100
	}
	target := uint64(math.Ceil(p / 100 * float64(h.count)))
	var acc uint64
	for i, c := range h.buckets {
		acc += c
		if acc >= target {
			if i == 0 {
				return 0
			}
			return (uint64(1) << uint(i)) - 1
		}
	}
	return h.max
}

// String renders count/mean/p50/p99/max on one line.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50<=%d p99<=%d max=%d",
		h.count, h.Mean(), h.Percentile(50), h.Percentile(99), h.Max())
}

// Merge folds another histogram into this one.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.count > 0 {
		if o.max > h.max {
			h.max = o.max
		}
		if o.min < h.min {
			h.min = o.min
		}
	}
}

// EWMA is an exponentially weighted moving average.
type EWMA struct {
	// Alpha is the update weight in (0, 1].
	Alpha float64
	val   float64
	seen  bool
}

// Observe folds in a sample.
func (e *EWMA) Observe(v float64) {
	if !e.seen {
		e.val, e.seen = v, true
		return
	}
	a := e.Alpha
	if a <= 0 || a > 1 {
		a = 0.1
	}
	e.val += a * (v - e.val)
}

// Value returns the current average (0 before any sample).
func (e *EWMA) Value() float64 { return e.val }

// Series is an append-only time series of (cycle, value) points with simple
// reductions, used to post-process occupancy samples.
type Series struct {
	Cycles []uint64
	Values []float64
}

// Add appends a point.
func (s *Series) Add(cycle uint64, v float64) {
	s.Cycles = append(s.Cycles, cycle)
	s.Values = append(s.Values, v)
}

// Len returns the point count.
func (s *Series) Len() int { return len(s.Values) }

// Reset empties the series in place, keeping the grown point storage.
func (s *Series) Reset() {
	s.Cycles = s.Cycles[:0]
	s.Values = s.Values[:0]
}

// Max returns the maximum value and its cycle.
func (s *Series) Max() (cycle uint64, v float64) {
	for i, x := range s.Values {
		if i == 0 || x > v {
			v, cycle = x, s.Cycles[i]
		}
	}
	return
}

// MeanAfter returns the mean of values at cycles >= from.
func (s *Series) MeanAfter(from uint64) float64 {
	sum, n := 0.0, 0
	for i, c := range s.Cycles {
		if c >= from {
			sum += s.Values[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FirstAbove returns the first cycle at which the value reaches at least
// threshold (ok=false if never).
func (s *Series) FirstAbove(threshold float64) (uint64, bool) {
	for i, v := range s.Values {
		if v >= threshold {
			return s.Cycles[i], true
		}
	}
	return 0, false
}

// Spark renders the series as a compact ASCII sparkline.
func (s *Series) Spark(width int) string {
	if s.Len() == 0 || width <= 0 {
		return ""
	}
	marks := []byte("_.-=#@")
	_, max := s.Max()
	if max == 0 {
		max = 1
	}
	var b strings.Builder
	step := float64(s.Len()) / float64(width)
	if step < 1 {
		step = 1
		width = s.Len()
	}
	for i := 0; i < width; i++ {
		idx := int(float64(i) * step)
		if idx >= s.Len() {
			idx = s.Len() - 1
		}
		level := int(s.Values[idx] / max * float64(len(marks)-1))
		b.WriteByte(marks[level])
	}
	return b.String()
}

// Quantiles computes exact quantiles of a small sample slice (sorted copy);
// for offline analyses where bucketing is too coarse.
func Quantiles(samples []float64, qs ...float64) []float64 {
	if len(samples) == 0 {
		return make([]float64, len(qs))
	}
	cp := append([]float64(nil), samples...)
	sort.Float64s(cp)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		idx := int(q * float64(len(cp)-1))
		out[i] = cp[idx]
	}
	return out
}
