package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram is a bounded bucketed histogram: a fixed set of ascending upper
// bounds plus an overflow bucket, with exact count/sum/min/max kept on the
// side. Memory is O(buckets) regardless of how many values are observed.
// Observation is lock-free (atomics only), so it is safe on hot paths like
// per-change-vector apply.
type Histogram struct {
	bounds []float64 // ascending upper bounds (inclusive, Prometheus "le")
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	min    atomic.Uint64 // float64 bits, +Inf when empty
	max    atomic.Uint64 // float64 bits, -Inf when empty
}

// NewHistogram builds a histogram over the given ascending upper bounds. An
// implicit +Inf overflow bucket is always appended.
func NewHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// ExpBuckets returns n upper bounds growing exponentially from lo by factor.
func ExpBuckets(lo, factor float64, n int) []float64 {
	out := make([]float64, 0, n)
	b := lo
	for i := 0; i < n; i++ {
		out = append(out, b)
		b *= factor
	}
	return out
}

// DurationBuckets returns exponential duration bounds (in seconds) covering
// [lo, hi] with perOctave buckets per doubling. perOctave 4 keeps relative
// quantile error under ~19%; 8 under ~9%.
func DurationBuckets(lo, hi time.Duration, perOctave int) []float64 {
	if perOctave < 1 {
		perOctave = 1
	}
	factor := math.Pow(2, 1/float64(perOctave))
	var out []float64
	for b := lo.Seconds(); ; b *= factor {
		out = append(out, b)
		if b >= hi.Seconds() {
			return out
		}
	}
}

// LatencyBuckets is the layout of response-time distributions (the workload
// driver's Q1/Q2, the experiments' samplers): 250ns..100s at 8 buckets per
// doubling, so quantiles stay within ~9 % of the exact nearest-rank value.
var LatencyBuckets = DurationBuckets(250*time.Nanosecond, 100*time.Second, 8)

func atomicAddFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func atomicMinFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func atomicMaxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sum, v)
	atomicMinFloat(&h.min, v)
	atomicMaxFloat(&h.max, v)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Count returns the number of observed values.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// HistogramSnapshot is a point-in-time copy of a histogram. Counts are
// per-bucket (not cumulative); Counts[len(Bounds)] is the overflow bucket.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// Snapshot copies the histogram state. Buckets are read without a global
// lock, so under concurrent observation the bucket sum may trail Count by the
// few observations in flight; each individual value is consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sum.Load()),
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	if s.Count > 0 {
		s.Min = math.Float64frombits(h.min.Load())
		s.Max = math.Float64frombits(h.max.Load())
	}
	return s
}

// Quantile estimates the p-quantile (0 <= p <= 1) by linear interpolation
// within the covering bucket, clamped to the exact [Min, Max] envelope. The
// estimate is exact for p=0 and p=1 and for single-sample histograms, and is
// otherwise within one bucket's width of the true nearest-rank value.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min
	}
	if p >= 1 {
		return s.Max
	}
	rank := math.Ceil(p * float64(s.Count))
	var cum uint64
	prev := 0.0
	for i, c := range s.Counts {
		if c > 0 && float64(cum)+float64(c) >= rank {
			hi := s.Max
			if i < len(s.Bounds) {
				hi = s.Bounds[i]
			}
			frac := (rank - float64(cum)) / float64(c)
			return clampFloat(prev+frac*(hi-prev), s.Min, s.Max)
		}
		cum += c
		if i < len(s.Bounds) {
			prev = s.Bounds[i]
		}
	}
	return s.Max
}

// Mean returns Sum/Count (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

func clampFloat(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
