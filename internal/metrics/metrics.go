// Package metrics provides the measurement tools the evaluation harness
// needs: latency recorders with median/average/p95 summaries (the statistics
// reported in the paper's Figs. 9-10 and Table 2), time-series samplers for
// the log-advancement plot (Fig. 11), and CPU-time accounting to reproduce
// the CPU-shift observations of §IV.A-B.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"dbimadg/internal/obs"
)

// recorderBuckets covers 250ns..100s at 8 buckets per doubling (~9% relative
// bucket width), so summary quantiles stay within single-digit-percent error
// of the exact nearest-rank value while memory stays bounded.
var recorderBuckets = obs.DurationBuckets(250*time.Nanosecond, 100*time.Second, 8)

// LatencyRecorder accumulates duration samples into a bounded bucketed
// histogram (see obs.Histogram). Count, sum, min and max are exact; Median
// and P95 are bucket-interpolated estimates, so memory is O(buckets) no
// matter how long the run — the previous implementation kept every sample in
// an unbounded slice, which grew without limit in long experiments.
type LatencyRecorder struct {
	h *obs.Histogram
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{h: obs.NewHistogram(recorderBuckets)}
}

// Record adds one sample.
func (r *LatencyRecorder) Record(d time.Duration) {
	r.h.ObserveDuration(d)
}

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int {
	return int(r.h.Count())
}

// Histogram exposes the backing histogram (for registering on an obs
// registry or rendering bucket detail).
func (r *LatencyRecorder) Histogram() *obs.Histogram { return r.h }

// LatencySummary is the median/average/95th-percentile triple reported
// throughout the paper's evaluation.
type LatencySummary struct {
	Count  int
	Median time.Duration
	Avg    time.Duration
	P95    time.Duration
	Min    time.Duration
	Max    time.Duration
}

// Summary computes the summary statistics over all recorded samples. Avg,
// Min, Max and Count are exact; Median and P95 carry at most one histogram
// bucket of error (~9% relative) and are exact for single-sample recorders.
func (r *LatencyRecorder) Summary() LatencySummary {
	snap := r.h.Snapshot()
	s := LatencySummary{Count: int(snap.Count)}
	if snap.Count == 0 {
		return s
	}
	s.Median = secondsToDuration(snap.Quantile(0.50))
	s.P95 = secondsToDuration(snap.Quantile(0.95))
	s.Avg = secondsToDuration(snap.Mean())
	s.Min = secondsToDuration(snap.Min)
	s.Max = secondsToDuration(snap.Max)
	return s
}

func secondsToDuration(sec float64) time.Duration {
	return time.Duration(math.Round(sec * float64(time.Second)))
}

// Summarize computes summary statistics over a sample set.
func Summarize(samples []time.Duration) LatencySummary {
	s := LatencySummary{Count: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var total time.Duration
	for _, d := range samples {
		total += d
	}
	s.Median = percentile(samples, 0.50)
	s.P95 = percentile(samples, 0.95)
	s.Avg = total / time.Duration(len(samples))
	s.Min = samples[0]
	s.Max = samples[len(samples)-1]
	return s
}

// percentile returns the p-quantile (0 < p <= 1) of sorted samples using the
// nearest-rank method: the value at rank ceil(p*n). Unlike the previous
// rounded-rank variant this is exact at the edges — p=1.0 always returns the
// maximum and a single-sample set returns that sample for every p.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Speedup returns how many times faster b is than a (a/b), e.g. the paper's
// "response time improved by almost 100x".
func Speedup(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (s LatencySummary) String() string {
	return fmt.Sprintf("n=%d median=%v avg=%v p95=%v", s.Count, s.Median, s.Avg, s.P95)
}

// Series is a time series of (elapsed, value) points, used for the Fig. 11
// log-advancement plot.
type Series struct {
	Name string

	mu     sync.Mutex
	start  time.Time
	points []Point
}

// Point is one sample.
type Point struct {
	Elapsed time.Duration
	Value   float64
}

// NewSeries starts a series anchored at now.
func NewSeries(name string) *Series {
	return &Series{Name: name, start: time.Now()}
}

// Sample appends the current value.
func (s *Series) Sample(v float64) {
	s.mu.Lock()
	s.points = append(s.points, Point{Elapsed: time.Since(s.start), Value: v})
	s.mu.Unlock()
}

// Points returns a copy of the sampled points.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}
