package metrics

import (
	"sync"
	"testing"
	"time"
)

// within asserts got is within tol (relative) of want — the recorder's
// quantiles are bucket-interpolated estimates, exact only at the envelope.
func within(t *testing.T, name string, got, want time.Duration, tol float64) {
	t.Helper()
	diff := float64(got - want)
	if diff < 0 {
		diff = -diff
	}
	if diff > tol*float64(want) {
		t.Fatalf("%s = %v, want %v ±%.0f%%", name, got, want, tol*100)
	}
}

func TestSummaryStatistics(t *testing.T) {
	r := NewLatencyRecorder()
	for i := 1; i <= 100; i++ {
		r.Record(time.Duration(i) * time.Millisecond)
	}
	s := r.Summary()
	if s.Count != 100 {
		t.Fatalf("Count = %d", s.Count)
	}
	// Median/P95 are within one histogram bucket (~9% relative) of exact.
	within(t, "Median", s.Median, 50*time.Millisecond, 0.10)
	within(t, "P95", s.P95, 95*time.Millisecond, 0.10)
	// Count, sum (hence Avg), min and max are tracked exactly.
	within(t, "Avg", s.Avg, 50500*time.Microsecond, 0.001)
	if s.Min != time.Millisecond || s.Max != 100*time.Millisecond {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.Count != 0 || s.Median != 0 {
		t.Fatalf("empty summary: %+v", s)
	}
	s := Summarize([]time.Duration{7 * time.Millisecond})
	if s.Median != 7*time.Millisecond || s.P95 != 7*time.Millisecond {
		t.Fatalf("single summary: %+v", s)
	}
	// Single-sample recorders are exact for every quantile.
	r := NewLatencyRecorder()
	r.Record(7 * time.Millisecond)
	rs := r.Summary()
	if rs.Median != 7*time.Millisecond || rs.P95 != 7*time.Millisecond || rs.Max != 7*time.Millisecond {
		t.Fatalf("single recorder summary: %+v", rs)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0.01, 1}, {0.2, 1}, {0.21, 2}, {0.5, 3}, {0.8, 4}, {0.81, 5}, {1.0, 5},
	}
	for _, c := range cases {
		if got := percentile(sorted, c.p); got != c.want {
			t.Fatalf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// p=1.0 must be the maximum for every n (the old rounded rank could
	// undershoot); spot-check a few sizes.
	for n := 1; n <= 7; n++ {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i + 1)
		}
		if got := percentile(s, 1.0); got != time.Duration(n) {
			t.Fatalf("percentile(1.0) over n=%d = %v", n, got)
		}
	}
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(100*time.Millisecond, time.Millisecond); got != 100 {
		t.Fatalf("Speedup = %v", got)
	}
	if got := Speedup(time.Millisecond, 0); got != 0 {
		t.Fatalf("Speedup by zero = %v", got)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewLatencyRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if r.Count() != 8000 {
		t.Fatalf("Count = %d", r.Count())
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("std_log1")
	s.Sample(1)
	s.Sample(2)
	pts := s.Points()
	if len(pts) != 2 || pts[0].Value != 1 || pts[1].Value != 2 {
		t.Fatalf("points: %+v", pts)
	}
	if pts[1].Elapsed < pts[0].Elapsed {
		t.Fatal("elapsed not monotone")
	}
}
