package obs

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dbimadg/internal/testutil"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 3, 3, 7, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Min != 0.5 || s.Max != 100 {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if got := s.Sum; math.Abs(got-115) > 1e-9 {
		t.Fatalf("Sum = %v", got)
	}
	want := []uint64{1, 1, 2, 1, 1} // <=1, <=2, <=4, <=8, overflow
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], w, s.Counts)
		}
	}
}

func TestHistogramQuantileEnvelope(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 10))
	h.Observe(42)
	s := h.Snapshot()
	// Single sample: every quantile is exactly that sample.
	for _, p := range []float64{0, 0.01, 0.5, 0.95, 1} {
		if got := s.Quantile(p); got != 42 {
			t.Fatalf("Quantile(%v) = %v, want 42", p, got)
		}
	}
	h.Observe(10)
	s = h.Snapshot()
	if got := s.Quantile(0); got != 10 {
		t.Fatalf("Quantile(0) = %v, want exact min", got)
	}
	if got := s.Quantile(1); got != 42 {
		t.Fatalf("Quantile(1) = %v, want exact max", got)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// Uniform values 1..1000 (scaled) with 8 buckets/doubling: quantiles must
	// land within one bucket width (~9%) of the exact nearest-rank value, and
	// the mean is exact. LatencyBuckets is the response-time layout, fed
	// 1..1000 ms.
	for _, c := range []struct {
		name   string
		bounds []float64
		unit   float64
	}{
		{"unit", ExpBuckets(1, math.Pow(2, 1.0/8), 90), 1},
		{"latency", LatencyBuckets, time.Millisecond.Seconds()},
	} {
		h := NewHistogram(c.bounds)
		for i := 1; i <= 1000; i++ {
			h.Observe(float64(i) * c.unit)
		}
		s := h.Snapshot()
		for _, p := range []float64{0.25, 0.5, 0.9, 0.95, 0.99} {
			exact := math.Ceil(p*1000) * c.unit
			got := s.Quantile(p)
			if math.Abs(got-exact)/exact > 0.10 {
				t.Fatalf("%s: Quantile(%v) = %v, exact %v: error > 10%%", c.name, p, got, exact)
			}
		}
		if mean := 500.5 * c.unit; math.Abs(s.Mean()-mean)/mean > 1e-9 {
			t.Fatalf("%s: Mean = %v, want %v", c.name, s.Mean(), mean)
		}
	}
}

func TestDurationBucketsCoverRange(t *testing.T) {
	b := DurationBuckets(time.Microsecond, time.Second, 4)
	if b[0] != time.Microsecond.Seconds() {
		t.Fatalf("first bound = %v", b[0])
	}
	if last := b[len(b)-1]; last < time.Second.Seconds() {
		t.Fatalf("last bound %v does not cover 1s", last)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %v", i, b)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("hits", "test counter")
			gauge := reg.Gauge("depth", "test gauge")
			h := reg.Histogram("lat", "test histogram", ExpBuckets(1, 2, 8))
			for i := 0; i < 1000; i++ {
				c.Inc()
				gauge.Set(float64(i))
				h.Observe(float64(i % 50))
				if i%100 == 0 {
					_ = reg.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	s := reg.Snapshot()
	if s.Counters["hits"] != 8000 {
		t.Fatalf("hits = %v", s.Counters["hits"])
	}
	if s.Histograms["lat"].Count != 8000 {
		t.Fatalf("lat count = %v", s.Histograms["lat"].Count)
	}
}

func TestRegistryIdempotentAndDerived(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("c", "help a")
	b := reg.Counter("c", "help b")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	a.Add(3)
	reg.CounterFunc("cf", "derived", func() float64 { return 7 })
	reg.GaugeFunc("gf", "derived gauge", func() float64 { return 2.5 })
	s := reg.Snapshot()
	if s.Counters["c"] != 3 || s.Counters["cf"] != 7 || s.Gauges["gf"] != 2.5 {
		t.Fatalf("snapshot: %+v", s)
	}
	if v, ok := reg.GaugeValue("gf"); !ok || v != 2.5 {
		t.Fatalf("GaugeValue = %v, %v", v, ok)
	}
	if _, ok := reg.GaugeValue("missing"); ok {
		t.Fatal("missing gauge reported ok")
	}
	if out := s.String(); !strings.Contains(out, "cf") || !strings.Contains(out, "gf") {
		t.Fatalf("String() missing metrics:\n%s", out)
	}
}

func TestPipelineTraceRingAndHistograms(t *testing.T) {
	reg := NewRegistry()
	tr := NewPipelineTrace(reg, 4)
	for i := 1; i <= 6; i++ {
		tr.Observe(StageApply, uint64(i), time.Duration(i)*time.Millisecond)
	}
	tr.Observe(StageMerge, 7, time.Millisecond)
	if got := tr.StageCount(StageApply); got != 6 {
		t.Fatalf("StageCount = %d (full-run count must outlive the ring)", got)
	}
	ev := tr.Events(0)
	if len(ev) != 4 {
		t.Fatalf("ring retained %d events, want 4", len(ev))
	}
	// Oldest-first ordering; the last event is the merge observation.
	if ev[len(ev)-1].Stage != "merge" || ev[len(ev)-1].SCN != 7 {
		t.Fatalf("last event: %+v", ev[len(ev)-1])
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].Seq <= ev[i-1].Seq {
			t.Fatalf("events not ordered by seq: %+v", ev)
		}
	}
	if got := tr.Events(2); len(got) != 2 || got[1].SCN != 7 {
		t.Fatalf("Events(2): %+v", got)
	}
	// The registry saw the per-stage histogram.
	s := reg.Snapshot()
	if s.Histograms["pipeline_stage_apply_seconds"].Count != 6 {
		t.Fatalf("apply histogram: %+v", s.Histograms["pipeline_stage_apply_seconds"])
	}
}

func TestPipelineTraceNilSafe(t *testing.T) {
	var tr *PipelineTrace
	tr.Observe(StageShip, 1, time.Millisecond) // must not panic
	if tr.StageCount(StageShip) != 0 || tr.Events(10) != nil || tr.StageHistogram(StageShip) != nil {
		t.Fatal("nil trace accessors not zero")
	}
}

func TestTraceConcurrent(t *testing.T) {
	reg := NewRegistry()
	tr := NewPipelineTrace(reg, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Observe(Stage(i%int(numStages)), uint64(g*1000+i), time.Microsecond)
				if i%50 == 0 {
					_ = tr.Events(16)
				}
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for _, s := range Stages() {
		total += tr.StageCount(s)
	}
	if total != 8*500 {
		t.Fatalf("total stage count = %d", total)
	}
}

func TestSampler(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("lag", "test", func() float64 { return 11 })
	var mu sync.Mutex
	var got []float64
	s := NewSampler(reg, time.Millisecond, map[string]func(float64){
		"lag":     func(v float64) { mu.Lock(); got = append(got, v); mu.Unlock() },
		"missing": func(v float64) { t.Errorf("sampled unregistered gauge: %v", v) },
	})
	s.SampleOnce()
	s.Start()
	// Wait for ticker-driven samples beyond the manual SampleOnce instead of
	// sleeping a fixed interval (flaky under load).
	sampled := testutil.WaitFor(5*time.Second, 0, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) >= 3
	})
	s.Stop()
	s.Stop() // idempotent
	mu.Lock()
	defer mu.Unlock()
	if !sampled || got[0] != 11 {
		t.Fatalf("samples: %v", got)
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

// TestSamplerLifecycle exercises the restartable state machine: Stop before
// Start is a no-op, double Start spawns a single loop, and a stopped sampler
// can start sampling again.
func TestSamplerLifecycle(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("lag", "test", func() float64 { return 1 })
	var count atomic.Int64
	s := NewSampler(reg, time.Millisecond, map[string]func(float64){
		"lag": func(float64) { count.Add(1) },
	})

	s.Stop() // never started: must not hang or panic
	s.Stop()

	s.Start()
	s.Start() // no-op: must not spawn a second loop
	if !testutil.WaitFor(5*time.Second, 0, func() bool { return count.Load() >= 2 }) {
		t.Fatal("sampler not sampling after Start")
	}
	s.Stop()
	// A leaked second loop would keep sampling past Stop (Stop only joins the
	// loop it knows about); a quiet counter proves exactly one loop ran.
	settled := count.Load()
	time.Sleep(20 * time.Millisecond)
	if count.Load() != settled {
		t.Fatalf("sampling continued after Stop: %d -> %d (leaked loop)", settled, count.Load())
	}

	// Restart: sampling resumes after a full Stop.
	s.Start()
	if !testutil.WaitFor(5*time.Second, 0, func() bool { return count.Load() > settled }) {
		t.Fatal("sampler did not resume after restart")
	}
	s.Stop()
	s.Stop()
}

// TestSamplerConcurrentStartStop hammers the lifecycle from many goroutines;
// run with -race to catch channel-swap races.
func TestSamplerConcurrentStartStop(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("lag", "test", func() float64 { return 1 })
	s := NewSampler(reg, time.Millisecond, map[string]func(float64){"lag": func(float64) {}})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if (i+k)%2 == 0 {
					s.Start()
				} else {
					s.Stop()
				}
			}
		}(i)
	}
	wg.Wait()
	s.Stop()
}

// TestTraceRingWraparound pins the event ring's overwrite semantics: once the
// ring is full, the oldest events go first, Events stays oldest-first, and
// seq numbers remain strictly monotonic across the wrap.
func TestTraceRingWraparound(t *testing.T) {
	tr := NewPipelineTrace(NewRegistry(), 4)
	for scn := uint64(1); scn <= 10; scn++ {
		tr.Observe(StageApply, scn, time.Microsecond)
	}
	ev := tr.Events(0)
	if len(ev) != 4 {
		t.Fatalf("ring retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if want := uint64(7 + i); e.SCN != want || e.Seq != want {
			t.Fatalf("events[%d] = {scn %d seq %d}, want scn/seq %d (oldest-first)", i, e.SCN, e.Seq, want)
		}
	}

	// Limits slice from the newest end, still oldest-first within the window.
	lim := tr.Events(2)
	if len(lim) != 2 || lim[0].SCN != 9 || lim[1].SCN != 10 {
		t.Fatalf("limited events: %+v", lim)
	}
	// A limit beyond retention returns everything retained.
	if all := tr.Events(100); len(all) != 4 {
		t.Fatalf("over-limit returned %d events", len(all))
	}
	// Histograms count the whole run, not just the ring.
	if n := tr.StageCount(StageApply); n != 10 {
		t.Fatalf("stage count = %d, want 10", n)
	}
}

// TestTraceRingPartiallyFull: before the first wrap, Events returns exactly
// what was observed, in order.
func TestTraceRingPartiallyFull(t *testing.T) {
	tr := NewPipelineTrace(NewRegistry(), 8)
	tr.Observe(StageMerge, 1, time.Microsecond)
	tr.Observe(StageApply, 2, time.Microsecond)
	ev := tr.Events(0)
	if len(ev) != 2 || ev[0].Stage != "merge" || ev[1].Stage != "apply" || ev[0].Seq != 1 || ev[1].Seq != 2 {
		t.Fatalf("events: %+v", ev)
	}
}

// TestTraceConcurrentObserveEvents drives writers across every stage while
// readers snapshot the ring; run with -race. Every snapshot must be
// seq-ordered with no duplicates — a torn ring copy would show as a
// non-monotonic seq.
func TestTraceConcurrentObserveEvents(t *testing.T) {
	tr := NewPipelineTrace(NewRegistry(), 32)
	var wg sync.WaitGroup
	stopC := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tr.Observe(Stage(i%int(numStages)), uint64(i), time.Microsecond)
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				ev := tr.Events(16)
				for i := 1; i < len(ev); i++ {
					if ev[i].Seq <= ev[i-1].Seq {
						t.Errorf("snapshot seq not monotonic: %d then %d", ev[i-1].Seq, ev[i].Seq)
						return
					}
				}
				select {
				case <-stopC:
					return
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(stopC)
	readers.Wait()
	if ev := tr.Events(0); len(ev) != 32 {
		t.Fatalf("full ring holds %d events", len(ev))
	}
}
