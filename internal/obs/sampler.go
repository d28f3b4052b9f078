package obs

import (
	"sync"
	"time"
)

// Series is a time series of (elapsed, value) points: what a Sampler's sinks
// append to for the Fig. 11-style lag-over-time plots.
type Series struct {
	Name string

	mu     sync.Mutex
	start  time.Time
	points []Point
}

// Point is one sample of a Series.
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

// Sampler periodically evaluates registry gauges and feeds each value to a
// per-gauge sink. The standby wires the derived lag gauges (apply lag, query
// staleness, journal residency, commit-table pending) through a sampler into
// one Series each.
//
// The lifecycle is a restartable state machine: Start while running and Stop
// while stopped are no-ops, Stop blocks until the loop has exited, and a
// stopped sampler can be started again (the standby restarts its sampler
// across crash-recovery cycles).
type Sampler struct {
	reg      *Registry
	interval time.Duration
	sinks    map[string]func(float64)

	mu   sync.Mutex
	stop chan struct{} // non-nil while running; closed to halt the loop
	done chan struct{} // closed by the loop on exit
}

// NewSampler builds a sampler polling the named gauges every interval.
func NewSampler(reg *Registry, interval time.Duration, sinks map[string]func(float64)) *Sampler {
	if interval <= 0 {
		interval = time.Second
	}
	return &Sampler{reg: reg, interval: interval, sinks: sinks}
}

// Start launches the sampling loop; a no-op if it is already running.
func (s *Sampler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go s.loop(s.stop, s.done)
}

func (s *Sampler) loop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.SampleOnce()
		}
	}
}

// SampleOnce evaluates every tracked gauge once (also used by tests).
func (s *Sampler) SampleOnce() {
	for name, sink := range s.sinks {
		if v, ok := s.reg.GaugeValue(name); ok {
			sink(v)
		}
	}
}

// Stop halts the sampling loop and waits for it to exit. Idempotent, and a
// no-op on a sampler that was never started.
func (s *Sampler) Stop() {
	s.mu.Lock()
	stop, done := s.stop, s.done
	s.stop, s.done = nil, nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}
