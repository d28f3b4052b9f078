package obs

import (
	"bytes"
	"runtime/pprof"
	"slices"
	"sync"
	"time"
)

// StateFunc produces one component's JSON-marshalable debug state for a
// flight-recorder bundle (e.g. the transport receiver's per-thread frontiers
// and reconnect counters). It must be safe to call from the watchdog
// goroutine at any time.
type StateFunc func() any

// Bundle is one captured diagnostic snapshot: everything needed to diagnose a
// pipeline stall post-mortem without a live process — the per-stage liveness
// table, the full metrics snapshot, the tail of the pipeline trace ring, a
// goroutine profile, and any registered component states.
type Bundle struct {
	Seq        int64          `json:"seq"`
	At         time.Time      `json:"at"`
	Reason     string         `json:"reason"`
	Stages     []StageHealth  `json:"stages"`
	Metrics    Snapshot       `json:"metrics"`
	Trace      []Event        `json:"trace,omitempty"`
	State      map[string]any `json:"state,omitempty"`
	Goroutines string         `json:"goroutines,omitempty"`
}

// Recorder capacity / size defaults.
const (
	DefaultBundleRing      = 8
	DefaultGoroutineBytes  = 256 << 10
	DefaultBundleTraceTail = 256
)

// FlightRecorder keeps a bounded in-memory ring of diagnostic bundles. The
// watchdog captures into it on stall detection; callers may also capture
// manually (e.g. a chaos harness snapshotting a wedged run before aborting).
// Bundles are deliberately bounded — the goroutine profile text is truncated
// at MaxGoroutineBytes and the trace tail at TraceTail events — so a stall
// storm cannot balloon memory.
type FlightRecorder struct {
	reg   *Registry
	trace *PipelineTrace

	maxGoroutine int
	traceTail    int

	mu        sync.Mutex
	ring      []*Bundle // oldest first, len <= cap(ring)
	capacity  int
	seq       int64
	providers map[string]StateFunc
}

// NewFlightRecorder builds a recorder holding up to capacity bundles
// (DefaultBundleRing if <= 0). reg and trace may be nil; their sections are
// then omitted from bundles.
func NewFlightRecorder(reg *Registry, trace *PipelineTrace, capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultBundleRing
	}
	return &FlightRecorder{
		reg:          reg,
		trace:        trace,
		maxGoroutine: DefaultGoroutineBytes,
		traceTail:    DefaultBundleTraceTail,
		capacity:     capacity,
		providers:    make(map[string]StateFunc),
	}
}

// AddState registers a named component state provider included in every
// subsequent bundle. Re-registering a name replaces the provider.
func (fr *FlightRecorder) AddState(name string, fn StateFunc) {
	if fr == nil {
		return
	}
	fr.mu.Lock()
	fr.providers[name] = fn
	fr.mu.Unlock()
}

// Capture snapshots a bundle and appends it to the ring, evicting the oldest
// when full. stages may be nil for manual captures outside the watchdog.
func (fr *FlightRecorder) Capture(reason string, stages []StageHealth) *Bundle {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	fr.seq++
	seq := fr.seq
	fns := make(map[string]StateFunc, len(fr.providers))
	for n, fn := range fr.providers {
		fns[n] = fn
	}
	fr.mu.Unlock()

	// Assemble outside the lock: providers and Registry.Snapshot may take
	// component locks, and the goroutine dump stops the world briefly.
	b := &Bundle{Seq: seq, At: time.Now(), Reason: reason, Stages: stages}
	if fr.reg != nil {
		b.Metrics = fr.reg.Snapshot()
	}
	if fr.trace != nil {
		b.Trace = fr.trace.Events(fr.traceTail)
	}
	if len(fns) > 0 {
		b.State = make(map[string]any, len(fns))
		for n, fn := range fns {
			b.State[n] = fn()
		}
	}
	b.Goroutines = goroutineDump(fr.maxGoroutine)

	// Concurrent captures finish assembling in any order: insert by Seq, so
	// the ring stays oldest-first and Last is the newest capture taken.
	fr.mu.Lock()
	i := len(fr.ring)
	for i > 0 && fr.ring[i-1].Seq > seq {
		i--
	}
	fr.ring = slices.Insert(fr.ring, i, b)
	if len(fr.ring) > fr.capacity {
		fr.ring = slices.Delete(fr.ring, 0, 1)
	}
	fr.mu.Unlock()
	return b
}

// Bundles returns the retained bundles, oldest first.
func (fr *FlightRecorder) Bundles() []*Bundle {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]*Bundle, len(fr.ring))
	copy(out, fr.ring)
	return out
}

// Last returns the most recent bundle, or nil if none has been captured.
func (fr *FlightRecorder) Last() *Bundle {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if len(fr.ring) == 0 {
		return nil
	}
	return fr.ring[len(fr.ring)-1]
}

// Len returns how many bundles are retained.
func (fr *FlightRecorder) Len() int {
	if fr == nil {
		return 0
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return len(fr.ring)
}

// goroutineDump renders the debug=2 goroutine profile (full stacks with
// states, the same text a SIGQUIT dump prints), truncated to maxBytes.
func goroutineDump(maxBytes int) string {
	p := pprof.Lookup("goroutine")
	if p == nil {
		return ""
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, 2); err != nil {
		return ""
	}
	if buf.Len() > maxBytes {
		return buf.String()[:maxBytes] + "\n... [truncated]"
	}
	return buf.String()
}
