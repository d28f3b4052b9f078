package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded by the benchmark itself, around its calls into each
// layer; the program under test is not instrumented. They stay in memory and
// are written out once, when the run ends. A nil *tracer (the untraced run)
// makes every call below a no-op.

// span is one timed call. Spans of one generator operation share Op; Parent
// is the span that caused this one (0 at the root).
type span struct {
	ID     uint64           `json:"id"`
	Parent uint64           `json:"parent,omitempty"`
	Op     uint64           `json:"op"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	nextOp atomic.Uint64

	mu   sync.Mutex
	bufs []*spanBuf
}

// spanBuf is one goroutine's private span list, so recording takes no lock.
type spanBuf struct {
	tr    *tracer
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf registers a span list for the calling goroutine.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{tr: t}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// op allocates the identifier shared by every span of one operation.
func (b *spanBuf) op() uint64 {
	if b == nil {
		return 0
	}
	return b.tr.nextOp.Add(1)
}

// start opens a span now and returns its index in the buffer (-1 when
// untraced).
func (b *spanBuf) start(name string, parent int, op uint64) int {
	if b == nil {
		return -1
	}
	return b.startAt(name, parent, op, time.Now())
}

// startAt opens a span at a time the caller already took.
func (b *spanBuf) startAt(name string, parent int, op uint64, at time.Time) int {
	if b == nil {
		return -1
	}
	var pid uint64
	if parent >= 0 {
		pid = b.spans[parent].ID
	}
	b.spans = append(b.spans, span{
		ID: b.tr.nextID.Add(1), Parent: pid, Op: op, Name: name,
		Start: int64(at.Sub(b.tr.epoch)),
	})
	return len(b.spans) - 1
}

func (b *spanBuf) end(i int) {
	if b != nil {
		b.spans[i].End = int64(time.Since(b.tr.epoch))
	}
}

// endAt closes a span at a time the caller already took.
func (b *spanBuf) endAt(i int, at time.Time) {
	if b != nil {
		b.spans[i].End = int64(at.Sub(b.tr.epoch))
	}
}

func (b *spanBuf) attr(i int, key string, v int64) {
	if b == nil {
		return
	}
	if b.spans[i].Attrs == nil {
		b.spans[i].Attrs = make(map[string]int64, 8)
	}
	b.spans[i].Attrs[key] = v
}

// spanSummary aggregates the spans of one name. Self time is a span's
// duration minus the part its child spans cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50US   float64 `json:"p50_us"`
	P99US   float64 `json:"p99_us"`
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func summarizeSpans(spans []span) []spanSummary {
	// A child may outlive its parent (c2v_wait starts when the operation's
	// span ends), so only the part inside the parent's interval is subtracted.
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	childNS := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		if p := byID[s.Parent]; p != nil {
			childNS[s.Parent] += max(min(s.End, p.End)-max(s.Start, p.Start), 0)
		}
	}
	type agg struct {
		total, self int64
		durs        samples
	}
	byName := map[string]*agg{}
	for _, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		d := s.End - s.Start
		a.total += d
		a.self += d - childNS[s.ID]
		a.durs = append(a.durs, d)
	}
	out := make([]spanSummary, 0, len(byName))
	for name, a := range byName {
		d := a.durs.sorted()
		out = append(out, spanSummary{
			Name: name, Count: len(d),
			TotalMS: ms(float64(a.total)), SelfMS: ms(float64(a.self)),
			P50US: us(d.quantile(0.5)), P99US: us(d.quantile(0.99)),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// spanP50 returns the median duration of the named span, in nanoseconds.
func spanP50(sums []spanSummary, name string) float64 {
	for _, s := range sums {
		if s.Name == name {
			return s.P50US * 1e3
		}
	}
	return 0
}

// maxSpansWritten bounds the trace file: a 4 000 ops/s run records a few
// hundred thousand spans, all of which feed the self-time table, but only the
// first maxSpansWritten are written verbatim.
const maxSpansWritten = 20000

type traceFile struct {
	Workload     string        `json:"workload"`
	Seed         int64         `json:"seed"`
	SpansTotal   int           `json:"spans_total"`
	SpansWritten int           `json:"spans_written"`
	SelfTime     []spanSummary `json:"self_time"`
	Spans        []span        `json:"spans"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
