package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one stage of the standby redo/IMCS pipeline, in flow
// order: redo ships from the primary, the merger orders records across
// threads, the dispatcher routes change vectors to apply workers, workers
// apply and mine them, mined invalidation records land in the journal, the
// flush component drains them to SMUs, and the coordinator publishes a new
// QuerySCN. Populate is the background IMCU construction stage.
type Stage uint8

const (
	StageShip Stage = iota
	StageMerge
	StageDispatch
	StageApply
	StageMine
	StageJournal
	StageFlush
	StagePublish
	StagePopulate
	// StageTransition records role-transition milestones (terminal recovery,
	// promotion, standby rebuild) driven by the broker; the SCN is the
	// consistency point the milestone established.
	StageTransition
	numStages
)

var stageNames = [numStages]string{
	"ship", "merge", "dispatch", "apply", "mine", "journal", "flush",
	"publish", "populate", "transition",
}

// String returns the stage's short name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Stages lists every stage in pipeline order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Event is one recorded stage transition: the SCN of the redo batch (or
// commit, or published QuerySCN) and how long the stage took.
type Event struct {
	Seq   uint64        `json:"seq"`
	Stage string        `json:"stage"`
	SCN   uint64        `json:"scn"`
	Dur   time.Duration `json:"dur_ns"`
	At    time.Time     `json:"at"`
}

// traceEvent is the compact in-ring representation.
type traceEvent struct {
	seq   uint64
	scn   uint64
	durNS int64
	atNS  int64
	stage Stage
}

// PipelineTrace stamps redo batches as they flow through the pipeline: each
// Observe records a per-stage latency sample into a bounded histogram and an
// event into a bounded ring buffer (oldest events are overwritten). The
// per-record stages (ship to flush) time and observe only the SCNs Sampled
// admits; publish, populate and transition observe every event. All methods
// are nil-safe so components can carry an optional trace.
type PipelineTrace struct {
	hists [numStages]*Histogram

	// freshness, when set, receives every observation as a span segment: the
	// trace is the single funnel all pipeline stages already report through,
	// so attaching the tracer here instruments ship/merge/dispatch/apply/
	// mine/journal/flush without touching any component.
	freshness atomic.Pointer[FreshnessTracer]

	mu   sync.Mutex
	ring []traceEvent
	next int
	full bool
	seq  uint64
}

// DefaultTraceRing is the event ring capacity when the caller passes <= 0.
const DefaultTraceRing = 4096

// NewPipelineTrace builds a trace whose per-stage histograms are registered
// on reg as "pipeline_stage_<name>_seconds".
func NewPipelineTrace(reg *Registry, ringSize int) *PipelineTrace {
	if ringSize <= 0 {
		ringSize = DefaultTraceRing
	}
	t := &PipelineTrace{ring: make([]traceEvent, ringSize)}
	bounds := DurationBuckets(time.Microsecond, 10*time.Second, 4)
	for s := Stage(0); s < numStages; s++ {
		t.hists[s] = reg.Histogram(
			"pipeline_stage_"+s.String()+"_seconds",
			"latency of the "+s.String()+" pipeline stage",
			bounds)
	}
	return t
}

// SetFreshness attaches (or, with nil, detaches) a freshness tracer fed by
// every subsequent Observe.
func (t *PipelineTrace) SetFreshness(ft *FreshnessTracer) {
	if t == nil {
		return
	}
	t.freshness.Store(ft)
}

// Freshness returns the attached freshness tracer, if any.
func (t *PipelineTrace) Freshness() *FreshnessTracer {
	if t == nil {
		return nil
	}
	return t.freshness.Load()
}

// Sampled reports whether a per-record stage times the record or change
// vector at scn: only the SCNs the attached freshness tracer traces are, so
// an unsampled CV costs no clock read and no shared write. Without a tracer
// nothing is.
func (t *PipelineTrace) Sampled(scn uint64) bool {
	return t != nil && t.freshness.Load().Sampled(scn)
}

// Observe records that the batch/commit at scn spent d in stage.
func (t *PipelineTrace) Observe(stage Stage, scn uint64, d time.Duration) {
	if t == nil {
		return
	}
	t.hists[stage].ObserveDuration(d)
	now := time.Now()
	if ft := t.freshness.Load(); ft != nil {
		ft.Note(stage, scn, d, now.UnixNano())
	}
	t.mu.Lock()
	t.seq++
	t.ring[t.next] = traceEvent{
		seq: t.seq, scn: scn, durNS: int64(d), atNS: now.UnixNano(), stage: stage,
	}
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// StageCount returns how many events the stage has recorded (over the whole
// run, not just the ring).
func (t *PipelineTrace) StageCount(stage Stage) uint64 {
	if t == nil {
		return 0
	}
	return t.hists[stage].Count()
}

// StageHistogram returns the stage's latency histogram.
func (t *PipelineTrace) StageHistogram(stage Stage) *Histogram {
	if t == nil {
		return nil
	}
	return t.hists[stage]
}

// Events returns up to limit of the most recent events, oldest first
// (limit <= 0 returns everything retained).
func (t *PipelineTrace) Events(limit int) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	n := t.next
	if t.full {
		n = len(t.ring)
	}
	ordered := make([]traceEvent, 0, n)
	if t.full {
		ordered = append(ordered, t.ring[t.next:]...)
	}
	ordered = append(ordered, t.ring[:t.next]...)
	t.mu.Unlock()

	if limit > 0 && len(ordered) > limit {
		ordered = ordered[len(ordered)-limit:]
	}
	out := make([]Event, len(ordered))
	for i, e := range ordered {
		out[i] = Event{
			Seq:   e.seq,
			Stage: e.stage.String(),
			SCN:   e.scn,
			Dur:   time.Duration(e.durNS),
			At:    time.Unix(0, e.atNS),
		}
	}
	return out
}
