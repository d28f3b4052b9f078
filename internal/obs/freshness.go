package obs

import (
	"sync"
	"time"
)

// FreshnessTracer follows sampled commits end-to-end through the standby
// pipeline: a span opens when the first stage segment for a sampled SCN is
// observed (usually ship or merge), the dispatcher marks it as a commit span
// when the record carries a commit CV (attaching the primary's origin wall
// clock from the redo frame extension), per-stage segments accumulate as the
// SCN flows through ship → merge → dispatch → apply → mine → journal → flush,
// and the span closes when a published QuerySCN covers it — the commit is now
// visible to standby queries. Two wait segments close the gaps the stage
// timers leave: shipwait, from the primary's origin clock to the log merger
// reading the record off its stream (the ship segment, the TCP receiver's
// read, lies inside it), and publishwait, from the commit's last apply-side
// activity to the start of the advancement that covered it. With merge,
// dispatch, apply, flush and publish they tile the commit-to-visible interval;
// mine and journal lie inside apply. Closing observes the commit-to-visible
// latency (origin clock to publication) and each stage's share into bounded
// histograms; the closed span lands in a waterfall ring behind
// /debug/freshness. The first standby query whose snapshot covers a closed
// span additionally records the data's first-query visibility age into
// query_freshness_seconds.
//
// Sampling is deterministic — an SCN is traced iff scn % every == 0 — so a
// validating harness can predict exactly which commits must end with a
// complete span. Spans are never leaked: a crash-restart or failover closes
// whatever is still open as explicitly truncated (see TruncateOpen).
//
// All methods are nil-safe so tracing can be disabled by simply not building
// a tracer.
type FreshnessTracer struct {
	every uint64

	mu        sync.Mutex
	open      map[uint64]*span
	done      []*span // ring of closed spans, oldest overwritten
	next      int
	full      bool
	published uint64 // last Publish target; spans at or below are closed

	opened     uint64
	completed  uint64
	truncated  uint64
	incomplete uint64 // completed commit spans missing a required stage
	dropped    uint64 // non-commit spans discarded at publication
	queried    uint64
	overflowed uint64 // spans not opened because the open set was full

	unqueried int // closed complete commit spans awaiting their first query

	c2v        *Histogram
	queryAge   *Histogram
	stageHists [freshnessSegments]*Histogram
}

// freshnessStages is the number of per-commit pipeline stages a span tracks:
// ship through publish. Populate and transition are not per-commit stages.
const freshnessStages = int(StagePublish) + 1

// A span's segments are the pipeline stages followed by the two waits.
const (
	segShipWait = freshnessStages + iota
	segPublishWait
	freshnessSegments
)

// segmentOrder lists a span's segments in the order a commit meets them.
var segmentOrder = [freshnessSegments]int{
	segShipWait, int(StageShip), int(StageMerge), int(StageDispatch), int(StageApply),
	int(StageMine), int(StageJournal), segPublishWait, int(StageFlush), int(StagePublish),
}

func segmentName(seg int) string {
	switch seg {
	case segShipWait:
		return "shipwait"
	case segPublishWait:
		return "publishwait"
	}
	return Stage(seg).String()
}

// Defaults for NewFreshnessTracer's knobs.
const (
	// DefaultFreshnessSampleEvery traces one in every 17 SCNs. The period is
	// odd because a single-row transaction takes two SCNs: with an even one
	// every commit SCN of such a workload falls on the same side of the
	// modulus and none (or all) of them is sampled.
	DefaultFreshnessSampleEvery = 17
	// DefaultFreshnessRing is the closed-span waterfall ring capacity.
	DefaultFreshnessRing = 512
	// maxOpenSpans bounds the open-span set under pathological apply stalls;
	// beyond it new spans are counted as overflowed instead of opened.
	maxOpenSpans = 4096
)

// span is one sampled commit's journey. Per-stage segments aggregate (a
// record's CVs all share its SCN, so apply/mine fire once per CV): count,
// total duration, and the latest observation time per stage.
type span struct {
	scn      uint64
	txn      uint64
	originNS int64
	firstNS  int64 // wall clock of the first observed segment
	commit   bool
	stages   [freshnessSegments]stageAgg

	// Closed-span fields.
	closedNS  int64
	state     SpanState
	truncWhy  string
	queriedNS int64
}

type stageAgg struct {
	count  uint32
	durNS  int64
	lastNS int64
}

// SpanState is a closed span's disposition.
type SpanState uint8

const (
	// SpanOpen: the commit is still flowing through the pipeline.
	SpanOpen SpanState = iota
	// SpanComplete: a published QuerySCN covered the commit.
	SpanComplete
	// SpanTruncated: the span was explicitly closed without publication
	// (crash-restart or failover) — never silently leaked.
	SpanTruncated
)

func (s SpanState) String() string {
	switch s {
	case SpanOpen:
		return "open"
	case SpanComplete:
		return "complete"
	case SpanTruncated:
		return "truncated"
	}
	return "unknown"
}

// requiredStages are the stages every complete commit span must have observed
// at least once for the span to be gap-free. Ship is excluded: the in-process
// transport hands records over without a ship hop.
var requiredStages = []Stage{StageMerge, StageDispatch, StageApply, StageMine, StageFlush}

// NewFreshnessTracer builds a tracer sampling every Nth SCN (every <= 0 uses
// DefaultFreshnessSampleEvery) with a closed-span ring of the given capacity
// (<= 0 uses DefaultFreshnessRing), registering its histograms and counters
// on reg.
func NewFreshnessTracer(reg *Registry, every, ring int) *FreshnessTracer {
	if every <= 0 {
		every = DefaultFreshnessSampleEvery
	}
	if ring <= 0 {
		ring = DefaultFreshnessRing
	}
	t := &FreshnessTracer{
		every: uint64(every),
		open:  make(map[uint64]*span),
		done:  make([]*span, ring),
	}
	wide := DurationBuckets(50*time.Microsecond, 60*time.Second, 4)
	t.c2v = reg.Histogram("freshness_commit_to_visible_seconds",
		"primary commit wall clock to covering QuerySCN publication, sampled commits", wide)
	t.queryAge = reg.Histogram("query_freshness_seconds",
		"commit wall clock to the first standby query whose snapshot covered it", wide)
	stage := DurationBuckets(time.Microsecond, 10*time.Second, 4)
	for s := range t.stageHists {
		t.stageHists[s] = reg.Histogram(
			"freshness_stage_"+segmentName(s)+"_seconds",
			"per-span time attributed to the "+segmentName(s)+" segment, sampled commits", stage)
	}
	reg.GaugeFunc("freshness_open_spans", "sampled commits currently in flight",
		func() float64 { st := t.Stats(); return float64(st.Open) })
	reg.CounterFunc("freshness_spans_completed_total", "sampled commit spans closed by publication",
		func() float64 { return float64(t.Stats().Completed) })
	reg.CounterFunc("freshness_spans_truncated_total", "spans explicitly truncated at restart or failover",
		func() float64 { return float64(t.Stats().Truncated) })
	reg.CounterFunc("freshness_spans_incomplete_total", "commit spans that closed missing a required stage",
		func() float64 { return float64(t.Stats().Incomplete) })
	return t
}

// SampleEvery returns the deterministic sampling period.
func (t *FreshnessTracer) SampleEvery() uint64 {
	if t == nil {
		return 0
	}
	return t.every
}

// Sampled reports whether the SCN is traced under the deterministic policy.
func (t *FreshnessTracer) Sampled(scn uint64) bool {
	return t != nil && scn != 0 && scn%t.every == 0
}

// Note attaches one stage segment to the SCN's span, opening it on first
// contact. Publish/populate/transition observations are ignored: the publish
// segment is synthesized at close (a publication covers many SCNs), and the
// other two are not per-commit stages. nowNS is the wall clock at the
// segment's end. Called from PipelineTrace.Observe with the clock read it
// already took, so every instrumentation point feeds the tracer with no extra
// plumbing.
func (t *FreshnessTracer) Note(stage Stage, scn uint64, d time.Duration, nowNS int64) {
	if t == nil || stage >= StagePublish || !t.Sampled(scn) {
		return
	}
	t.note(int(stage), scn, d, nowNS)
}

// Shipped attaches the ship-wait segment: the record stamped originNS by the
// primary has reached the standby's log merger. A record without an origin
// stamp has no such segment.
func (t *FreshnessTracer) Shipped(scn uint64, originNS int64) {
	if t == nil || originNS == 0 || !t.Sampled(scn) {
		return
	}
	now := time.Now().UnixNano()
	t.note(segShipWait, scn, time.Duration(max(0, now-originNS)), now)
}

func (t *FreshnessTracer) note(seg int, scn uint64, d time.Duration, now int64) {
	t.mu.Lock()
	sp := t.locked(scn, now)
	if sp != nil {
		agg := &sp.stages[seg]
		agg.count++
		agg.durNS += int64(d)
		agg.lastNS = now
	}
	t.mu.Unlock()
}

// Commit marks the SCN's span as a commit span carrying the primary's origin
// wall clock (0 when the redo frame had no origin extension; the span then
// measures from first contact). The dispatcher calls this for every commit CV
// it routes.
func (t *FreshnessTracer) Commit(scn, txn uint64, originNS int64) {
	if t == nil || !t.Sampled(scn) {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	sp := t.locked(scn, now)
	if sp != nil {
		sp.commit = true
		sp.txn = txn
		sp.originNS = originNS
	}
	t.mu.Unlock()
}

// locked returns the open span for scn, creating it if the SCN is still
// unpublished. Caller holds t.mu.
func (t *FreshnessTracer) locked(scn uint64, nowNS int64) *span {
	if scn <= t.published {
		return nil // late observation for an already-covered SCN
	}
	if sp, ok := t.open[scn]; ok {
		return sp
	}
	if len(t.open) >= maxOpenSpans {
		t.overflowed++
		return nil
	}
	sp := &span{scn: scn, firstNS: nowNS}
	t.open[scn] = sp
	t.opened++
	return sp
}

// Publish closes every span the newly published QuerySCN covers. Commit spans
// complete: the publish segment is synthesized (last stage activity to now),
// commit-to-visible and per-stage latencies are observed, and the span lands
// in the waterfall ring. Non-commit spans (sampled data/heartbeat records)
// are dropped. The caller must guarantee all pipeline work for covered SCNs
// finished first — the recovery coordinator's advancement provides exactly
// that ordering (flush drains before the QuerySCN stores). startNS is the wall
// clock at which that advancement began: what a span did before it (everything
// but its flush) to startNS is its publish-wait segment; 0 omits the segment.
func (t *FreshnessTracer) Publish(queryscn uint64, startNS int64) {
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	if queryscn > t.published {
		t.published = queryscn
	}
	for scn, sp := range t.open {
		if scn > t.published {
			continue
		}
		delete(t.open, scn)
		if !sp.commit {
			t.dropped++
			continue
		}
		// Only the flush runs inside the covering advancement.
		last := sp.firstNS
		for s := range sp.stages {
			if s != int(StageFlush) && sp.stages[s].lastNS > last {
				last = sp.stages[s].lastNS
			}
		}
		if startNS > last {
			sp.stages[segPublishWait] = stageAgg{count: 1, durNS: startNS - last, lastNS: startNS}
			last = startNS
		}
		last = max(last, sp.stages[StageFlush].lastNS)
		pub := &sp.stages[StagePublish]
		pub.count++
		pub.durNS = now - last
		pub.lastNS = now
		sp.closedNS = now
		sp.state = SpanComplete
		t.completed++
		origin := sp.originNS
		if origin == 0 {
			origin = sp.firstNS
		}
		t.c2v.Observe(float64(now-origin) / 1e9)
		for s := range sp.stages {
			if sp.stages[s].count > 0 {
				t.stageHists[s].Observe(float64(sp.stages[s].durNS) / 1e9)
			}
		}
		if !sp.gapFree() {
			t.incomplete++
		}
		t.unqueried++
		t.ring(sp)
	}
	t.mu.Unlock()
}

// gapFree reports whether every required stage observed at least one segment.
func (sp *span) gapFree() bool {
	for _, s := range requiredStages {
		if sp.stages[s].count == 0 {
			return false
		}
	}
	return true
}

// ring appends a closed span to the waterfall ring. Caller holds t.mu.
func (t *FreshnessTracer) ring(sp *span) {
	t.done[t.next] = sp
	t.next++
	if t.next == len(t.done) {
		t.next = 0
		t.full = true
	}
}

// TruncateOpen closes every open span as explicitly truncated, recording why
// ("restart", "failover"). A truncated commit whose redo is replayed after a
// restart opens a fresh span and completes normally; one whose redo was
// already applied below the resume point becomes visible without
// republication, which the truncation records. Either way nothing leaks.
func (t *FreshnessTracer) TruncateOpen(reason string) {
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	for scn, sp := range t.open {
		delete(t.open, scn)
		sp.closedNS = now
		sp.state = SpanTruncated
		sp.truncWhy = reason
		t.truncated++
		t.ring(sp)
	}
	t.mu.Unlock()
}

// ObserveQuery records the first-query visibility age for every closed
// complete commit span the query's snapshot covers and that no earlier query
// touched: how stale the freshest sampled commit already was when an analytic
// query first read it. Hooked from the standby's query recording path.
func (t *FreshnessTracer) ObserveQuery(snapSCN uint64, atNS int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.unqueried > 0 {
		for _, sp := range t.done {
			if sp == nil || sp.state != SpanComplete || sp.queriedNS != 0 || sp.scn > snapSCN {
				continue
			}
			sp.queriedNS = atNS
			t.queried++
			t.unqueried--
			origin := sp.originNS
			if origin == 0 {
				origin = sp.firstNS
			}
			if atNS > origin {
				t.queryAge.Observe(float64(atNS-origin) / 1e9)
			}
			if t.unqueried == 0 {
				break
			}
		}
		// Spans evicted from the ring before their first query would pin the
		// counter high and force full scans forever; resynchronize it.
		if t.unqueried > 0 {
			n := 0
			for _, sp := range t.done {
				if sp != nil && sp.state == SpanComplete && sp.queriedNS == 0 {
					n++
				}
			}
			t.unqueried = n
		}
	}
	t.mu.Unlock()
}

// FreshnessStats are the tracer's lifecycle counters. Open spans are in
// flight; every other disposition is terminal. OpenCommits counts open spans
// already marked as commits — after the standby has caught up and published
// past them, any remaining one would be a leak.
type FreshnessStats struct {
	SampleEvery uint64 `json:"sample_every"`
	Open        int    `json:"open"`
	OpenCommits int    `json:"open_commits"`
	Opened      uint64 `json:"opened"`
	Completed   uint64 `json:"completed"`
	Truncated   uint64 `json:"truncated"`
	Incomplete  uint64 `json:"incomplete"`
	Dropped     uint64 `json:"dropped_non_commit"`
	Queried     uint64 `json:"queried"`
	Overflowed  uint64 `json:"overflowed"`
	Published   uint64 `json:"published_scn"`
}

// Stats returns the tracer's lifecycle counters.
func (t *FreshnessTracer) Stats() FreshnessStats {
	if t == nil {
		return FreshnessStats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := FreshnessStats{
		SampleEvery: t.every,
		Open:        len(t.open),
		Opened:      t.opened,
		Completed:   t.completed,
		Truncated:   t.truncated,
		Incomplete:  t.incomplete,
		Dropped:     t.dropped,
		Queried:     t.queried,
		Overflowed:  t.overflowed,
		Published:   t.published,
	}
	for _, sp := range t.open {
		if sp.commit {
			st.OpenCommits++
		}
	}
	return st
}

// OpenCommitsAtOrBelow counts open commit spans with SCN <= bound: commits a
// publication at bound should have closed. The chaos oracle asserts this is
// zero once the standby has caught up.
func (t *FreshnessTracer) OpenCommitsAtOrBelow(bound uint64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for scn, sp := range t.open {
		if sp.commit && scn <= bound {
			n++
		}
	}
	return n
}

// SegmentJSON is one stage's aggregate within a span waterfall.
type SegmentJSON struct {
	Stage  string        `json:"stage"`
	Count  uint32        `json:"count"`
	Dur    time.Duration `json:"dur_ns"`
	LastAt time.Time     `json:"last_at"`
}

// SpanJSON is one closed (or in-flight) span as served on /debug/freshness.
type SpanJSON struct {
	SCN             uint64        `json:"scn"`
	Txn             uint64        `json:"txn,omitempty"`
	State           string        `json:"state"`
	Commit          bool          `json:"commit"`
	Origin          *time.Time    `json:"origin,omitempty"`
	ClosedAt        *time.Time    `json:"closed_at,omitempty"`
	CommitToVisible time.Duration `json:"commit_to_visible_ns,omitempty"`
	TruncatedWhy    string        `json:"truncated_why,omitempty"`
	QueriedAt       *time.Time    `json:"first_query_at,omitempty"`
	// MissingStages names the required pipeline stages a complete span closed
	// without — the spans FreshnessStats.Incomplete counts.
	MissingStages []string      `json:"missing_stages,omitempty"`
	Segments      []SegmentJSON `json:"segments"`
}

func (sp *span) json() SpanJSON {
	out := SpanJSON{
		SCN:          sp.scn,
		Txn:          sp.txn,
		State:        sp.state.String(),
		Commit:       sp.commit,
		TruncatedWhy: sp.truncWhy,
	}
	if sp.originNS != 0 {
		at := time.Unix(0, sp.originNS)
		out.Origin = &at
	}
	if sp.closedNS != 0 {
		at := time.Unix(0, sp.closedNS)
		out.ClosedAt = &at
		origin := sp.originNS
		if origin == 0 {
			origin = sp.firstNS
		}
		if sp.state == SpanComplete && sp.closedNS > origin {
			out.CommitToVisible = time.Duration(sp.closedNS - origin)
		}
	}
	if sp.queriedNS != 0 {
		at := time.Unix(0, sp.queriedNS)
		out.QueriedAt = &at
	}
	if sp.state == SpanComplete {
		for _, s := range requiredStages {
			if sp.stages[s].count == 0 {
				out.MissingStages = append(out.MissingStages, s.String())
			}
		}
	}
	for _, s := range segmentOrder {
		if sp.stages[s].count == 0 {
			continue
		}
		out.Segments = append(out.Segments, SegmentJSON{
			Stage:  segmentName(s),
			Count:  sp.stages[s].count,
			Dur:    time.Duration(sp.stages[s].durNS),
			LastAt: time.Unix(0, sp.stages[s].lastNS),
		})
	}
	return out
}

// Waterfalls returns up to limit of the most recently closed spans, oldest
// first (limit <= 0 returns everything retained).
func (t *FreshnessTracer) Waterfalls(limit int) []SpanJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var ordered []*span
	if t.full {
		ordered = append(ordered, t.done[t.next:]...)
	}
	ordered = append(ordered, t.done[:t.next]...)
	out := make([]SpanJSON, 0, len(ordered))
	for _, sp := range ordered {
		out = append(out, sp.json())
	}
	t.mu.Unlock()
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// QuantileSummary is a histogram's count with its p50/p95/p99, in seconds.
type QuantileSummary struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_s"`
	P95   float64 `json:"p95_s"`
	P99   float64 `json:"p99_s"`
}

func summarize(h *Histogram) QuantileSummary {
	s := h.Snapshot()
	return QuantileSummary{
		Count: s.Count,
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
	}
}

// StageSummary is one stage's latency contribution across all closed spans.
type StageSummary struct {
	Stage string `json:"stage"`
	QuantileSummary
}

// FreshnessSummary is the /debug/freshness SLO block: end-to-end
// commit-to-visible quantiles, the first-query visibility age, and the
// per-stage decomposition.
type FreshnessSummary struct {
	Stats           FreshnessStats  `json:"stats"`
	CommitToVisible QuantileSummary `json:"commit_to_visible"`
	QueryAge        QuantileSummary `json:"query_age"`
	Stages          []StageSummary  `json:"stages"`
}

// Summary computes the SLO summary over everything observed so far.
func (t *FreshnessTracer) Summary() FreshnessSummary {
	if t == nil {
		return FreshnessSummary{}
	}
	out := FreshnessSummary{
		Stats:           t.Stats(),
		CommitToVisible: summarize(t.c2v),
		QueryAge:        summarize(t.queryAge),
	}
	for _, s := range segmentOrder {
		if t.stageHists[s].Count() == 0 {
			continue
		}
		out.Stages = append(out.Stages, StageSummary{
			Stage:           segmentName(s),
			QuantileSummary: summarize(t.stageHists[s]),
		})
	}
	return out
}
