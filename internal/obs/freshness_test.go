package obs

import (
	"testing"
	"time"
)

// driveSpan pushes one SCN through every required stage.
func driveSpan(t *FreshnessTracer, scn uint64) {
	for _, s := range requiredStages {
		t.Note(s, scn, 10*time.Microsecond)
	}
}

func TestFreshnessSampling(t *testing.T) {
	ft := NewFreshnessTracer(NewRegistry(), 4, 8)
	if ft.Sampled(0) {
		t.Fatal("SCN 0 must never sample")
	}
	for scn := uint64(1); scn < 20; scn++ {
		want := scn%4 == 0
		if ft.Sampled(scn) != want {
			t.Fatalf("Sampled(%d) = %v, want %v", scn, ft.Sampled(scn), want)
		}
	}
	// Unsampled SCNs never open spans.
	ft.Note(StageMerge, 3, time.Microsecond)
	ft.Commit(5, 1, 123)
	if st := ft.Stats(); st.Open != 0 {
		t.Fatalf("unsampled SCNs opened spans: %+v", st)
	}
}

func TestFreshnessSpanLifecycle(t *testing.T) {
	ft := NewFreshnessTracer(NewRegistry(), 1, 8)
	origin := time.Now().Add(-50 * time.Millisecond).UnixNano()
	driveSpan(ft, 7)
	ft.Commit(7, 42, origin)
	driveSpan(ft, 9) // a sampled non-commit record
	if st := ft.Stats(); st.Open != 2 || st.OpenCommits != 1 {
		t.Fatalf("pre-publish stats: %+v", st)
	}

	ft.Publish(9, 0)
	st := ft.Stats()
	if st.Open != 0 || st.Completed != 1 || st.Dropped != 1 || st.Incomplete != 0 {
		t.Fatalf("post-publish stats: %+v", st)
	}
	sum := ft.Summary()
	if sum.CommitToVisible.Count != 1 {
		t.Fatalf("commit-to-visible count = %d, want 1", sum.CommitToVisible.Count)
	}
	if sum.CommitToVisible.P50 < 0.050 {
		t.Fatalf("commit-to-visible p50 = %v, want >= 50ms (origin-based)", sum.CommitToVisible.P50)
	}
	wf := ft.Waterfalls(0)
	if len(wf) != 1 {
		t.Fatalf("waterfalls = %d spans, want 1 (non-commit dropped)", len(wf))
	}
	if wf[0].State != "complete" || !wf[0].Commit || wf[0].SCN != 7 || wf[0].Txn != 42 {
		t.Fatalf("waterfall span: %+v", wf[0])
	}
	// merge..flush plus the synthesized publish segment.
	if len(wf[0].Segments) != len(requiredStages)+1 {
		t.Fatalf("segments = %+v, want %d stages", wf[0].Segments, len(requiredStages)+1)
	}
	if wf[0].Segments[len(wf[0].Segments)-1].Stage != "publish" {
		t.Fatalf("last segment %q, want synthesized publish", wf[0].Segments[len(wf[0].Segments)-1].Stage)
	}
}

func TestFreshnessIncompleteSpanCounted(t *testing.T) {
	ft := NewFreshnessTracer(NewRegistry(), 1, 8)
	ft.Note(StageMerge, 5, time.Microsecond) // merge only: apply/mine/flush missing
	ft.Commit(5, 1, time.Now().UnixNano())
	ft.Publish(5, 0)
	if st := ft.Stats(); st.Incomplete != 1 || st.Completed != 1 {
		t.Fatalf("stats: %+v, want one incomplete completion", st)
	}
}

func TestFreshnessLateObservationsIgnored(t *testing.T) {
	ft := NewFreshnessTracer(NewRegistry(), 1, 8)
	ft.Publish(10, 0)
	ft.Note(StageApply, 8, time.Microsecond) // behind the published frontier
	ft.Commit(9, 1, 1)
	if st := ft.Stats(); st.Open != 0 || st.Opened != 0 {
		t.Fatalf("late observations opened spans: %+v", st)
	}
	// Publish-stage observations are synthesized, never recorded directly.
	ft.Note(StagePublish, 20, time.Microsecond)
	ft.Note(StagePopulate, 20, time.Microsecond)
	if st := ft.Stats(); st.Opened != 0 {
		t.Fatalf("publish/populate observation opened a span: %+v", st)
	}
}

func TestFreshnessTruncation(t *testing.T) {
	ft := NewFreshnessTracer(NewRegistry(), 1, 8)
	driveSpan(ft, 3)
	ft.Commit(3, 9, 1)
	ft.TruncateOpen("restart")
	st := ft.Stats()
	if st.Open != 0 || st.Truncated != 1 || st.Completed != 0 {
		t.Fatalf("post-truncate stats: %+v", st)
	}
	wf := ft.Waterfalls(0)
	if len(wf) != 1 || wf[0].State != "truncated" || wf[0].TruncatedWhy != "restart" {
		t.Fatalf("truncated waterfall: %+v", wf)
	}
	// The replayed commit opens a fresh span and completes normally.
	driveSpan(ft, 3)
	ft.Commit(3, 9, 1)
	ft.Publish(3, 0)
	if st := ft.Stats(); st.Completed != 1 {
		t.Fatalf("replayed span did not complete: %+v", st)
	}
}

func TestFreshnessFirstQueryAge(t *testing.T) {
	ft := NewFreshnessTracer(NewRegistry(), 1, 8)
	driveSpan(ft, 4)
	ft.Commit(4, 1, time.Now().Add(-time.Second).UnixNano())
	ft.Publish(4, 0)
	// A query at a snapshot below the commit does not touch it.
	ft.ObserveQuery(3, time.Now().UnixNano())
	if st := ft.Stats(); st.Queried != 0 {
		t.Fatalf("under-snapshot query counted: %+v", st)
	}
	ft.ObserveQuery(4, time.Now().UnixNano())
	st := ft.Stats()
	if st.Queried != 1 {
		t.Fatalf("first query not recorded: %+v", st)
	}
	// Only the FIRST covering query records an age.
	ft.ObserveQuery(9, time.Now().UnixNano())
	if st := ft.Stats(); st.Queried != 1 {
		t.Fatalf("second query re-counted: %+v", st)
	}
	sum := ft.Summary()
	if sum.QueryAge.Count != 1 || sum.QueryAge.P50 < 0.9 {
		t.Fatalf("query age summary: %+v, want ~1s", sum.QueryAge)
	}
}

func TestFreshnessRingWraparound(t *testing.T) {
	ft := NewFreshnessTracer(NewRegistry(), 1, 4)
	for scn := uint64(1); scn <= 10; scn++ {
		driveSpan(ft, scn)
		ft.Commit(scn, scn, 1)
		ft.Publish(scn, 0)
	}
	wf := ft.Waterfalls(0)
	if len(wf) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(wf))
	}
	for i, sp := range wf {
		if want := uint64(7 + i); sp.SCN != want {
			t.Fatalf("waterfall[%d].SCN = %d, want %d (oldest-first)", i, sp.SCN, want)
		}
	}
	if got := ft.Waterfalls(2); len(got) != 2 || got[1].SCN != 10 {
		t.Fatalf("limited waterfalls: %+v", got)
	}
}

func TestFreshnessNilSafety(t *testing.T) {
	var ft *FreshnessTracer
	ft.Note(StageApply, 1, time.Microsecond)
	ft.Commit(1, 1, 1)
	ft.Publish(1, 0)
	ft.TruncateOpen("x")
	ft.ObserveQuery(1, 1)
	if ft.Sampled(1) || ft.SampleEvery() != 0 {
		t.Fatal("nil tracer samples")
	}
	_ = ft.Stats()
	_ = ft.Summary()
	_ = ft.Waterfalls(1)
	_ = ft.OpenCommitsAtOrBelow(1)

	// And a trace with no tracer attached still works.
	tr := NewPipelineTrace(NewRegistry(), 8)
	tr.Observe(StageApply, 1, time.Microsecond)
	if tr.Freshness() != nil {
		t.Fatal("unattached trace has a tracer")
	}
}

func TestFreshnessViaPipelineTrace(t *testing.T) {
	reg := NewRegistry()
	tr := NewPipelineTrace(reg, 8)
	ft := NewFreshnessTracer(reg, 1, 8)
	tr.SetFreshness(ft)
	for _, s := range requiredStages {
		tr.Observe(s, 6, time.Microsecond)
	}
	ft.Commit(6, 2, 1)
	ft.Publish(6, 0)
	if st := ft.Stats(); st.Completed != 1 || st.Incomplete != 0 {
		t.Fatalf("trace-fed span did not complete gap-free: %+v", st)
	}
}

// TestFreshnessWaitSegments drives one commit with known waits in it: shipped
// some time after its origin stamp, applied, then left waiting for an
// advancement whose flush comes after its start. The ship-wait is origin to
// hand-over, the publish-wait is last apply-side activity to advancement
// start (the flush inside the advancement does not shorten it), both appear in
// the waterfall in the order the commit met them and in Summary().Stages.
func TestFreshnessWaitSegments(t *testing.T) {
	ft := NewFreshnessTracer(NewRegistry(), 1, 8)
	const shipWait, publishWait = 20 * time.Millisecond, 10 * time.Millisecond
	origin := time.Now().Add(-shipWait).UnixNano()
	ft.Shipped(5, origin)
	ft.Shipped(6, 0) // no origin stamp: no ship-wait, and no span opened for it
	for _, s := range []Stage{StageMerge, StageDispatch, StageApply, StageMine} {
		ft.Note(s, 5, time.Microsecond)
	}
	ft.Commit(5, 1, origin)
	time.Sleep(publishWait)
	start := time.Now().UnixNano()
	ft.Note(StageFlush, 5, time.Microsecond)
	ft.Publish(5, start)

	wf := ft.Waterfalls(0)
	if len(wf) != 1 {
		t.Fatalf("waterfalls: %+v", wf)
	}
	var order []string
	dur := map[string]time.Duration{}
	for _, seg := range wf[0].Segments {
		order = append(order, seg.Stage)
		dur[seg.Stage] = seg.Dur
	}
	want := []string{"shipwait", "merge", "dispatch", "apply", "mine", "publishwait", "flush", "publish"}
	if len(order) != len(want) {
		t.Fatalf("segments %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("segments %v, want %v", order, want)
		}
	}
	if dur["shipwait"] < shipWait || dur["shipwait"] > shipWait+publishWait {
		t.Fatalf("shipwait = %v, want about %v", dur["shipwait"], shipWait)
	}
	if dur["publishwait"] < publishWait || dur["publishwait"] > wf[0].CommitToVisible-shipWait {
		t.Fatalf("publishwait = %v, want about %v of %v", dur["publishwait"], publishWait, wf[0].CommitToVisible)
	}
	if dur["publish"] > publishWait {
		t.Fatalf("publish = %v: it must start at the flush, inside the advancement", dur["publish"])
	}
	stages := map[string]bool{}
	for _, s := range ft.Summary().Stages {
		stages[s.Stage] = true
	}
	if !stages["shipwait"] || !stages["publishwait"] {
		t.Fatalf("wait segments missing from the summary: %+v", ft.Summary().Stages)
	}
	if st := ft.Stats(); st.Opened != 1 {
		t.Fatalf("opened %d spans, want 1", st.Opened)
	}
}
