package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testStage is a hand-cranked stage: tests advance count and backlog
// explicitly and drive Check() synchronously.
type testStage struct {
	count   atomic.Int64
	backlog atomic.Int64
}

func (s *testStage) cfg(name string) StageConfig {
	return StageConfig{
		Name:    name,
		Count:   s.count.Load,
		Backlog: s.backlog.Load,
	}
}

func newTestWatchdog(deadline time.Duration) (*Watchdog, *FlightRecorder, *Registry) {
	reg := NewRegistry()
	fr := NewFlightRecorder(reg, nil, 4)
	w := NewWatchdog(reg, fr, WatchdogOptions{
		Interval:        time.Hour, // tests call Check directly
		StallDeadline:   deadline,
		CaptureCooldown: time.Nanosecond,
	})
	return w, fr, reg
}

func stateOf(rep HealthReport, stage string) string {
	for _, s := range rep.Stages {
		if s.Stage == stage {
			return s.State
		}
	}
	return "missing"
}

func TestWatchdogIdleNeverStalls(t *testing.T) {
	w, _, _ := newTestWatchdog(time.Millisecond)
	var st testStage
	w.Register(st.cfg("merge"))
	for i := 0; i < 3; i++ {
		time.Sleep(3 * time.Millisecond)
		rep := w.Check()
		if got := stateOf(rep, "merge"); got != "idle" {
			t.Fatalf("frozen count with zero backlog: state %q, want idle", got)
		}
		if rep.Verdict != "ok" {
			t.Fatalf("verdict %q, want ok", rep.Verdict)
		}
	}
}

func TestWatchdogBacklogGatedStall(t *testing.T) {
	w, fr, _ := newTestWatchdog(5 * time.Millisecond)
	var st testStage
	w.Register(st.cfg("apply"))

	// Working: backlog pending, count advancing — ok, never stalled.
	st.backlog.Store(10)
	for i := 0; i < 3; i++ {
		st.count.Add(1)
		if got := stateOf(w.Check(), "apply"); got != "ok" {
			t.Fatalf("advancing stage state %q, want ok", got)
		}
	}

	// Frozen with pending work: stalled once the deadline passes.
	time.Sleep(10 * time.Millisecond)
	rep := w.Check()
	if got := stateOf(rep, "apply"); got != "stalled" {
		t.Fatalf("frozen stage state %q, want stalled", got)
	}
	if rep.Verdict != "stalled" {
		t.Fatalf("verdict %q, want stalled", rep.Verdict)
	}
	if w.Stalls() != 1 {
		t.Fatalf("stalls = %d, want 1", w.Stalls())
	}
	if fr.Len() != 1 {
		t.Fatalf("bundles = %d, want 1", fr.Len())
	}
	// Still stalled: same onset, no second count or bundle.
	w.Check()
	if w.Stalls() != 1 || fr.Len() != 1 {
		t.Fatalf("sustained stall re-counted: stalls=%d bundles=%d", w.Stalls(), fr.Len())
	}

	// Progress resumes: verdict recovers, and a NEW freeze is a new onset.
	st.count.Add(1)
	if rep := w.Check(); rep.Verdict != "ok" {
		t.Fatalf("recovered verdict %q, want ok", rep.Verdict)
	}
	time.Sleep(10 * time.Millisecond)
	if rep := w.Check(); rep.Verdict != "stalled" {
		t.Fatalf("second freeze verdict %q, want stalled", rep.Verdict)
	}
	if w.Stalls() != 2 {
		t.Fatalf("stalls = %d, want 2", w.Stalls())
	}
}

func TestWatchdogPauseSuppression(t *testing.T) {
	w, _, _ := newTestWatchdog(5 * time.Millisecond)
	var st testStage
	w.Register(st.cfg("publish"))
	st.backlog.Store(3)

	w.Pause("failover")
	w.Pause("failover") // nested
	time.Sleep(10 * time.Millisecond)
	rep := w.Check()
	if rep.Verdict != "paused" || stateOf(rep, "publish") != "paused" {
		t.Fatalf("paused check: %+v", rep)
	}
	w.Resume("failover")
	time.Sleep(10 * time.Millisecond)
	if rep := w.Check(); rep.Verdict != "paused" {
		t.Fatalf("nested pause released early: %+v", rep)
	}
	w.Resume("failover")

	// Resume reset the advance clocks: the stage gets a full fresh deadline
	// even though it was frozen throughout the pause.
	if rep := w.Check(); rep.Verdict != "ok" {
		t.Fatalf("immediately after resume: %+v", rep)
	}
	time.Sleep(10 * time.Millisecond)
	if rep := w.Check(); rep.Verdict != "stalled" {
		t.Fatalf("frozen past a fresh deadline after resume: %+v", rep)
	}
}

func TestWatchdogVisibilityOnlyStage(t *testing.T) {
	w, _, _ := newTestWatchdog(time.Millisecond)
	var st testStage
	w.Register(StageConfig{Name: "mine", Count: st.count.Load}) // no Backlog
	time.Sleep(5 * time.Millisecond)
	rep := w.Check()
	if got := stateOf(rep, "mine"); got != "ok" {
		t.Fatalf("visibility-only stage state %q, want ok", got)
	}
	for _, s := range rep.Stages {
		if s.Stage == "mine" && s.Backlog != -1 {
			t.Fatalf("unjudged backlog = %d, want -1", s.Backlog)
		}
	}
}

func TestWatchdogStartStop(t *testing.T) {
	w, _, _ := newTestWatchdog(time.Hour)
	w.Start()
	w.Start() // idempotent
	w.Stop()
	w.Stop()  // idempotent
	w.Start() // restartable
	w.Stop()

	var nilW *Watchdog
	nilW.Start()
	nilW.Stop()
	nilW.Pause("x")
	nilW.Resume("x")
	if rep := nilW.Check(); rep.Verdict != "ok" {
		t.Fatalf("nil watchdog verdict %q", rep.Verdict)
	}
}

func TestFlightRecorderRingBounds(t *testing.T) {
	fr := NewFlightRecorder(nil, nil, 3)
	for i := 0; i < 10; i++ {
		fr.Capture("manual", nil)
	}
	bundles := fr.Bundles()
	if len(bundles) != 3 || fr.Len() != 3 {
		t.Fatalf("ring holds %d bundles, want 3", len(bundles))
	}
	for i, b := range bundles {
		if want := int64(8 + i); b.Seq != want {
			t.Fatalf("bundle %d seq = %d, want %d (oldest evicted first)", i, b.Seq, want)
		}
	}
	if fr.Last().Seq != 10 {
		t.Fatalf("Last().Seq = %d, want 10", fr.Last().Seq)
	}
	if fr.Last().Goroutines == "" {
		t.Fatalf("goroutine profile missing from bundle")
	}
}

func TestFlightRecorderConcurrentCapture(t *testing.T) {
	fr := NewFlightRecorder(NewRegistry(), nil, 4)
	fr.AddState("x", func() any { return map[string]int{"v": 1} })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if b := fr.Capture("concurrent", nil); b == nil {
					t.Error("Capture returned nil")
					return
				}
				fr.Bundles()
				fr.Last()
			}
		}()
	}
	wg.Wait()
	if fr.Len() != 4 {
		t.Fatalf("ring holds %d, want capacity 4", fr.Len())
	}
	if fr.Last().Seq != 80 {
		t.Fatalf("Last().Seq = %d, want 80", fr.Last().Seq)
	}
}

func TestHealthEndpoint(t *testing.T) {
	w, fr, reg := newTestWatchdog(time.Millisecond)
	var st testStage
	w.Register(st.cfg("apply"))
	h := NewHandler(reg, nil)
	h.SetWatchdog(w)

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		res := rr.Result()
		defer res.Body.Close()
		return res, rr.Body.Bytes()
	}

	res, body := get("/debug/health")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthy /debug/health status %d", res.StatusCode)
	}
	var rep HealthReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("health JSON: %v", err)
	}
	if rep.Verdict != "ok" {
		t.Fatalf("verdict %q", rep.Verdict)
	}

	// Wedge it: pending backlog, frozen count, deadline passed.
	st.backlog.Store(5)
	time.Sleep(5 * time.Millisecond)
	res, _ = get("/debug/health")
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stalled /debug/health status %d, want 503", res.StatusCode)
	}
	if fr.Len() == 0 {
		t.Fatalf("stall via endpoint did not capture a bundle")
	}

	res, body = get("/debug/flightrecorder?n=1")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flightrecorder status %d", res.StatusCode)
	}
	var doc struct {
		Bundles []Bundle `json:"bundles"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("flightrecorder JSON: %v", err)
	}
	if len(doc.Bundles) != 1 || doc.Bundles[0].Reason == "" {
		t.Fatalf("flightrecorder payload: %+v", doc)
	}
}
