package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// StageConfig describes one pipeline stage to the watchdog.
//
// Liveness is judged by the pair (progress, backlog): a stage is stalled only
// when it has pending work (Backlog > 0) and its progress count has not
// advanced for longer than the stall deadline. A stage with zero backlog is
// idle, never stalled — so a quiet primary (no commits) cannot false-positive
// any stage, and a stage that only advances on commit markers (journal,
// flush) cannot false-positive during heartbeat-only traffic.
type StageConfig struct {
	// Name identifies the stage in health reports and metrics
	// (stage_last_advance_seconds_<name>).
	Name string
	// Count is polled for the stage's monotonic progress count (e.g. an
	// existing stats counter).
	Count func() int64
	// Backlog returns the stage's pending work in any monotone unit (records,
	// SCN distance, queued tasks). nil means backlog is unknown: the stage is
	// reported for visibility but never judged stalled.
	Backlog func() int64
}

// StageHealth is one stage's row in the liveness table.
type StageHealth struct {
	Stage        string  `json:"stage"`
	State        string  `json:"state"` // "ok" | "idle" | "paused" | "stalled"
	Count        int64   `json:"count"`
	Backlog      int64   `json:"backlog"`
	SinceAdvance float64 `json:"since_advance_seconds"`
}

// HealthReport is the full liveness verdict served at /debug/health.
type HealthReport struct {
	Verdict string        `json:"verdict"` // "ok" | "paused" | "stalled"
	Paused  []string      `json:"paused_reasons,omitempty"`
	Stalls  int64         `json:"stalls_detected_total"`
	Stages  []StageHealth `json:"stages"`
	At      time.Time     `json:"at"`
}

// Watchdog defaults.
const (
	DefaultWatchdogInterval = 250 * time.Millisecond
	DefaultStallDeadline    = 5 * time.Second
	DefaultCaptureCooldown  = 30 * time.Second
)

// WatchdogOptions tunes stall detection.
type WatchdogOptions struct {
	// Interval between liveness evaluations (DefaultWatchdogInterval if 0).
	Interval time.Duration
	// StallDeadline is how long a stage may sit on a non-empty backlog
	// without advancing before it is declared stalled
	// (DefaultStallDeadline if 0).
	StallDeadline time.Duration
	// CaptureCooldown rate-limits flight-recorder captures: after a capture,
	// further stall verdicts within the cooldown update metrics and health
	// but do not capture new bundles (DefaultCaptureCooldown if 0).
	CaptureCooldown time.Duration
}

// Watchdog compares each registered stage's progress against its backlog and
// declares a stall when work is pending but progress is frozen past the
// deadline. Planned pauses (role transitions, restarts, quiesce) suppress
// detection; resuming resets every stage's advance clock so in-flight
// disruption is never misread as a stall. On detection it captures a
// diagnostic bundle into the attached FlightRecorder and invokes any OnStall
// callbacks (once per stall onset, rate-limited by the capture cooldown).
type Watchdog struct {
	opts     WatchdogOptions
	recorder *FlightRecorder
	stalls   *Counter
	reg      *Registry // for per-stage gauges registered at Register time

	mu       sync.Mutex
	stages   []*stageState
	paused   map[string]int // pause reason -> refcount
	onStall  []func(*Bundle)
	stalled  bool // current verdict is stalled (edge-detect for callbacks)
	lastCap  time.Time
	stop     chan struct{}
	done     chan struct{}
	running  bool
	interval time.Duration
}

type stageState struct {
	cfg       StageConfig
	lastCount int64
	lastMove  time.Time // last time count advanced or backlog was empty
}

// NewWatchdog builds a watchdog reporting through reg (stall counter +
// per-stage last-advance gauges) and capturing into recorder (may be nil:
// stalls are then detected and counted but not recorded).
func NewWatchdog(reg *Registry, recorder *FlightRecorder, opts WatchdogOptions) *Watchdog {
	if opts.Interval <= 0 {
		opts.Interval = DefaultWatchdogInterval
	}
	if opts.StallDeadline <= 0 {
		opts.StallDeadline = DefaultStallDeadline
	}
	if opts.CaptureCooldown <= 0 {
		opts.CaptureCooldown = DefaultCaptureCooldown
	}
	w := &Watchdog{
		opts:     opts,
		recorder: recorder,
		paused:   make(map[string]int),
		interval: opts.Interval,
	}
	if reg != nil {
		w.stalls = reg.Counter("standby_stall_detected_total",
			"pipeline stalls detected by the liveness watchdog")
		reg.GaugeFunc("watchdog_paused", "1 while planned-pause suppression is active",
			func() float64 {
				w.mu.Lock()
				defer w.mu.Unlock()
				if len(w.paused) > 0 {
					return 1
				}
				return 0
			})
	}
	w.reg = reg
	return w
}

// Register adds a stage. Stages registered after Start are picked up on the
// next evaluation. Registering also exports the stage's
// stage_last_advance_seconds_<name> gauge.
func (w *Watchdog) Register(cfg StageConfig) {
	if w == nil {
		return
	}
	st := &stageState{cfg: cfg, lastMove: time.Now()}
	w.mu.Lock()
	w.stages = append(w.stages, st)
	reg := w.reg
	w.mu.Unlock()
	if reg != nil {
		reg.GaugeFunc("stage_last_advance_seconds_"+cfg.Name,
			"seconds since the "+cfg.Name+" stage last made progress",
			func() float64 {
				w.mu.Lock()
				defer w.mu.Unlock()
				return time.Since(st.lastMove).Seconds()
			})
	}
}

// OnStall registers a callback invoked (from the watchdog goroutine) with the
// captured bundle at each stall onset. Callbacks must not block.
func (w *Watchdog) OnStall(fn func(*Bundle)) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.onStall = append(w.onStall, fn)
	w.mu.Unlock()
}

// Stalls returns how many stall onsets have been detected, without running an
// evaluation (unlike Health, which evaluates and may itself detect one).
func (w *Watchdog) Stalls() int64 {
	if w == nil || w.stalls == nil {
		return 0
	}
	return int64(w.stalls.Value())
}

// Recorder returns the attached flight recorder (nil if none).
func (w *Watchdog) Recorder() *FlightRecorder {
	if w == nil {
		return nil
	}
	return w.recorder
}

// Pause suppresses stall detection under the given reason until a matching
// Resume. Pauses nest per reason and across reasons (failover during a
// restart never unpauses early).
func (w *Watchdog) Pause(reason string) {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.paused[reason]++
	w.mu.Unlock()
}

// Resume releases one Pause of the given reason. When the last pause is
// released, every stage's advance clock resets: whatever happened during the
// planned disruption gets a full fresh deadline before it can be called a
// stall.
func (w *Watchdog) Resume(reason string) {
	if w == nil {
		return
	}
	now := time.Now()
	w.mu.Lock()
	if n := w.paused[reason]; n > 1 {
		w.paused[reason] = n - 1
	} else {
		delete(w.paused, reason)
	}
	if len(w.paused) == 0 {
		for _, st := range w.stages {
			st.lastMove = now
			st.lastCount = stageCount(st.cfg)
		}
		w.stalled = false
	}
	w.mu.Unlock()
}

// Start launches the evaluation goroutine. Safe to call again after Stop.
func (w *Watchdog) Start() {
	if w == nil {
		return
	}
	w.mu.Lock()
	if w.running {
		w.mu.Unlock()
		return
	}
	w.running = true
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	stop, done := w.stop, w.done
	w.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(w.interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				w.Check()
			}
		}
	}()
}

// Stop halts the evaluation goroutine and waits for it to exit. Idempotent.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.mu.Lock()
	if !w.running {
		w.mu.Unlock()
		return
	}
	w.running = false
	stop, done := w.stop, w.done
	w.mu.Unlock()
	close(stop)
	<-done
}

func stageCount(cfg StageConfig) int64 {
	if cfg.Count != nil {
		return cfg.Count()
	}
	return 0
}

// Check runs one synchronous liveness evaluation and returns the report. The
// background goroutine calls this every interval; tests and the chaos harness
// may call it directly.
func (w *Watchdog) Check() HealthReport {
	if w == nil {
		return HealthReport{Verdict: "ok", At: time.Now()}
	}
	now := time.Now()

	w.mu.Lock()
	paused := len(w.paused) > 0
	reasons := make([]string, 0, len(w.paused))
	for r := range w.paused {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	stages := make([]*stageState, len(w.stages))
	copy(stages, w.stages)
	w.mu.Unlock()

	// Evaluate outside the lock: Count/Backlog closures may take component
	// locks. Each stage's verdict is written back under the lock after.
	type verdict struct {
		health StageHealth
		moved  bool
		count  int64
	}
	verdicts := make([]verdict, len(stages))
	for i, st := range stages {
		count := stageCount(st.cfg)
		var backlog int64
		judged := st.cfg.Backlog != nil
		if judged {
			backlog = st.cfg.Backlog()
		}
		verdicts[i] = verdict{
			health: StageHealth{Stage: st.cfg.Name, Count: count, Backlog: backlog},
			// Progress, or nothing to do, both reset the stall clock.
			moved: count != st.lastCount || (judged && backlog <= 0),
			count: count,
		}
		if !judged {
			verdicts[i].health.Backlog = -1
		}
	}

	w.mu.Lock()
	anyStalled := false
	report := HealthReport{Paused: reasons, At: now}
	for i, st := range stages {
		v := &verdicts[i]
		if v.moved || paused {
			st.lastMove = now
		}
		st.lastCount = v.count
		v.health.SinceAdvance = now.Sub(st.lastMove).Seconds()
		switch {
		case paused:
			v.health.State = "paused"
		case v.health.Backlog == 0 && st.cfg.Backlog != nil:
			v.health.State = "idle"
		case st.cfg.Backlog != nil && v.health.Backlog > 0 && now.Sub(st.lastMove) > w.opts.StallDeadline:
			v.health.State = "stalled"
			anyStalled = true
		default:
			v.health.State = "ok"
		}
		report.Stages = append(report.Stages, v.health)
	}
	onset := anyStalled && !w.stalled
	w.stalled = anyStalled
	capture := onset && now.Sub(w.lastCap) >= w.opts.CaptureCooldown
	if capture {
		w.lastCap = now
	}
	callbacks := make([]func(*Bundle), len(w.onStall))
	copy(callbacks, w.onStall)
	if w.stalls != nil {
		report.Stalls = w.stalls.Value()
	}
	w.mu.Unlock()

	switch {
	case paused:
		report.Verdict = "paused"
	case anyStalled:
		report.Verdict = "stalled"
	default:
		report.Verdict = "ok"
	}

	if onset {
		if w.stalls != nil {
			w.stalls.Inc()
			report.Stalls = w.stalls.Value()
		}
		if capture {
			reason := stallReason(report)
			b := w.recorder.Capture(reason, report.Stages)
			for _, fn := range callbacks {
				fn(b)
			}
		}
	}
	return report
}

// Health runs one evaluation and returns the report; it is the entry point
// the /debug/health handler and adgtop use.
func (w *Watchdog) Health() HealthReport { return w.Check() }

func stallReason(r HealthReport) string {
	for _, s := range r.Stages {
		if s.State == "stalled" {
			return fmt.Sprintf("stage %q stalled: backlog=%d frozen for %.1fs",
				s.Stage, s.Backlog, s.SinceAdvance)
		}
	}
	return "stall detected"
}
