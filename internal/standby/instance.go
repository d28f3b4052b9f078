// Package standby implements the physical standby database (Oracle ADG): the
// log merger, massively parallel redo apply (recovery workers hashed by DBA),
// the recovery coordinator that establishes leapfrogging QuerySCN consistency
// points, the quiesce period synchronizing population with QuerySCN
// advancement, and the wiring of the DBIM-on-ADG components (mining, journal,
// commit table, invalidation flush) into that pipeline (paper §II.A, §III).
package standby

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"dbimadg/internal/core"
	"dbimadg/internal/imcs"
	"dbimadg/internal/obs"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
	"dbimadg/internal/service"
	"dbimadg/internal/transport"
	"dbimadg/internal/txn"
)

// Config tunes the standby instance.
type Config struct {
	// CheckpointInterval is the recovery coordinator's heartbeat: the longest
	// it goes without looking for a QuerySCN to advance to (default 2ms). It
	// does not set the advancement cadence — the coordinator advances when
	// apply tells it there is something to publish (see coordinatorLoop).
	CheckpointInterval time.Duration
	// RowsPerBlock must match the primary's block capacity.
	RowsPerBlock int

	// Population engine settings (see imcs.Config).
	BlocksPerIMCU      int
	PopulationInterval time.Duration
	RepopThreshold     float64
	TailThreshold      float64
	MemLimitBytes      int

	// HomeInstances sizes the RAC home-location map (§III.F): this instance,
	// the apply master, hosts share 0 of the column store and the fleet
	// provisions one home-share reader for each other share. Default 1: a
	// single-instance standby.
	HomeInstances int

	// MetricsAddr, when non-empty, serves the observability endpoints
	// (/metrics, /debug/stats, /debug/trace) on this address while the
	// instance runs; "127.0.0.1:0" binds an ephemeral port (see MetricsAddr()
	// for the bound address).
	MetricsAddr string
	// LagSampleInterval, when > 0, samples the derived lag gauges into
	// obs.Series (see LagSeries) at this period — the data behind the
	// paper's Fig.-11-style lag-over-time plots.
	LagSampleInterval time.Duration

	// FreshnessSampleEvery traces every Nth SCN end-to-end through the
	// freshness tracer (default obs.DefaultFreshnessSampleEvery; 1 traces
	// every commit, negative disables tracing), and only those SCNs are timed
	// in the per-record stages of the pipeline trace.
	FreshnessSampleEvery int

	// WatchdogInterval is the liveness watchdog's evaluation period (default
	// obs.DefaultWatchdogInterval). Negative disables the background
	// evaluation goroutine; /debug/health still evaluates on demand.
	WatchdogInterval time.Duration
	// WatchdogStallDeadline is how long a stage may sit on a non-empty
	// backlog without progress before it is declared stalled
	// (default obs.DefaultStallDeadline).
	WatchdogStallDeadline time.Duration
}

// Gauge names for the derived lag metrics registered on every instance's
// registry (and exported on /metrics).
const (
	// GaugeApplyLag is DispatchedSCN - AppliedWatermark: redo dispatched to
	// workers but not yet fully applied.
	GaugeApplyLag = "standby_apply_lag_scn"
	// GaugeQueryStaleness is AppliedWatermark - QuerySCN: redo applied to the
	// replica but not yet visible to queries (awaiting the next consistency
	// point).
	GaugeQueryStaleness = "standby_query_staleness_scn"
	// GaugeJournalTxns is the number of transactions resident in the IM-ADG
	// journal (anchors awaiting flush or abort).
	GaugeJournalTxns = "standby_journal_resident_txns"
	// GaugeCommitPending is the number of commit nodes buffered in the IM-ADG
	// commit table, not yet chopped into a worklink.
	GaugeCommitPending = "standby_committable_pending"
)

// masterInstance is the apply master's index in the home-location map.
const masterInstance = 0

const (
	// applyWorkers is the number of recovery workers redo apply hashes CVs
	// to by DBA; the journal's hash table is sized from it.
	applyWorkers = 4
	// commitTableParts partitions the IM-ADG commit table.
	commitTableParts = 4
	// flushBatch is the number of worklink entries a flush helper claims at a
	// time.
	flushBatch = 8
	// slowQueryThreshold is the wall time at or above which a profiled query
	// is also recorded in the slow-query log; QueryLog().SetSlowThreshold
	// changes it on a running instance.
	slowQueryThreshold = 100 * time.Millisecond
)

// Population converts the population settings into the engine's config. Every
// column store of a deployment is built from it, so a setting such as
// MemLimitBytes binds each of them; the caller adds only what is particular to
// one store (HomeFilter, Trace).
func (c Config) Population() imcs.Config {
	return imcs.Config{
		BlocksPerIMCU:  c.BlocksPerIMCU,
		Interval:       c.PopulationInterval,
		RepopThreshold: c.RepopThreshold,
		TailThreshold:  c.TailThreshold,
		MemLimitBytes:  c.MemLimitBytes,
	}
}

func (c Config) withDefaults() Config {
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 2 * time.Millisecond
	}
	if c.BlocksPerIMCU <= 0 {
		c.BlocksPerIMCU = 64
	}
	if c.HomeInstances <= 0 {
		c.HomeInstances = 1
	}
	return c
}

// Stats reports the standby's health. Snapshots are SCN-coherent:
// QuerySCN <= AppliedWatermark <= DispatchedSCN holds within any single
// Stats value, so derived lags (apply lag, query staleness) are never
// negative.
type Stats struct {
	QuerySCN         scn.SCN
	AppliedWatermark scn.SCN
	DispatchedSCN    scn.SCN
	RecordsApplied   int64
	CVsApplied       int64
	MinedRecords     int64
	FlushedRecords   int64
	CoarseInvals     int64
	QuerySCNAdvances int64
	JournalTxns      int
	CommitTablePend  int
}

// ErrArchiveWindow is Install's refusal of a source that cannot serve the redo
// the snapshot must apply next: a TCP receiver dialed above the resume point,
// or one whose mirrors already released it.
var ErrArchiveWindow = errors.New("archived-log window unavailable")

// Instance is the standby database instance performing redo apply (the SIRA
// master with RAC, §III.F).
type Instance struct {
	cfg      Config
	db       *rowstore.Database
	txns     *txn.Table
	services *service.Registry

	// stateMu guards the volatile component pointers below against Restart
	// (initVolatile rewrites them while exporter gauge functions read them).
	stateMu sync.RWMutex
	store   *imcs.Store
	engine  *imcs.Engine
	journal *core.Journal
	commits *core.CommitTable
	ddl     *core.DDLTable
	miner   *core.Miner
	flusher *core.Flusher

	querySCN atomic.Uint64
	quiesce  sync.RWMutex // the Quiesce lock (§III.A)
	// published is closed, and forgotten, by the next QuerySCN publication; nil
	// while nobody waits for one (see WaitForSCN).
	pubMu     sync.Mutex
	published chan struct{}

	// roleMask is the set of roles this instance currently serves. A standby
	// starts as RoleStandby; promotion ORs in RolePrimary so population
	// policies resolve services against the promoted node (§I: after a
	// failover the primary-only services relocate to the new primary).
	roleMask atomic.Uint32

	src            transport.Source
	workers        []*applyWorker
	workersRef     atomic.Pointer[[]*applyWorker] // published copy for gauges
	lastDispatched atomic.Uint64
	watermark      atomic.Uint64
	pendingWL      atomic.Pointer[core.Worklink]
	endOfRedo      chan struct{} // closed by the merger at end of all logs
	coordWake      chan struct{} // 1-buffered: apply's pokes to the coordinator

	sink      core.Sink // the flusher's downstream, survives initVolatile
	onPublish atomic.Pointer[func(q scn.SCN, markers []*MarkerEvent)]

	stop    chan struct{}
	wg      sync.WaitGroup
	started bool

	recordsApplied atomic.Int64
	cvsApplied     atomic.Int64
	advances       atomic.Int64

	reg       *obs.Registry
	trace     *obs.PipelineTrace
	freshness *obs.FreshnessTracer
	watchdog  *obs.Watchdog
	recorder  *obs.FlightRecorder
	// shipUpstream, when set, reports the primary's redo frontier; the ship
	// stage's backlog is upstream minus the receiver's delivery frontier.
	shipUpstream   atomic.Pointer[func() scn.SCN]
	scanStats      *scanengine.PathStats
	queryLog       *obs.QueryLog
	scanHist       map[string]*obs.Histogram // per scan path, keyed by Profile.Path()
	workerBusyHist *obs.Histogram            // per-worker busy time within parallel scans
	lagSeries      map[string]*obs.Series
	sampler        *obs.Sampler
	obsSrv         *obs.Server
	obsHandler     *obs.Handler
	debugStats     map[string]func() any // extra /debug/stats blocks, survive Restart
}

// New builds a standby instance with an empty replica database. The catalog
// is populated by replicated create-table markers as redo applies.
func New(cfg Config) *Instance {
	cfg = cfg.withDefaults()
	return build(cfg, rowstore.NewDatabase(cfg.RowsPerBlock), txn.NewTable(), service.NewRegistry())
}

// NewFrom builds a standby instance over an existing physical replica holding
// all redo at or below resume: the database, transaction table and service
// registry survive a role transition (they are the durable state), while every
// DBIM-on-ADG component starts empty. A switchover rebuilds the old primary as
// the new standby this way, without copying its data; Restart starts it.
func NewFrom(cfg Config, db *rowstore.Database, txns *txn.Table, services *service.Registry, resume scn.SCN) *Instance {
	inst := build(cfg.withDefaults(), db, txns, services)
	inst.watermark.Store(uint64(resume))
	return inst
}

func build(cfg Config, db *rowstore.Database, txns *txn.Table, services *service.Registry) *Instance {
	inst := &Instance{
		cfg:       cfg,
		db:        db,
		txns:      txns,
		services:  services,
		reg:       obs.NewRegistry(),
		scanStats: &scanengine.PathStats{},
		queryLog:  obs.NewQueryLog(obs.DefaultQueryLogSize),
	}
	inst.roleMask.Store(uint32(service.RoleStandby))
	inst.queryLog.SetSlowThreshold(slowQueryThreshold)
	inst.trace = obs.NewPipelineTrace(inst.reg, obs.DefaultTraceRing)
	if cfg.FreshnessSampleEvery >= 0 {
		// The tracer (like the trace and registry) is NOT volatile state: spans
		// survive Restart's initVolatile so a crash mid-span shows up as an
		// explicit truncation, never a silent leak.
		inst.freshness = obs.NewFreshnessTracer(inst.reg, cfg.FreshnessSampleEvery, obs.DefaultFreshnessRing)
		inst.trace.SetFreshness(inst.freshness)
	}
	inst.lagSeries = map[string]*obs.Series{
		GaugeApplyLag:       obs.NewSeries(GaugeApplyLag),
		GaugeQueryStaleness: obs.NewSeries(GaugeQueryStaleness),
		GaugeJournalTxns:    obs.NewSeries(GaugeJournalTxns),
		GaugeCommitPending:  obs.NewSeries(GaugeCommitPending),
	}
	// The watchdog, like the registry and trace, persists across Restart: a
	// crash-restart is a planned pause, not a fresh watchdog.
	inst.recorder = obs.NewFlightRecorder(inst.reg, inst.trace, obs.DefaultBundleRing)
	inst.watchdog = obs.NewWatchdog(inst.reg, inst.recorder, obs.WatchdogOptions{
		Interval:      cfg.WatchdogInterval,
		StallDeadline: cfg.WatchdogStallDeadline,
	})
	inst.recorder.AddState("standby", func() any { return inst.Stats() })
	inst.AddDebugStats("memory", func() any { return inst.Memory() })
	inst.initVolatile()
	inst.registerMetrics()
	inst.registerStages()
	return inst
}

// Install makes store, a new and empty one, live at snapshot SCN at with
// images: the one path by which Restart (and so a switchover's rebuilt
// standby) and a fleet reader bring up a column store. Its precondition is checked
// here and nowhere else: at ≤ limit, where the caller resumes; the source
// serves at+1 (from, the first SCN it still has, is at most at+1; 0 serves
// all); and a pin at at, which snaps refuses below its reclaim floor, is taken
// before any image goes in. On success the caller owns the pin: Restart
// releases it once its pipeline runs, a fleet reader's loop moves it with each
// publication and releases it at close. On a refusal — the precondition, or
// an image that overlaps another or fails validation — nothing stays pinned
// and the caller discards the store.
func Install(store *imcs.Store, snaps *rowstore.Snapshots, at scn.SCN, images []imcs.UnitImage, from, limit scn.SCN) error {
	if at > limit {
		return fmt.Errorf("standby: snapshot at SCN %d is past the resume limit %d", at, limit)
	}
	if from > at+1 {
		return fmt.Errorf("standby: source resumes at SCN %d but apply must resume at %d: %w", from, at+1, ErrArchiveWindow)
	}
	if err := snaps.Pin(at); err != nil {
		return fmt.Errorf("standby: snapshot at SCN %d: %w", at, err)
	}
	for _, img := range images {
		if err := store.RestoreUnit(img); err != nil {
			snaps.Unpin(at)
			return fmt.Errorf("standby: snapshot at SCN %d: %w", at, err)
		}
	}
	return nil
}

// ResumePoint returns the SCN from which archived redo must be available for
// the next Restart: the stopped watermark, past which Restart replays. Callers
// dialing a TCP source ahead of Restart request records from ResumePoint()+1;
// dialing higher makes Restart error (ErrArchiveWindow).
func (inst *Instance) ResumePoint() scn.SCN { return scn.SCN(inst.watermark.Load()) }

// registerStages describes the standby pipeline to the liveness watchdog.
// Each stage pairs a monotone progress count with a backlog: the watchdog
// declares a stall only when backlog is non-empty and the count is frozen
// past the deadline, so an idle primary never false-positives. The closures
// resolve current components on every evaluation and so survive Restart.
func (inst *Instance) registerStages() {
	w := inst.watchdog
	// ship: the transport receiver (including its reconnect/refetch loop).
	// Backlog is the primary's redo frontier minus the receiver's delivery
	// frontier, available once the cluster wires SetShipFrontier; sources
	// without a frontier (in-process streams) report idle.
	w.Register(obs.StageConfig{
		Name: "ship",
		Count: func() int64 {
			if rc, ok := inst.source().(interface{ RecordsReceived() int64 }); ok {
				return rc.RecordsReceived()
			}
			return 0
		},
		Backlog: func() int64 {
			fn := inst.shipUpstream.Load()
			if fn == nil {
				return 0
			}
			fr, ok := inst.source().(interface{ Frontier() scn.SCN })
			if !ok {
				return 0
			}
			if d := int64((*fn)()) - int64(fr.Frontier()); d > 0 {
				return d
			}
			return 0
		},
	})
	// merge: the log merger + dispatcher. Backlog is the SCN distance between
	// the furthest shipped redo and the dispatch frontier.
	w.Register(obs.StageConfig{
		Name:  "merge",
		Count: func() int64 { return inst.recordsApplied.Load() },
		Backlog: func() int64 {
			src := inst.source()
			if src == nil {
				return 0
			}
			var last scn.SCN
			for _, s := range src.Streams() {
				if l := s.LastSCN(); l > last {
					last = l
				}
			}
			if d := int64(last) - int64(inst.lastDispatched.Load()); d > 0 {
				return d
			}
			return 0
		},
	})
	// apply: the recovery workers (apply + mine), counted in applied CVs;
	// backlog is the summed worker queue depth.
	w.Register(obs.StageConfig{
		Name:    "apply",
		Count:   inst.cvsApplied.Load,
		Backlog: inst.applyBacklog,
	})
	// mine: visibility only — mining happens inline in apply, so the apply
	// stage already judges its liveness.
	w.Register(obs.StageConfig{
		Name:  "mine",
		Count: func() int64 { _, _, _, _, m, _ := inst.components(); return m.MinedRecords() },
	})
	// flush: the journal flusher. Backlog is the pending worklink's length
	// while it is not yet drained.
	w.Register(obs.StageConfig{
		Name:  "flush",
		Count: func() int64 { _, _, _, _, _, f := inst.components(); return f.FlushedRecords() },
		Backlog: func() int64 {
			if wl := inst.pendingWL.Load(); wl != nil && !wl.Drained() {
				return int64(wl.Len())
			}
			return 0
		},
	})
	// publish: the recovery coordinator. Backlog is the applied-but-not-yet-
	// visible SCN distance (query staleness).
	w.Register(obs.StageConfig{
		Name:  "publish",
		Count: func() int64 { return inst.advances.Load() },
		Backlog: func() int64 {
			q, wm, _ := inst.scns()
			return int64(wm - q)
		},
	})
	// populate: the IMCS population engine.
	w.Register(obs.StageConfig{
		Name: "populate",
		Count: func() int64 {
			_, e, _, _, _, _ := inst.components()
			s := e.Stats()
			return s.UnitsPopulated + s.UnitsRepopulated
		},
		Backlog: func() int64 { _, e, _, _, _, _ := inst.components(); return e.Backlog() },
	})
}

// Role returns the roles this instance currently serves (RoleStandby until a
// promotion ORs in RolePrimary).
func (inst *Instance) Role() service.Role {
	return service.Role(inst.roleMask.Load())
}

// SetRole replaces the instance's role mask. The broker calls this during
// promotion so the population policy resolves services for the new role set.
func (inst *Instance) SetRole(r service.Role) {
	inst.roleMask.Store(uint32(r))
}

// initVolatile (re)creates everything with no persistent footprint: the IMCS,
// journal, commit table, DDL table and their glue (§III.E: "DBIM-on-ADG
// components lose all their state in case of instance restart").
func (inst *Instance) initVolatile() {
	inst.stateMu.Lock()
	defer inst.stateMu.Unlock()
	inst.store = imcs.NewStore()
	inst.journal = core.NewJournal(0, applyWorkers)
	inst.commits = core.NewCommitTable(commitTableParts)
	inst.ddl = core.NewDDLTable()
	inst.miner = core.NewMiner(inst.journal, inst.commits, inst.ddl, &standbyPolicy{inst: inst})
	inst.miner.SetTrace(inst.trace)
	home := imcs.HomeMap{Instances: inst.cfg.HomeInstances}
	inst.flusher = core.NewFlusher(inst.journal, inst.store, home, masterInstance, inst.cfg.BlocksPerIMCU, inst.sink)
	inst.flusher.SetTrace(inst.trace)
	pop := inst.cfg.Population()
	pop.HomeFilter = inst.homeFilter(home)
	pop.Trace = inst.trace
	inst.engine = imcs.NewEngine(inst.store, inst.txns, &quiesceSnapshotter{inst: inst}, inst.populationTargets, pop)
}

// components reads the volatile component pointers coherently (gauge
// functions and Stats race with Restart's initVolatile otherwise).
func (inst *Instance) components() (*imcs.Store, *imcs.Engine, *core.Journal, *core.CommitTable, *core.Miner, *core.Flusher) {
	inst.stateMu.RLock()
	defer inst.stateMu.RUnlock()
	return inst.store, inst.engine, inst.journal, inst.commits, inst.miner, inst.flusher
}

// InjectJournalSkip arms the miner's mutation-testing hook: the next n
// invalidation records are dropped instead of journaled. Used only by the
// chaos harness self-test to prove the equivalence oracle detects the
// resulting stale IMCS rows. The hook does not survive Restart (the miner is
// volatile state), matching a bug that corrupts the live journal.
func (inst *Instance) InjectJournalSkip(n int64) {
	_, _, _, _, miner, _ := inst.components()
	miner.SkipJournalRecords(n)
}

// registerMetrics exposes the instance's counters and derived gauges on its
// registry. Called once from New; the derived functions resolve the current
// volatile components on every evaluation, so they survive restarts.
func (inst *Instance) registerMetrics() {
	r := inst.reg
	r.CounterFunc("standby_records_applied_total", "redo records dispatched by the log merger",
		func() float64 { return float64(inst.recordsApplied.Load()) })
	r.CounterFunc("standby_cvs_applied_total", "change vectors applied by recovery workers",
		func() float64 { return float64(inst.cvsApplied.Load()) })
	r.CounterFunc("standby_queryscn_advances_total", "QuerySCN publications by the recovery coordinator",
		func() float64 { return float64(inst.advances.Load()) })
	r.CounterFunc("standby_mined_records_total", "invalidation records mined from redo",
		func() float64 { _, _, _, _, m, _ := inst.components(); return float64(m.MinedRecords()) })
	r.CounterFunc("standby_mined_commits_total", "commit nodes created by the mining component",
		func() float64 { _, _, _, _, m, _ := inst.components(); return float64(m.MinedCommits()) })
	r.CounterFunc("standby_flushed_records_total", "invalidation records flushed to SMUs",
		func() float64 { _, _, _, _, _, f := inst.components(); return float64(f.FlushedRecords()) })
	r.CounterFunc("standby_coarse_invalidations_total", "coarse tenant invalidation fallbacks",
		func() float64 { _, _, _, _, _, f := inst.components(); return float64(f.CoarseInvalidations()) })

	r.GaugeFunc("standby_query_scn", "published QuerySCN (query consistency point)",
		func() float64 { q, _, _ := inst.scns(); return float64(q) })
	r.GaugeFunc("standby_applied_watermark_scn", "apply watermark (all redo <= this SCN applied)",
		func() float64 { _, w, _ := inst.scns(); return float64(w) })
	r.GaugeFunc("standby_dispatched_scn", "dispatch frontier (last record routed to workers)",
		func() float64 { _, _, d := inst.scns(); return float64(d) })
	r.GaugeFunc(GaugeApplyLag, "SCNs dispatched to apply workers but not yet fully applied",
		func() float64 { _, w, d := inst.scns(); return float64(d - w) })
	r.GaugeFunc(GaugeQueryStaleness, "SCNs applied to the replica but not yet query-visible",
		func() float64 { q, w, _ := inst.scns(); return float64(w - q) })
	r.GaugeFunc(GaugeJournalTxns, "transactions resident in the IM-ADG journal",
		func() float64 { _, _, j, _, _, _ := inst.components(); return float64(j.Len()) })
	r.GaugeFunc(GaugeCommitPending, "commit nodes pending in the IM-ADG commit table",
		func() float64 { _, _, _, c, _, _ := inst.components(); return float64(c.Len()) })
	r.GaugeFunc("standby_apply_queue_depth", "change vectors queued at recovery workers",
		func() float64 { return float64(inst.applyBacklog()) })

	r.GaugeFunc("imcs_population_pending", "population tasks queued or in flight",
		func() float64 { _, e, _, _, _, _ := inst.components(); return float64(e.Pending()) })
	r.CounterFunc("imcs_units_populated_total", "IMCUs populated",
		func() float64 { _, e, _, _, _, _ := inst.components(); return float64(e.Stats().UnitsPopulated) })
	r.CounterFunc("imcs_units_repopulated_total", "IMCUs repopulated",
		func() float64 { _, e, _, _, _, _ := inst.components(); return float64(e.Stats().UnitsRepopulated) })
	r.CounterFunc("imcs_units_merged_total", "repopulations that carried unchanged rows over from the old IMCU",
		func() float64 { _, e, _, _, _, _ := inst.components(); return float64(e.Stats().UnitsMerged) })
	r.CounterFunc("imcs_rows_reread_total", "row positions IMCU builds read from the row store",
		func() float64 { _, e, _, _, _, _ := inst.components(); return float64(e.Stats().RowsReread) })
	r.CounterFunc("imcs_rows_carried_total", "row positions IMCU builds carried over from the old IMCU",
		func() float64 { _, e, _, _, _, _ := inst.components(); return float64(e.Stats().RowsCarried) })
	r.CounterFunc("imcs_build_full_seconds_total", "time spent in IMCU builds that read every row",
		func() float64 { _, e, _, _, _, _ := inst.components(); return e.Stats().FullBuildTime.Seconds() })
	r.CounterFunc("imcs_build_merge_seconds_total", "time spent in IMCU builds by merge",
		func() float64 { _, e, _, _, _, _ := inst.components(); return e.Stats().MergeBuildTime.Seconds() })
	r.CounterFunc("imcs_rows_invalidated_total", "row slots invalidated in SMUs",
		func() float64 { s, _, _, _, _, _ := inst.components(); return float64(s.RowsInvalidated()) })
	r.CounterFunc("imcs_units_coarse_invalidated_total", "units coarse-invalidated (object drop or tenant fallback)",
		func() float64 { s, _, _, _, _, _ := inst.components(); return float64(s.UnitsInvalidated()) })
	r.GaugeFunc("imcs_populated_units", "IMCUs currently populated",
		func() float64 { s, _, _, _, _, _ := inst.components(); return float64(s.Stats().PopulatedUnits) })
	r.GaugeFunc("imcs_invalid_rows", "rows currently marked invalid across SMUs",
		func() float64 { s, _, _, _, _, _ := inst.components(); return float64(s.Stats().InvalidRows) })
	r.GaugeFunc("imcs_mem_bytes", "column store memory footprint, IMCUs and column deltas",
		func() float64 { s, _, _, _, _, _ := inst.components(); return float64(s.Stats().MemBytes) })
	r.GaugeFunc("imcs_delta_entries", "column values the units' deltas hold for invalid rows",
		func() float64 { s, _, _, _, _, _ := inst.components(); return float64(s.Stats().DeltaEntries) })
	r.GaugeFunc("imcs_delta_bytes", "memory footprint of the units' column deltas",
		func() float64 { s, _, _, _, _, _ := inst.components(); return float64(s.Stats().DeltaBytes) })
	r.GaugeFunc("imcs_opaque_rows", "invalid rows no delta explains: scans read them from the row store",
		func() float64 { s, _, _, _, _, _ := inst.components(); return float64(s.Stats().OpaqueRows) })
	r.CounterFunc("imcs_cols_patched_total", "column values IMCU builds took from a delta in place of a row read",
		func() float64 { _, e, _, _, _, _ := inst.components(); return float64(e.Stats().ColsPatched) })
	r.CounterFunc("imcs_cols_shared_total", "column objects IMCU builds took over unchanged from the old image",
		func() float64 { _, e, _, _, _, _ := inst.components(); return float64(e.Stats().ColsShared) })
	r.CounterFunc("rowstore_versions_reclaimed_total", "row versions freed after repopulations of the units over their blocks",
		func() float64 { _, e, _, _, _, _ := inst.components(); return float64(e.Stats().VersionsReclaimed) })
	r.CounterFunc("rowstore_snapshots_refused_total", "reads refused with ErrSnapshotTooOld: their snapshot was below the reclaim floor",
		func() float64 { return float64(rowstore.SnapshotsOf(inst.txns).Refused.Load()) })

	r.CounterFunc("scan_queries_total", "scans executed on this instance",
		func() float64 { return float64(inst.scanStats.Queries()) })
	r.CounterFunc("scan_rows_from_imcs_total", "matching rows served from the column store",
		func() float64 { return float64(inst.scanStats.RowsFromIMCS()) })
	r.CounterFunc("scan_rows_from_delta_total", "of the rows served from the column store, invalid ones patched from a unit's column delta",
		func() float64 { return float64(inst.scanStats.RowsFromDelta()) })
	r.CounterFunc("scan_rows_from_rowstore_total", "matching rows served from the row store",
		func() float64 { return float64(inst.scanStats.RowsFromRowStore()) })
	r.CounterFunc("scan_rowstore_blocks_total", "blocks latched by scans serving invalid, tail and uncovered rows from the row store",
		func() float64 { return float64(inst.scanStats.RowStoreBlocks()) })
	r.CounterFunc("scan_units_pruned_total", "IMCUs skipped via storage indexes",
		func() float64 { return float64(inst.scanStats.UnitsPruned()) })
	r.CounterFunc("scan_units_scanned_total", "IMCUs whose columns were evaluated",
		func() float64 { return float64(inst.scanStats.UnitsScanned()) })
	r.CounterFunc("scan_units_fallback_total", "populated IMCUs whose block range fell back to the row store",
		func() float64 { return float64(inst.scanStats.UnitsFallback()) })
	r.CounterFunc("scan_agg_rows_encoded_total", "aggregate folds done in encoded space (RLE/constant runs)",
		func() float64 { return float64(inst.scanStats.RowsEncoded()) })
	r.CounterFunc("scan_agg_rows_decoded_total", "aggregate folds that decoded column values",
		func() float64 { return float64(inst.scanStats.RowsDecoded()) })
	r.CounterFunc("scan_groups_total", "groups emitted by GROUP BY queries",
		func() float64 { return float64(inst.scanStats.Groups()) })
	r.CounterFunc("scan_morsels_total", "scan scheduling granules executed",
		func() float64 { return float64(inst.scanStats.Morsels()) })
	r.CounterFunc("scan_steals_total", "morsels stolen off their affinity-placed worker",
		func() float64 { return float64(inst.scanStats.Steals()) })
	r.CounterFunc("scan_queries_recorded_total", "profiled queries recorded in the query log",
		func() float64 { t, _ := inst.queryLog.Totals(); return float64(t) })
	r.CounterFunc("scan_slow_queries_total", "recorded queries at or above the slow-query threshold",
		func() float64 { _, s := inst.queryLog.Totals(); return float64(s) })

	buckets := obs.DurationBuckets(50*time.Microsecond, 10*time.Second, 4)
	inst.scanHist = map[string]*obs.Histogram{
		scanengine.PathIMCS: r.Histogram("scan_latency_imcs_seconds",
			"wall time of queries served entirely from the column store", buckets),
		scanengine.PathRowStore: r.Histogram("scan_latency_rowstore_seconds",
			"wall time of queries served entirely from the row store", buckets),
		scanengine.PathMixed: r.Histogram("scan_latency_mixed_seconds",
			"wall time of queries served from both stores", buckets),
	}
	inst.workerBusyHist = r.Histogram("scan_worker_busy_seconds",
		"per-worker busy time within one parallel scan", buckets)
}

// ScanTuning returns the scan executor tuning of a deployment: the default
// morsel granule in rows and, for queries that leave Query.Parallel unset, one
// worker per GOMAXPROCS.
func (inst *Instance) ScanTuning() (morselRows, parallel int) {
	return scanengine.DefaultMorselRows, runtime.GOMAXPROCS(0)
}

// RecordQuery feeds one finished query's profile into the instance's query
// log and the per-path scan-latency histogram. Plan-only EXPLAIN profiles
// (and nil) are ignored — they carry no actuals.
func (inst *Instance) RecordQuery(p *scanengine.Profile) {
	if p == nil || !p.Analyze {
		return
	}
	// First-query visibility age: the query's snapshot covers every sampled
	// commit published at or below it.
	inst.freshness.ObserveQuery(uint64(p.SnapSCN), time.Now().UnixNano())
	path := p.Path()
	if h := inst.scanHist[path]; h != nil {
		h.ObserveDuration(p.Wall())
	}
	for _, w := range p.Workers {
		inst.workerBusyHist.ObserveDuration(time.Duration(w.BusyNanos))
	}
	inst.queryLog.Record(obs.QueryRecord{
		SQL:       p.SQL,
		Table:     p.Table,
		WallNanos: p.WallNanos,
		Rows:      p.ResultRows,
		Path:      path,
		Profile:   p,
	})
}

// QueryLog returns the instance's recent/slow query log (backing the
// /debug/queries endpoint).
func (inst *Instance) QueryLog() *obs.QueryLog { return inst.queryLog }

func (inst *Instance) homeFilter(home imcs.HomeMap) func(rowstore.ObjID, rowstore.BlockNo) bool {
	if inst.cfg.HomeInstances <= 1 {
		return nil
	}
	return func(obj rowstore.ObjID, start rowstore.BlockNo) bool {
		return home.HomeOf(obj, start) == masterInstance
	}
}

// SetFlushSink attaches (or, with nil, detaches) the flusher's downstream (see
// core.Sink), before or after Start. Unlike the flusher itself the attachment
// is not volatile: Restart's initVolatile hands it to the rebuilt flusher, so
// readers keep receiving invalidations across a crash-restart (the coarse
// fallback flows through the same sink).
func (inst *Instance) SetFlushSink(sink core.Sink) {
	inst.stateMu.Lock()
	inst.sink = sink
	f := inst.flusher
	inst.stateMu.Unlock()
	f.SetSink(sink)
}

// SetPublishHook registers (or, with nil, clears) a callback invoked after
// each QuerySCN publication with the new QuerySCN and the DDL markers applied
// at that consistency point. It runs on the recovery coordinator's goroutine
// while the quiesce lock is still held, after all invalidation flush for the
// advancement and the sink's barrier — so a hook that enqueues FIFO behind the
// sink's deliveries orders every invalidation before the publication that
// makes it current. The fleet uses it to drive its readers' local recovery
// coordinators (§III.F). f must not block.
func (inst *Instance) SetPublishHook(f func(q scn.SCN, markers []*MarkerEvent)) {
	if f == nil {
		inst.onPublish.Store(nil)
		return
	}
	inst.onPublish.Store(&f)
}

// HomeMap returns the home-location map this instance is share 0 of.
func (inst *Instance) HomeMap() imcs.HomeMap {
	return imcs.HomeMap{Instances: inst.cfg.HomeInstances}
}

// PopulationConfig returns the population settings every column store over
// this instance's replica is built from (see Config.Population).
func (inst *Instance) PopulationConfig() imcs.Config { return inst.cfg.Population() }

// DB returns the replica database.
func (inst *Instance) DB() *rowstore.Database { return inst.db }

// Txns returns the standby transaction table (maintained by redo apply).
func (inst *Instance) Txns() *txn.Table { return inst.txns }

// Store returns this instance's In-Memory Column Store.
func (inst *Instance) Store() *imcs.Store {
	s, _, _, _, _, _ := inst.components()
	return s
}

// Services returns the standby's service registry.
func (inst *Instance) Services() *service.Registry { return inst.services }

// Engine returns the population engine (for tests and observability).
func (inst *Instance) Engine() *imcs.Engine {
	_, e, _, _, _, _ := inst.components()
	return e
}

// Obs returns the instance's metric registry.
func (inst *Instance) Obs() *obs.Registry { return inst.reg }

// Trace returns the instance's pipeline trace.
func (inst *Instance) Trace() *obs.PipelineTrace { return inst.trace }

// Freshness returns the commit-to-visible freshness tracer (nil when
// Config.FreshnessSampleEvery is negative).
func (inst *Instance) Freshness() *obs.FreshnessTracer { return inst.freshness }

// ScanStats returns the accumulator the instance's scan executors report
// into; attach it as Executor.Obs when building sessions.
func (inst *Instance) ScanStats() *scanengine.PathStats { return inst.scanStats }

// LagSeries returns the sampled lag time series keyed by gauge name (empty
// series unless Config.LagSampleInterval is set).
func (inst *Instance) LagSeries() map[string]*obs.Series { return inst.lagSeries }

// MetricsAddr returns the bound observability listen address, or "" when the
// exporter is not running.
func (inst *Instance) MetricsAddr() string {
	inst.stateMu.RLock()
	defer inst.stateMu.RUnlock()
	if inst.obsSrv == nil {
		return ""
	}
	return inst.obsSrv.Addr()
}

// QuerySCN returns the published consistency point: the CR snapshot for
// queries on the standby.
func (inst *Instance) QuerySCN() scn.SCN { return scn.SCN(inst.querySCN.Load()) }

// WithQuiesceShared runs fn while holding the quiesce lock shared: no QuerySCN
// advancement — and therefore no invalidation flush, which only runs inside an
// advancement — is in progress while fn executes, and the published QuerySCN
// is stable. The fleet layer uses it to enlist a new reader into the
// invalidation feed at a well-defined point between advancements. fn must
// not block on the apply pipeline (deadlock: the coordinator needs this lock).
func (inst *Instance) WithQuiesceShared(fn func()) {
	inst.quiesce.RLock()
	defer inst.quiesce.RUnlock()
	fn()
}

// source reads the current redo source coherently (watchdog stage closures
// race with Restart's reattachment otherwise).
func (inst *Instance) source() transport.Source {
	inst.stateMu.RLock()
	defer inst.stateMu.RUnlock()
	return inst.src
}

func (inst *Instance) setSource(src transport.Source) {
	inst.stateMu.Lock()
	inst.src = src
	inst.stateMu.Unlock()
}

// Attach connects the redo source. Must be called before Start. Sources that
// support pipeline tracing (the TCP Receiver) get the instance's trace
// attached so ship-stage latency is observed; sources with debug state are
// registered with the flight recorder so stall bundles carry the transport's
// connection, reconnect and refetch state.
func (inst *Instance) Attach(src transport.Source) {
	inst.setSource(src)
	if t, ok := src.(interface{ SetTrace(*obs.PipelineTrace) }); ok {
		t.SetTrace(inst.trace)
	}
	if rc, ok := src.(interface{ Reconnects() int64 }); ok {
		inst.reg.CounterFunc("transport_reconnects_total",
			"shipping connections redialled after a drop",
			func() float64 { return float64(rc.Reconnects()) })
	}
	if ds, ok := src.(interface{ DebugState() any }); ok {
		inst.recorder.AddState("transport", ds.DebugState)
	}
}

// SetShipFrontier wires the upstream (primary) redo frontier used to compute
// the ship stage's backlog; nil detaches it (ship reports idle).
func (inst *Instance) SetShipFrontier(fn func() scn.SCN) {
	if fn == nil {
		inst.shipUpstream.Store(nil)
		return
	}
	inst.shipUpstream.Store(&fn)
}

// Watchdog returns the instance's pipeline liveness watchdog.
func (inst *Instance) Watchdog() *obs.Watchdog { return inst.watchdog }

// FlightRecorder returns the stall-bundle recorder backing
// /debug/flightrecorder.
func (inst *Instance) FlightRecorder() *obs.FlightRecorder { return inst.recorder }

// Start launches redo apply, the recovery coordinator, population, and (when
// configured) the observability exporter and lag sampler.
func (inst *Instance) Start() {
	if inst.started {
		panic("standby: already started")
	}
	if inst.src == nil {
		panic("standby: no redo source attached")
	}
	inst.started = true
	inst.stop = make(chan struct{})
	inst.endOfRedo = make(chan struct{})
	inst.coordWake = make(chan struct{}, 1)
	inst.workers = make([]*applyWorker, applyWorkers)
	for i := range inst.workers {
		w := &applyWorker{id: i, ch: make(chan applyTask, 1024)}
		inst.workers[i] = w
		inst.wg.Add(1)
		go inst.workerLoop(w)
	}
	inst.workersRef.Store(&inst.workers)
	inst.wg.Add(2)
	go inst.mergerLoop()
	go inst.coordinatorLoop()
	inst.engine.Start()
	if inst.cfg.WatchdogInterval >= 0 {
		inst.watchdog.Start()
	}
	inst.startObservability()
}

// startObservability brings up the HTTP exporter and the lag sampler per the
// instance configuration. Failures to bind are silent (observability is
// best-effort and must never take down apply); MetricsAddr() returns "" then.
func (inst *Instance) startObservability() {
	if inst.cfg.LagSampleInterval > 0 {
		sinks := make(map[string]func(float64), len(inst.lagSeries))
		for name, series := range inst.lagSeries {
			sinks[name] = series.Sample
		}
		inst.sampler = obs.NewSampler(inst.reg, inst.cfg.LagSampleInterval, sinks)
		inst.sampler.Start()
	}
	if inst.cfg.MetricsAddr == "" {
		return
	}
	h := obs.NewHandler(inst.reg, inst.trace)
	h.SetQueryLog(inst.queryLog)
	h.SetFreshness(inst.freshness)
	h.SetWatchdog(inst.watchdog)
	h.AddStats("standby", func() any { return inst.Stats() })
	h.AddStats("imcs", func() any { s, _, _, _, _, _ := inst.components(); return s.Stats() })
	h.AddStats("population", func() any { _, e, _, _, _, _ := inst.components(); return e.Stats() })
	inst.stateMu.Lock()
	for name, fn := range inst.debugStats {
		h.AddStats(name, fn)
	}
	inst.obsHandler = h
	inst.stateMu.Unlock()
	srv, err := obs.Serve(inst.cfg.MetricsAddr, h)
	if err != nil {
		return
	}
	inst.stateMu.Lock()
	inst.obsSrv = srv
	inst.stateMu.Unlock()
}

// AddDebugStats registers (or replaces) a named block in the instance's
// /debug/stats document. Safe before or after Start; registrations survive
// Restart (the rebuilt handler replays them). The cluster layer uses this to
// expose the reader-fleet table next to the standby's own pipeline stats.
func (inst *Instance) AddDebugStats(name string, fn func() any) {
	inst.stateMu.Lock()
	if inst.debugStats == nil {
		inst.debugStats = make(map[string]func() any)
	}
	inst.debugStats[name] = fn
	h := inst.obsHandler
	inst.stateMu.Unlock()
	if h != nil {
		h.AddStats(name, fn)
	}
}

// Stop halts the pipeline and returns the applied watermark, from which apply
// can resume.
func (inst *Instance) Stop() scn.SCN {
	if !inst.started {
		return scn.SCN(inst.watermark.Load())
	}
	inst.started = false
	// Stop the watchdog first: a pipeline being torn down must not be judged.
	inst.watchdog.Stop()
	close(inst.stop)
	inst.wg.Wait()
	inst.engine.Stop()
	if inst.sampler != nil {
		inst.sampler.Stop()
		inst.sampler = nil
	}
	inst.stateMu.Lock()
	srv := inst.obsSrv
	inst.obsSrv = nil
	inst.obsHandler = nil
	inst.stateMu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
	return scn.SCN(inst.watermark.Load())
}

// Restart simulates a standby instance restart (§III.E): apply stops, all
// volatile DBIM-on-ADG state (IMCS, journal, commit table, DDL table) is
// reset, and recovery resumes against the surviving physical replica (the
// applied blocks and transaction table, durable in the real system): load,
// then redo. The column store goes live through Install, empty at the
// watermark, and repopulates from the row store as the paper's does (§III.A);
// apply replays the archived redo from src past the watermark. A switchover
// starts its rebuilt standby the same way. Restart errors, instead of silently
// serving a stale store, when Install refuses the empty snapshot: a TCP
// receiver dialed above the resume point (ErrArchiveWindow).
func (inst *Instance) Restart(src transport.Source) error {
	if src == nil {
		return fmt.Errorf("standby: restart without a redo source")
	}
	// A restart is a planned disruption: suppress stall detection until the
	// pipeline is back up, then give every stage a fresh deadline.
	inst.watchdog.Pause("restart")
	defer inst.watchdog.Resume("restart")
	watermark := inst.Stop()
	// In-process sources serve the whole archived log; a TCP receiver only the
	// records from the SCN it dialed at.
	from := scn.SCN(0)
	if p, ok := src.(interface{ ResumeSCN() scn.SCN }); ok {
		from = p.ResumeSCN()
	}
	// Crash semantics for in-flight freshness spans: whatever the pipeline
	// still held is explicitly truncated. Replayed records open fresh spans
	// and complete normally.
	inst.freshness.TruncateOpen("restart")
	snaps := rowstore.SnapshotsOf(inst.txns)
	inst.initVolatile()
	if err := Install(inst.Store(), snaps, watermark, nil, from, watermark); err != nil {
		return err
	}
	defer snaps.Unpin(watermark)
	inst.querySCN.Store(uint64(watermark))
	inst.lastDispatched.Store(uint64(watermark))
	// Full reattachment: the replacement source gets the trace and replaces
	// the flight recorder's transport state provider.
	inst.Attach(src)
	inst.Start()
	return nil
}

// scns returns a coherent (QuerySCN, watermark, dispatch frontier) triple
// with q <= w <= d. All three counters are monotone and advance in reverse
// pipeline order (a record is dispatched before it is applied, and applied
// before it is published), so loading the most-downstream value first and
// clamping upward yields a snapshot in which each lag difference is >= 0 —
// the documented guarantee behind Stats and the lag gauges: the applied
// watermark never exceeds the dispatch frontier, and the QuerySCN never
// exceeds the watermark.
func (inst *Instance) scns() (q, w, d scn.SCN) {
	q = scn.SCN(inst.querySCN.Load())
	w = scn.SCN(inst.watermark.Load())
	d = scn.SCN(inst.lastDispatched.Load())
	if w < q {
		w = q
	}
	if d < w {
		d = w
	}
	return q, w, d
}

// Stats returns a snapshot of the standby's counters. The three SCN fields
// are mutually coherent: QuerySCN <= AppliedWatermark <= DispatchedSCN always
// holds within one snapshot (see scns).
func (inst *Instance) Stats() Stats {
	q, w, d := inst.scns()
	_, _, journal, commits, miner, flusher := inst.components()
	return Stats{
		QuerySCN:         q,
		AppliedWatermark: w,
		DispatchedSCN:    d,
		RecordsApplied:   inst.recordsApplied.Load(),
		CVsApplied:       inst.cvsApplied.Load(),
		MinedRecords:     miner.MinedRecords(),
		FlushedRecords:   flusher.FlushedRecords(),
		CoarseInvals:     flusher.CoarseInvalidations(),
		QuerySCNAdvances: inst.advances.Load(),
		JournalTxns:      journal.Len(),
		CommitTablePend:  commits.Len(),
	}
}

// Memory is the standby's memory waterfall, the /debug/stats "memory" block:
// what its structures hold (nothing walks the heap). Images and version structs
// are the row store's, counted by a walk of its chains when the block is read
// and split at the chain heads into live and superseded (which repopulations
// reclaim); the other components are tallies their structures keep. The mirror is the
// TCP receiver's undispatched backlog, without the images versions share.
// Total sums the bytes; HeapAlloc is the process's heap in use beside it.
type Memory struct {
	ImagesLive         int64   `json:"images_live_bytes"`
	ImagesSuperseded   int64   `json:"images_superseded_bytes"`
	Versions           int64   `json:"versions"`
	SupersededVersions int64   `json:"superseded_versions"`
	VersionStructs     int64   `json:"version_structs_bytes"`
	MirrorRecords      int64   `json:"mirror_records"`
	Mirror             int64   `json:"mirror_bytes"`
	IMCUs              int64   `json:"imcus_bytes"` // columns and dictionaries
	Deltas             int64   `json:"deltas_bytes"`
	Journal            int64   `json:"journal_bytes"`
	CommitTable        int64   `json:"commit_table_bytes"`
	Total              int64   `json:"total_bytes"`
	HeapAlloc          int64   `json:"heap_alloc_bytes"`
	ReclaimFloor       scn.SCN `json:"reclaim_floor_scn"` // reads below it fail: rowstore.ErrSnapshotTooOld
}

// Memory returns the memory waterfall.
func (inst *Instance) Memory() Memory {
	store, _, journal, commits, _, _ := inst.components()
	fp, st := inst.db.Footprint(), store.Stats()
	m := Memory{
		ImagesLive: fp.LiveBytes, ImagesSuperseded: fp.SupersededBytes,
		Versions: fp.Versions, SupersededVersions: fp.Superseded, VersionStructs: fp.VersionBytes(),
		IMCUs: int64(st.MemBytes - st.DeltaBytes), Deltas: int64(st.DeltaBytes),
		Journal:      journal.MemBytes(),
		CommitTable:  int64(commits.Len()) * int64(unsafe.Sizeof(core.CommitNode{})),
		ReclaimFloor: rowstore.SnapshotsOf(inst.txns).Floor(),
	}
	if rc, ok := inst.source().(*transport.Receiver); ok {
		n, b := rc.Held()
		m.MirrorRecords, m.Mirror = int64(n), b
	}
	m.Total = m.ImagesLive + m.ImagesSuperseded + m.VersionStructs + m.Mirror + m.IMCUs + m.Deltas + m.Journal + m.CommitTable
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.HeapAlloc = int64(ms.HeapAlloc)
	return m
}

// WaitForSCN blocks until the QuerySCN reaches at least target or the timeout
// expires; it reports whether the target was reached. It is the standby
// analogue of "wait until the standby has caught up with the primary".
func (inst *Instance) WaitForSCN(target scn.SCN, timeout time.Duration) bool {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		// Take the channel before reading the QuerySCN: a publication that the
		// read misses closes this channel, not an earlier one.
		inst.pubMu.Lock()
		if inst.published == nil {
			inst.published = make(chan struct{})
		}
		published := inst.published
		inst.pubMu.Unlock()
		if inst.QuerySCN() >= target {
			return true
		}
		select {
		case <-published:
		case <-timer.C:
			return inst.QuerySCN() >= target
		}
	}
}

// notifyPublished wakes every WaitForSCN caller; advanceTo calls it after
// storing the new QuerySCN.
func (inst *Instance) notifyPublished() {
	inst.pubMu.Lock()
	if inst.published != nil {
		close(inst.published)
		inst.published = nil
	}
	inst.pubMu.Unlock()
}

// quiesceSnapshotter captures population snapshots under the quiesce lock
// (§III.A): while the lock is held shared, the recovery coordinator cannot be
// mid-publication, so the captured QuerySCN is a stable consistency point.
type quiesceSnapshotter struct {
	inst *Instance
}

func (q *quiesceSnapshotter) CaptureSnapshot() scn.SCN {
	q.inst.quiesce.RLock()
	defer q.inst.quiesce.RUnlock()
	return q.inst.QuerySCN()
}

// ReclaimsVersions makes the standby's population engine reclaim
// (imcs.Reclaimer).
func (q *quiesceSnapshotter) ReclaimsVersions() {}

// standbyPolicy resolves which objects are IMCS-enabled on this standby from
// the replicated INMEMORY attributes and the service registry.
type standbyPolicy struct {
	inst *Instance
}

func (p *standbyPolicy) Enabled(obj rowstore.ObjID) bool {
	seg, ok := p.inst.db.Segment(obj)
	if !ok {
		return false
	}
	tbl, err := p.inst.db.Table(seg.Tenant(), seg.TableName())
	if err != nil {
		return false
	}
	part, err := tbl.PartitionByName(seg.PartName())
	if err != nil {
		return false
	}
	attr := part.InMemory()
	return attr.Enabled && p.inst.services.RunsOn(attr.Service, p.inst.Role())
}

// populationTargets lists the segments enabled for this instance's current
// role set.
func (inst *Instance) populationTargets() []imcs.Target {
	return imcs.Targets(inst.db, inst.services, inst.Role())
}
