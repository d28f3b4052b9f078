// Package chaos is a deterministic, seed-driven fault-injection harness for
// the whole redo/IMCS pipeline. A Runner drives a primary+standby cluster
// through a randomized schedule of concurrent OLTP writer bursts, standby
// scans, transport faults (drop/truncate/delay/duplicate/reorder/corrupt, via
// transport.FaultInjector), standby crash-restarts, and optional role
// transitions — and after every quiesce point checks global invariants
// against a primary-side oracle (see oracle.go):
//
//  1. equivalence — the standby's hybrid IMCS scan at QuerySCN s, over the
//     master's column store and those of its home-share readers (0-2 of
//     them, by seed), is byte-identical to a pure row-store CR scan and to
//     the primary's consistent read at s, across the
//     imcs/invalid/tail/rowstore paths (cross-checked against
//     scanengine.Profile's path accounting);
//  2. QuerySCN monotonicity and SCN coherence (QuerySCN <= watermark <=
//     dispatch frontier), sampled continuously by a monitor goroutine;
//  3. journal / commit-table coherence — both drain to zero once the standby
//     has caught up with no transactions in flight;
//  4. IMCU coverage — after population settles, every chunk of every
//     IMCS-enabled segment is covered by exactly one unit, on exactly one
//     instance.
//
// Every random decision derives from Options.Seed, so a failure replays
// exactly (schedule and fault plan; goroutine interleaving still varies, so a
// replay reproduces the same pressure, not the same instruction trace). A
// failed run's error message carries the seed.
package chaos

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dbimadg/internal/broker"
	"dbimadg/internal/checkpoint"
	"dbimadg/internal/fleet"
	"dbimadg/internal/imcs"
	"dbimadg/internal/obs"
	"dbimadg/internal/primary"
	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
	"dbimadg/internal/standby"
	"dbimadg/internal/transport"
)

// TransitionMode selects the optional role transition exercised at the end of
// a run, while redo may still be in flight.
type TransitionMode int

const (
	// TransitionNone runs no role transition.
	TransitionNone TransitionMode = iota
	// TransitionFailover promotes the standby after closing the primary.
	TransitionFailover
	// TransitionSwitchover swaps roles and rebuilds the old primary as the
	// new standby.
	TransitionSwitchover
)

// Options configures one chaos run. The zero value is usable: in-process
// transport, no crash-restarts, no transition — faults come only from the
// schedule's interleavings.
type Options struct {
	// Seed drives every random decision (schedule, fault plan, workload).
	Seed int64
	// Steps is the number of schedule steps (default 20).
	Steps int
	// UseTCP ships redo over TCP with a seeded FaultInjector on the server.
	UseTCP bool
	// Faults overrides the default fault plan (TCP only).
	Faults *transport.FaultPlan
	// ReorderWindow sets the receiver's resequencing window (TCP only).
	// Below 2, reorder injection is disabled (it would be unsound).
	ReorderWindow int
	// CrashRestarts enables standby crash-restart steps.
	CrashRestarts bool
	// Transition selects the end-of-run role transition.
	Transition TransitionMode
	// MutateSkipJournal > 0 arms the miner's lost-invalidation bug (the next
	// n invalidation records are dropped) before a targeted single-row
	// update. The harness self-test uses this to prove the oracle has teeth.
	MutateSkipJournal int64
	// FleetChurn attaches a reader fleet to the standby and adds/removes
	// readers as schedule steps while writers and faults run. Every quiesce
	// point then also checks each caught-up fleet reader's scan at its own
	// QuerySCN against the standby row store and the primary CR (the same
	// three-way equivalence the master gets), and the run fails unless every
	// reader provisioned mid-storm reaches Ready by the final quiesce.
	FleetChurn bool
	// Checkpoints enables IMCS snapshots (a per-run temp SnapshotDir with a
	// fast background checkpointer) and deals checkpoint schedule steps:
	// explicit checkpoints, crashes racing an in-flight checkpoint, and
	// seeded corruption of the newest snapshot file (the next restart must
	// detect it and fall back to the full rebuild). The run always ends with
	// a forced checkpoint → churn → crash-restart sequence so every seed
	// exercises the restore path before the final quiesce oracle.
	Checkpoints bool
	// ConstantMerge sets the standby's repopulation and tail thresholds to
	// 1 %, so that a unit is rebuilt after nearly every change to it and a
	// long run repopulates by merge hundreds of times: across transport
	// faults, on units a crash-restart restored from a checkpoint, and — by a
	// full build, there being nothing valid to carry over — on units a restart
	// coarse-invalidated.
	ConstantMerge bool
	// StaleStore is the opposite tuning: both thresholds at 1.0, so that no
	// unit is ever repopulated and invalid and tail rows pile up for the whole
	// storm. Every hybrid scan of the oracle then takes most of its rows
	// through the row-store serving path beside the column store — block
	// batches, the commit-SCN hints on row versions, the operators' row entry
	// point — under the same faults, restarts and transitions.
	StaleStore bool
}

// Result summarizes a successful run.
type Result struct {
	Seed        int64
	Steps       int
	Checks      int // oracle checks that ran (live probes + quiesce points)
	Restarts    int
	FaultCounts map[string]int64 // injected transport faults by kind
	Reconnects  int64
	Corrupt     int64 // frames rejected by CRC and refetched
	Duplicates  int64 // duplicate records dropped by the receiver
	Stalls      int64 // watchdog stall onsets (a passing run must report 0)
	Transition  string
	// Freshness-span accounting (sample-every-1 tracing is on for every chaos
	// run): spans that closed complete vs. spans explicitly truncated by a
	// crash-restart or role transition. The oracle fails the run if any span
	// leaks or closes with missing stages.
	SpansCompleted uint64
	SpansTruncated uint64
	// Fleet-churn accounting (FleetChurn runs only): membership changes dealt
	// by the schedule, readers provisioned after the storm began, and
	// per-reader equivalence checks that ran.
	FleetChurns  int
	FleetMidAdds int
	// FleetMidAddsReady counts mid-storm-added readers verified Ready and
	// scan-equivalent at a quiesce point; a fleet-churn run fails unless at
	// least one is (the harness forces an add before the final quiesce).
	FleetMidAddsReady int
	FleetChecks       int
	FleetReaders      int // final membership
	// ShareReaders is the number of home-share readers the run's standby had
	// (seed-derived, 0-2): every equivalence check ran over the union of the
	// master's store and theirs.
	ShareReaders int
	// Scan tuning the oracle executors ran with, drawn from the seed: the
	// morsel granule and worker count every equivalence check exercised.
	ScanMorselRows int
	ScanParallel   int
	// Checkpoint accounting (Checkpoints runs only): snapshots written
	// (background + explicit), restarts that restored from one, restarts
	// that fell back to a full rebuild, and snapshot files the schedule
	// deliberately corrupted.
	Checkpoints         int64
	CheckpointRestores  int64
	CheckpointFallbacks int64
	SnapshotsCorrupted  int
	// Repopulations of the master's units over all incarnations: by merge
	// (unchanged rows carried over from the old IMCU), and by reading every
	// row (coarse-invalid units).
	UnitsMerged  int64
	FullRebuilds int64
	// HybridRowsDelta counts the rows the quiesce checks' hybrid scans served
	// from unit column deltas, DeltaDrops the deltas the storm threw away
	// (StaleStore only: the rows they explained fall through to the row store).
	HybridRowsDelta int64
	DeltaDrops      int
	// HybridRowBlocks counts the blocks the quiesce checks' hybrid scans
	// latched on the row-store serving path.
	HybridRowBlocks int64
	// Reads at an old snapshot, one per quiesce point: answered as the primary
	// CR answers, or refused because repopulations reclaimed below it.
	OldSnapsServed  int
	OldSnapsRefused int
}

// rowsPerBlock / base workload shape: small blocks and IMCUs so a modest row
// count spans many units, exercising population, invalidation and tail scans.
const (
	rowsPerBlock  = 32
	blocksPerIMCU = 8
	baseRows      = 256
)

// writerOp is one precomputed transaction for a writer goroutine. All
// randomness is drawn on the scheduler goroutine, so the workload script is a
// pure function of the seed.
type writerOp struct {
	updates []rowUpdate // base rows to update (disjoint across concurrent writers)
	marker  int64       // value written to n1
	inserts []int64     // fresh ids to insert
	deletes []int64     // existing ids to delete (owned by this writer)
	abort   bool        // abort instead of commit (abort ops never insert; what they delete stays)
}

// rowUpdate is one update statement, or two, of a base row: of n1, of c1 — to a
// value the units' dictionaries hold or to one they lack — or of both; twice
// updates n1 once more in the same transaction.
type rowUpdate struct {
	id     int64
	n1, c1 bool
	str    string
	twice  bool
}

// Runner owns the cluster under test and the seeded schedule.
type Runner struct {
	opts Options
	rng  *rand.Rand

	pri *primary.Cluster
	sby *standby.Instance
	tbl *rowstore.Table

	// transport wiring: curSource is whatever redo source currently feeds the
	// standby (an InProc pump or the TCP receiver); srv/injector/rcv are set
	// only in TCP mode.
	curSource transport.Source
	srv       *transport.Server
	injector  *transport.FaultInjector
	rcv       *transport.Receiver
	threads   []uint16

	oracle  *oracle
	monitor *monitor
	stallCh chan *obs.Bundle // watchdog stall onsets (fail-fast in quiesceCatchUp)

	// flt owns the standby's readers: the seed-derived home-share readers of
	// every run, and under Options.FleetChurn the full-copy readers under
	// membership storm. midAdded holds the ids of readers provisioned after the
	// base state settled (each must reach Ready by the final quiesce).
	flt       *fleet.Manager
	midAdded  map[int]bool
	fleetSize int

	// tallied is what tallyBuilds last read from each population engine.
	tallied map[*imcs.Engine]imcs.EngineStats

	// ckptDir is the run's snapshot directory (Options.Checkpoints only),
	// removed at teardown.
	ckptDir string

	nextID  int64          // fresh-id allocator for inserts
	liveIDs []int64        // committed inserted ids eligible for deletion
	dead    map[int64]bool // base rows a committed delete took

	res Result
}

// resolveScanTuning draws the run's scan-executor knobs from the seed: a
// morsel granule from a sweep that brackets the unit size
// (rowsPerBlock*blocksPerIMCU rows: 1, unit-1, unit, unit+1, multi-unit) and a
// parallelism in [1, 8]. Boundary arithmetic — clipping a batch-aligned window,
// single-row morsels, morsels spanning units — and the work-stealing scheduler
// are then under the same randomized schedule as the pipeline faults.
func (r *Runner) resolveScanTuning() {
	const unitRows = rowsPerBlock * blocksPerIMCU
	sweep := []int{1, unitRows - 1, unitRows, unitRows + 1, 3 * unitRows, scanengine.DefaultMorselRows}
	r.res.ScanMorselRows = sweep[r.rng.Intn(len(sweep))]
	r.res.ScanParallel = 1 + r.rng.Intn(8)
}

// newExec builds an oracle executor carrying the run's scan tuning, so every
// equivalence check doubles as a differential test of the morsel scheduler.
func (r *Runner) newExec(view rowstore.TxnView, stores ...*imcs.Store) *scanengine.Executor {
	ex := scanengine.NewExecutor(view, stores...)
	ex.MorselRows = r.res.ScanMorselRows
	ex.DefaultParallel = r.res.ScanParallel
	return ex
}

// Run executes one seeded chaos run and returns its summary, or an error
// naming the violated invariant and the seed to replay it.
func Run(opts Options) (*Result, error) {
	if opts.Steps <= 0 {
		opts.Steps = 20
	}
	r := &Runner{
		opts:    opts,
		rng:     rand.New(rand.NewSource(opts.Seed)),
		nextID:  1_000_000, // far above the base rows; never collides
		dead:    map[int64]bool{},
		tallied: map[*imcs.Engine]imcs.EngineStats{},
		// The standby's RAC shape is a function of the seed, like the scan
		// tuning: 0, 1 or 2 home-share readers beside the master.
		res: Result{Seed: opts.Seed, Steps: opts.Steps, ShareReaders: int(uint64(opts.Seed) % 3)},
	}
	r.resolveScanTuning()
	if err := r.setup(); err != nil {
		r.teardown()
		return nil, r.fail("setup: %v", err)
	}
	err := r.run()
	if err == nil {
		err = r.transition()
	}
	r.teardown()
	if err != nil {
		return nil, err
	}
	r.collectCounters()
	return &r.res, nil
}

// fail wraps an invariant violation with the replay seed.
func (r *Runner) fail(format string, args ...any) error {
	return fmt.Errorf("chaos seed %d: %s", r.opts.Seed, fmt.Sprintf(format, args...))
}

// defaultPlan is the moderate per-frame fault mix used when Options.Faults is
// nil: enough pressure to exercise every recovery path while redo still
// flows.
func (r *Runner) defaultPlan() transport.FaultPlan {
	return transport.FaultPlan{
		DropProb:    0.01,
		PartialProb: 0.01,
		DelayProb:   0.05,
		DupProb:     0.04,
		ReorderProb: 0.04,
		CorruptProb: 0.01,
		MaxDelay:    2 * time.Millisecond,
	}
}

func (r *Runner) setup() error {
	r.pri = primary.NewCluster(1, rowsPerBlock)
	// Heartbeats keep redo flowing during idle stretches: they push buffered
	// resequencing windows forward and let quiesce points converge even when
	// the last data frame was delayed or held back by a fault. The interval is
	// deliberately modest: each frame is a chance for the injector to sever
	// the connection, so redo generation must stay below the faulted
	// transport's sustainable throughput or catch-up livelocks — the receiver
	// keeps reconnecting and re-shipping while the frontier outruns it.
	r.pri.StartHeartbeats(5 * time.Millisecond)

	cfg := standby.Config{
		RowsPerBlock:       rowsPerBlock,
		CheckpointInterval: time.Millisecond,
		PopulationInterval: time.Millisecond,
		BlocksPerIMCU:      blocksPerIMCU,
		// Trace every commit end-to-end so the oracle can assert that every
		// sampled span closes complete (or is explicitly truncated by a
		// crash/transition) — never leaked, never gap-ridden.
		FreshnessSampleEvery: 1,
		// Liveness: a wedged pipeline should fail the run within the stall
		// deadline with a diagnostic bundle, not hang until quiesceCatchUp's
		// 30s timeout. The deadline is generous enough that fault-storm
		// backoff stretches (capped at 1s per reconnect) never false-positive.
		WatchdogInterval:      50 * time.Millisecond,
		WatchdogStallDeadline: 8 * time.Second,
		HomeInstances:         r.res.ShareReaders + 1,
	}
	if r.opts.ConstantMerge {
		cfg.RepopThreshold, cfg.TailThreshold = 0.01, 0.01
	}
	if r.opts.StaleStore {
		cfg.RepopThreshold, cfg.TailThreshold = 1, 1
	}
	if r.opts.Checkpoints {
		dir, err := os.MkdirTemp("", "chaos-ckpt-")
		if err != nil {
			return err
		}
		r.ckptDir = dir
		cfg.SnapshotDir = dir
		// Fast enough that background checkpoints overlap writer bursts and
		// crash-restarts; the schedule adds explicit and racing ones on top.
		cfg.SnapshotInterval = 5 * time.Millisecond
		cfg.SnapshotRetain = 3
	}
	r.sby = standby.New(cfg)
	// The manager attaches before apply starts, so the home-share readers see
	// the whole run. Full-copy readers join later, under FleetChurn.
	r.flt = fleet.NewManager(r.sby, fleet.Spec{DrainTimeout: 2 * time.Second})

	src, err := r.buildTransport()
	if err != nil {
		return err
	}
	r.sby.Attach(src)
	// Ship-stage backlog: furthest redo written on the primary minus the
	// receiver's delivery frontier.
	r.sby.SetShipFrontier(func() scn.SCN {
		var last scn.SCN
		for _, s := range r.priStreams() {
			if l := s.LastSCN(); l > last {
				last = l
			}
		}
		return last
	})
	r.stallCh = make(chan *obs.Bundle, 1)
	r.sby.Watchdog().OnStall(func(b *obs.Bundle) {
		select {
		case r.stallCh <- b:
		default:
		}
	})
	r.sby.Start()

	tbl, err := r.pri.Instance(0).CreateTable(&rowstore.TableSpec{
		Name:   "C101",
		Tenant: 1,
		Columns: []rowstore.Column{
			{Name: "id", Kind: rowstore.KindNumber},
			{Name: "n1", Kind: rowstore.KindNumber},
			{Name: "c1", Kind: rowstore.KindVarchar},
		},
		IdentityCol:  0,
		PartitionCol: -1,
	})
	if err != nil {
		return err
	}
	r.tbl = tbl
	if err := r.pri.Instance(0).AlterInMemory(1, "C101", "",
		rowstore.InMemoryAttr{Enabled: true, Service: "standby"}); err != nil {
		return err
	}

	// Base rows, fully shipped and populated before the storm starts.
	if err := r.insertRows(0, baseRows); err != nil {
		return err
	}
	if err := r.quiesceCatchUp(); err != nil {
		return err
	}
	if !r.settlePopulation(20 * time.Second) {
		return fmt.Errorf("initial population did not settle")
	}

	if r.opts.FleetChurn {
		// One reader before the storm; churn steps reconcile between 1 and 3.
		r.fleetSize = 1
		r.midAdded = map[int]bool{}
		r.flt.SetReaders(r.fleetSize)
		if !r.flt.WaitReady(20 * time.Second) {
			return fmt.Errorf("initial fleet reader never Ready: %+v", r.flt.Stats())
		}
	}

	r.oracle = &oracle{r: r}
	r.monitor = startMonitor(r)
	return nil
}

// settlePopulation waits for the master's engine and every home-share
// reader's to go idle (WaitIdle runs a coverage scan first, so segment growth
// since the last engine pass is accounted for).
func (r *Runner) settlePopulation(timeout time.Duration) bool {
	ok := r.sby.Engine().WaitIdle(timeout)
	for _, rd := range r.flt.ShareReaders() {
		ok = rd.Engine().WaitIdle(timeout) && ok
	}
	return ok
}

// fleetChurnStep reconciles the fleet to a seeded target size while the storm
// runs. Readers added here are provisioned against a moving watermark — the
// mid-run-added-reader-reaches-Ready requirement checked at the final quiesce.
func (r *Runner) fleetChurnStep() {
	want := 1 + r.rng.Intn(3)
	if want == r.fleetSize {
		want = 1 + want%3
	}
	r.reconcileFleet(want)
}

// reconcileFleet applies a new membership target and records every reader it
// provisioned (churn bookkeeping for the mid-run Ready requirement).
func (r *Runner) reconcileFleet(want int) {
	before := map[int]bool{}
	for _, rd := range r.flt.Readers() {
		before[rd.ID()] = true
	}
	r.flt.SetReaders(want)
	for _, rd := range r.flt.Readers() {
		if !before[rd.ID()] {
			r.midAdded[rd.ID()] = true
			r.res.FleetMidAdds++
		}
	}
	r.fleetSize = want
	r.res.FleetChurns++
}

// midAddedPresent reports whether any reader provisioned mid-storm is still a
// fleet member.
func (r *Runner) midAddedPresent() bool {
	for _, rd := range r.flt.Readers() {
		if r.midAdded[rd.ID()] {
			return true
		}
	}
	return false
}

func (r *Runner) priStreams() []*redo.Stream {
	var streams []*redo.Stream
	for _, inst := range r.pri.Instances() {
		streams = append(streams, inst.Stream())
	}
	return streams
}

func (r *Runner) buildTransport() (transport.Source, error) {
	streams := r.priStreams()
	if !r.opts.UseTCP {
		src := transport.NewInProc(streams...)
		r.curSource = src
		return src, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.srv = transport.NewServer(ln, streams...)
	plan := r.defaultPlan()
	if r.opts.Faults != nil {
		plan = *r.opts.Faults
	}
	if r.opts.ReorderWindow < 2 {
		plan.ReorderProb = 0 // reorder without a resequencing window is unsound
	}
	r.injector = transport.NewFaultInjector(r.opts.Seed, plan)
	r.srv.SetFaultInjector(r.injector)
	for _, s := range streams {
		r.threads = append(r.threads, s.Thread())
	}
	rcv, err := transport.ConnectOpts(r.srv.Addr(), r.threads, 0,
		transport.Options{ReorderWindow: r.opts.ReorderWindow})
	if err != nil {
		return nil, err
	}
	r.rcv = rcv
	r.curSource = rcv
	return rcv, nil
}

// run executes the randomized schedule: writer bursts with live probes,
// partition faults, crash-restarts, and quiesce points with the full oracle.
func (r *Runner) run() error {
	// The mutation self-test: arm the bug, make one committed single-row
	// update against a settled IMCU (one stale row, too little damage to
	// trigger repopulation heuristics), and let the first quiesce point
	// catch it.
	if r.opts.MutateSkipJournal > 0 {
		r.sby.InjectJournalSkip(r.opts.MutateSkipJournal)
		if err := r.singleUpdate(int64(r.rng.Intn(baseRows)), 424242); err != nil {
			return r.fail("mutation update: %v", err)
		}
	}

	for step := 0; step < r.opts.Steps; step++ {
		p := r.rng.Float64()
		switch {
		case p < 0.50:
			if err := r.writerBurst(); err != nil {
				return err
			}
		case p < 0.60 && r.srv != nil:
			r.srv.DropConnections()
		case p < 0.70 && r.opts.CrashRestarts:
			if err := r.crashRestart(); err != nil {
				return err
			}
		case p < 0.80 && r.opts.FleetChurn:
			r.fleetChurnStep()
		case p < 0.90 && r.ckptDir != "":
			if err := r.checkpointStep(); err != nil {
				return err
			}
		default:
			if err := r.quiescePoint(); err != nil {
				return err
			}
		}
		if r.opts.StaleStore && r.rng.Intn(6) == 0 {
			r.dropDelta() // a row of a forgotten delta stays opaque: not too often
		}
		if err := r.monitor.err(); err != nil {
			return r.fail("%v", err)
		}
	}
	// A fleet-churn run must always verify a reader provisioned mid-storm: if
	// no mid-added reader is still a member (the schedule dealt no add, or
	// churn removed them all again), force one before the final quiesce.
	if r.opts.FleetChurn && !r.midAddedPresent() {
		r.reconcileFleet(r.fleetSize + 1)
	}
	// A checkpoint run must always exercise snapshot-then-redo-catch-up, not
	// just write snapshots: force checkpoint → churn → crash-restart, then
	// require that at least one restart across the run actually restored.
	// (Scheduled corruption steps may have forced earlier restarts into the
	// fallback; this final checkpoint is newest and valid, so this restart
	// restores.) The final quiesce point below then runs the full three-way
	// equivalence oracle over the restored-and-caught-up store.
	if r.ckptDir != "" {
		if _, err := r.sby.CheckpointNow(); err != nil {
			return r.fail("forced checkpoint: %v", err)
		}
		if err := r.writerBurst(); err != nil {
			return err
		}
		if err := r.crashRestart(); err != nil {
			return err
		}
		if cs := r.sby.CheckpointStats(); cs.Restores == 0 {
			return r.fail("no restart restored from a checkpoint (stats %+v)", cs)
		}
	}
	// Always end on a full quiesce point: the run's final state is checked no
	// matter how the schedule dealt the steps.
	return r.quiescePoint()
}

// dropDelta makes a random unit of the standby's stores forget its column delta:
// the rows it explained must come out of the row store the same.
func (r *Runner) dropDelta() {
	var units []*imcs.Unit
	for _, st := range r.flt.Stores() {
		for _, obj := range st.Objects() {
			units = append(units, st.Units(obj)...)
		}
	}
	if len(units) > 0 {
		units[r.rng.Intn(len(units))].ForgetDelta()
		r.res.DeltaDrops++
	}
}

// writerBurst runs 1–3 concurrent writer goroutines, each committing a few
// precomputed transactions, while the scheduler goroutine interleaves live
// equivalence probes against the moving QuerySCN.
func (r *Runner) writerBurst() error {
	nWriters := 1 + r.rng.Intn(3)
	scripts := make([][]writerOp, nWriters)
	chunk := baseRows / 3 // disjoint update ranges even at 3 writers
	for w := 0; w < nWriters; w++ {
		nTx := 1 + r.rng.Intn(3)
		for k := 0; k < nTx; k++ {
			op := writerOp{marker: int64(r.rng.Intn(1000))}
			op.abort = r.rng.Intn(6) == 0
			lo := w * chunk
			for j := 0; j < 1+r.rng.Intn(5); j++ {
				u := rowUpdate{id: int64(lo + r.rng.Intn(chunk)), twice: r.rng.Intn(4) == 0}
				// A third of the time the row the writer's previous transaction
				// updated: two commits on one row inside one advancement window.
				if prev := scripts[w]; j == 0 && len(prev) > 0 && len(prev[len(prev)-1].updates) > 0 && r.rng.Intn(3) == 0 {
					u.id = prev[len(prev)-1].updates[0].id
				}
				if r.dead[u.id] {
					continue
				}
				switch shape := r.rng.Intn(4); {
				case shape < 2:
					u.n1 = true
				default:
					u.n1, u.c1 = shape == 3, true
					if u.str = colors[r.rng.Intn(len(colors))]; r.rng.Intn(2) == 0 {
						u.str = fmt.Sprintf("chaos-%d", r.rng.Intn(50)) // no dictionary holds it
					}
				}
				op.updates = append(op.updates, u)
			}
			// A base row of the writer's own range, often one just patched,
			// deleted for good unless the transaction aborts.
			if id := int64(lo + r.rng.Intn(chunk)); r.rng.Intn(8) == 0 && !r.dead[id] {
				if len(op.updates) > 0 && r.rng.Intn(2) == 0 {
					id = op.updates[0].id
				}
				op.deletes = append(op.deletes, id)
				r.dead[id] = !op.abort
			}
			if !op.abort {
				for j := 0; j < r.rng.Intn(3); j++ {
					op.inserts = append(op.inserts, r.nextID)
					r.nextID++
				}
			}
			if len(r.liveIDs) > 0 && r.rng.Intn(3) == 0 {
				// Pop a committed id: no concurrent writer touches it, and a
				// committed delete is its last. A rolled-back delete puts it back
				// after the burst — the row must then be there on every side, by
				// scan and through the identity index.
				i := r.rng.Intn(len(r.liveIDs))
				op.deletes = append(op.deletes, r.liveIDs[i])
				r.liveIDs[i] = r.liveIDs[len(r.liveIDs)-1]
				r.liveIDs = r.liveIDs[:len(r.liveIDs)-1]
			}
			scripts[w] = append(scripts[w], op)
		}
	}

	errs := make(chan error, nWriters)
	for w := 0; w < nWriters; w++ {
		go func(script []writerOp) {
			errs <- r.runScript(script)
		}(scripts[w])
	}
	// Live probes while the writers commit.
	probes := 2 + r.rng.Intn(3)
	var probeErr error
	for i := 0; i < probes && probeErr == nil; i++ {
		probeErr = r.oracle.liveProbe()
	}
	var writerErr error
	for w := 0; w < nWriters; w++ {
		if e := <-errs; e != nil && writerErr == nil {
			writerErr = e
		}
	}
	if writerErr != nil {
		return r.fail("writer: %v", writerErr)
	}
	if probeErr != nil {
		return probeErr
	}
	// Committed inserts become eligible for future deletion, and so do the rows
	// whose delete was rolled back.
	for _, script := range scripts {
		for _, op := range script {
			if op.abort {
				for _, id := range op.deletes {
					if id >= baseRows {
						r.liveIDs = append(r.liveIDs, id)
					}
				}
			} else {
				r.liveIDs = append(r.liveIDs, op.inserts...)
			}
		}
	}
	return nil
}

// runScript applies one writer's transactions against the primary.
func (r *Runner) runScript(script []writerOp) error {
	s := r.tbl.Schema()
	for _, op := range script {
		tx := r.pri.Instance(0).Begin()
		for _, u := range op.updates {
			var cols []uint16
			if u.n1 {
				cols = append(cols, 1)
			}
			if u.c1 {
				cols = append(cols, 2)
			}
			err := tx.UpdateByID(r.tbl, u.id, cols, func(row *rowstore.Row) {
				if u.n1 {
					row.Nums[s.Col(1).Slot()] = op.marker
				}
				if u.c1 {
					row.Strs[s.Col(2).Slot()] = u.str
				}
			})
			if err == nil && u.twice {
				err = tx.UpdateByID(r.tbl, u.id, []uint16{1}, func(row *rowstore.Row) {
					row.Nums[s.Col(1).Slot()] = op.marker + 1
				})
			}
			if err != nil {
				return fmt.Errorf("update id %d: %w", u.id, err)
			}
		}
		for _, id := range op.inserts {
			row := rowstore.NewRow(s)
			row.Nums[s.Col(0).Slot()] = id
			row.Nums[s.Col(1).Slot()] = op.marker
			row.Strs[s.Col(2).Slot()] = colors[id%int64(len(colors))]
			if _, err := tx.Insert(r.tbl, row); err != nil {
				return fmt.Errorf("insert id %d: %w", id, err)
			}
		}
		for _, id := range op.deletes {
			if err := tx.DeleteByID(r.tbl, id); err != nil {
				return fmt.Errorf("delete id %d: %w", id, err)
			}
		}
		if op.abort {
			if err := tx.Abort(); err != nil {
				return err
			}
			continue
		}
		if _, err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

var colors = []string{"red", "green", "blue", "amber"}

// insertRows commits one transaction inserting ids [from, to).
func (r *Runner) insertRows(from, to int64) error {
	s := r.tbl.Schema()
	tx := r.pri.Instance(0).Begin()
	for i := from; i < to; i++ {
		row := rowstore.NewRow(s)
		row.Nums[s.Col(0).Slot()] = i
		row.Nums[s.Col(1).Slot()] = i % 100
		row.Strs[s.Col(2).Slot()] = colors[i%int64(len(colors))]
		if _, err := tx.Insert(r.tbl, row); err != nil {
			return err
		}
	}
	_, err := tx.Commit()
	return err
}

// singleUpdate commits one single-row update (the mutation self-test's
// minimal damage: exactly one invalidation record).
func (r *Runner) singleUpdate(id, marker int64) error {
	s := r.tbl.Schema()
	tx := r.pri.Instance(0).Begin()
	if err := tx.UpdateByID(r.tbl, id, []uint16{1}, func(row *rowstore.Row) {
		row.Nums[s.Col(1).Slot()] = marker
	}); err != nil {
		return err
	}
	_, err := tx.Commit()
	return err
}

// quiesceCatchUp waits until the standby's QuerySCN reaches the primary's
// current snapshot. A watchdog stall verdict fails the wait immediately (with
// the captured flight-recorder bundle) instead of burning the full timeout; a
// plain timeout captures a bundle manually so the failure is equally
// diagnosable.
func (r *Runner) quiesceCatchUp() error {
	target := r.pri.Snapshot()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if r.sby.QuerySCN() >= target {
			return nil
		}
		select {
		case b := <-r.stallCh:
			// Re-check before failing: a transient verdict that already
			// healed (progress resumed) is not a wedge.
			if rep := r.sby.Watchdog().Health(); rep.Verdict == "stalled" {
				return fmt.Errorf("standby stalled: %s", r.stallDigest(b, target))
			}
		default:
			time.Sleep(200 * time.Microsecond)
		}
	}
	if r.sby.QuerySCN() >= target {
		return nil
	}
	b := r.sby.FlightRecorder().Capture("quiesce timeout", r.sby.Watchdog().Health().Stages)
	return fmt.Errorf("standby stuck: %s", r.stallDigest(b, target))
}

// stallDigest renders a bounded, human-readable summary of a stall bundle:
// the liveness table, transport state and pipeline stats. The full bundle
// (goroutine profile, metrics, trace tail) stays in the flight recorder — and
// is additionally written to CHAOS_ARTIFACT_DIR when that is set, so CI can
// upload it next to the failing log.
func (r *Runner) stallDigest(b *obs.Bundle, target scn.SCN) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "QuerySCN=%d target=%d stats=%+v", r.sby.QuerySCN(), target, r.sby.Stats())
	if b == nil {
		return sb.String()
	}
	fmt.Fprintf(&sb, "\n  bundle #%d: %s", b.Seq, b.Reason)
	for _, s := range b.Stages {
		fmt.Fprintf(&sb, "\n  stage %-9s %-8s count=%-8d backlog=%-6d since_advance=%.1fs",
			s.Stage, s.State, s.Count, s.Backlog, s.SinceAdvance)
	}
	if ts, ok := b.State["transport"]; ok {
		fmt.Fprintf(&sb, "\n  transport=%+v", ts)
	}
	if path := r.dumpBundle(b); path != "" {
		fmt.Fprintf(&sb, "\n  full bundle written to %s", path)
	}
	return sb.String()
}

// dumpBundle writes the full diagnostic bundle (goroutine profile, metrics
// snapshot, trace tail, component states) plus the replay seed as JSON into
// the directory named by the CHAOS_ARTIFACT_DIR environment variable, and
// returns the file path. No-op (empty path) when the variable is unset; best
// effort on error — artifact capture must never mask the underlying failure.
func (r *Runner) dumpBundle(b *obs.Bundle) string {
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" || b == nil {
		return ""
	}
	doc := struct {
		ReplaySeed int64       `json:"replay_seed"`
		Bundle     *obs.Bundle `json:"bundle"`
	}{r.opts.Seed, b}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return ""
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	path := filepath.Join(dir, fmt.Sprintf("chaos-bundle-seed%d-%d.json", r.opts.Seed, b.Seq))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return ""
	}
	return path
}

// quiescePoint catches up and runs the full oracle, including the per-reader
// fleet equivalence when a fleet is attached.
func (r *Runner) quiescePoint() error {
	if err := r.quiesceCatchUp(); err != nil {
		return r.fail("%v", err)
	}
	if err := r.oracle.quiesceCheck(); err != nil {
		return err
	}
	if r.opts.FleetChurn {
		if err := r.oracle.fleetCheck(); err != nil {
			return err
		}
	}
	if err := r.monitor.err(); err != nil {
		return r.fail("%v", err)
	}
	return nil
}

// crashRestart kills and restarts the standby instance mid-pipeline: volatile
// IM-ADG state (journal, commit table, IMCS) is lost; apply resumes from the
// resume point. Over TCP the old receiver is torn down and a new one dials in
// at ResumePoint()+1 — with snapshots enabled that is the newest checkpoint's
// SCN, so the redial keeps the archived-log window the restore needs.
func (r *Runner) crashRestart() error {
	r.res.Restarts++
	r.tallyBuilds() // the restart replaces the population engine
	// The incarnation ends here: with a checkpoint configured the restore
	// rolls QuerySCN back to the snapshot's SCN, which the monitor must treat
	// as a fresh baseline, not a monotonicity violation.
	r.monitor.beginRestart()
	defer r.monitor.endRestart()
	if r.rcv == nil {
		src := transport.NewInProc(r.priStreams()...)
		r.curSource = src
		if err := r.sby.Restart(src); err != nil {
			return r.fail("restart: %v", err)
		}
		return nil
	}
	r.sby.Stop()
	_ = r.rcv.Close()
	rcv, err := transport.ConnectOpts(r.srv.Addr(), r.threads, r.sby.ResumePoint()+1,
		transport.Options{ReorderWindow: r.opts.ReorderWindow})
	if err != nil {
		return r.fail("restart redial: %v", err)
	}
	r.rcv = rcv
	r.curSource = rcv
	if err := r.sby.Restart(rcv); err != nil {
		return r.fail("restart: %v", err)
	}
	return nil
}

// checkpointStep deals one checkpoint hazard (Options.Checkpoints): a plain
// explicit checkpoint, a crash-restart racing an in-flight checkpoint (the
// temp-file + atomic-rename protocol must leave either the previous or the
// new snapshot valid — never a torn one), or seeded corruption of the newest
// snapshot file (the next restore must reject it and either use an older
// valid file or fall back to the full rebuild). Every variant is followed by
// the regular quiesce oracles, so any wrong restored byte fails equivalence.
func (r *Runner) checkpointStep() error {
	switch r.rng.Intn(3) {
	case 0:
		if _, err := r.sby.CheckpointNow(); err != nil {
			return r.fail("checkpoint: %v", err)
		}
	case 1:
		done := make(chan struct{})
		sby := r.sby
		go func() {
			defer close(done)
			_, _ = sby.CheckpointNow() // racing the restart; failure is legitimate
		}()
		err := r.crashRestart()
		<-done
		if err != nil {
			return err
		}
	case 2:
		r.corruptNewestSnapshot()
	}
	return nil
}

// corruptNewestSnapshot flips one seeded byte in the newest snapshot file,
// past the header so the file still lists (List filters header-invalid files
// before they count as corrupt candidates) and the damage is caught by the
// payload/trailer CRCs on the next restore attempt.
func (r *Runner) corruptNewestSnapshot() {
	m, ok := checkpoint.Newest(r.ckptDir)
	if !ok {
		return
	}
	raw, err := os.ReadFile(m.Path)
	if err != nil || len(raw) < 64 {
		return
	}
	off := 52 + r.rng.Intn(len(raw)-52)
	raw[off] ^= byte(1 << r.rng.Intn(8))
	if os.WriteFile(m.Path, raw, 0o644) == nil {
		r.res.SnapshotsCorrupted++
	}
}

// transition runs the optional end-of-run role transition under load: a last
// writer burst is left in flight (not yet caught up) when the broker starts
// terminal recovery.
func (r *Runner) transition() error {
	if r.opts.Transition == TransitionNone {
		return nil
	}
	if err := r.writerBurst(); err != nil {
		return err
	}
	r.monitor.stop() // promotion legitimately stops the apply pipeline
	// A promotion must retain what the master hosted; with home-share readers
	// every IMCU may be homed elsewhere and there is nothing to retain.
	hosted := r.sby.Store().Stats().PopulatedUnits > 0

	// The broker drains the fleet with the promoted standby and, on a
	// switchover, rebinds it to the rebuilt one — the same path
	// Cluster.Failover/Switchover takes.
	brk := broker.New(broker.Config{
		Primary:      r.pri,
		Standby:      r.flt,
		Source:       r.curSource,
		Server:       r.srv,
		DrainTimeout: 20 * time.Second,
		StandbyConfig: standby.Config{
			CheckpointInterval:   time.Millisecond,
			PopulationInterval:   time.Millisecond,
			BlocksPerIMCU:        blocksPerIMCU,
			FreshnessSampleEvery: 1,
			HomeInstances:        r.res.ShareReaders + 1,
		},
	})

	switch r.opts.Transition {
	case TransitionFailover:
		res, err := brk.Failover()
		if err != nil {
			return r.fail("failover: %v", err)
		}
		r.res.Transition = "failover"
		if hosted && res.WarmUnits == 0 {
			return r.fail("failover promotion was cold: %+v", res)
		}
		return r.oracle.postPromotion(brk.Promoted(), res.PromotedSCN, nil)
	case TransitionSwitchover:
		res, err := brk.Switchover()
		if err != nil {
			return r.fail("switchover: %v", err)
		}
		r.res.Transition = "switchover"
		if hosted && res.WarmUnits == 0 {
			return r.fail("switchover promotion was cold: %+v", res)
		}
		return r.oracle.postPromotion(brk.Promoted(), res.PromotedSCN, res.NewStandby)
	}
	return nil
}

// tallyBuilds adds to the result the repopulations the master's and the
// home-share readers' engines have done since it last saw them. It runs before
// a restart replaces the master's engine, and at the end.
func (r *Runner) tallyBuilds() {
	engines := []*imcs.Engine{r.sby.Engine()}
	for _, rd := range r.flt.ShareReaders() {
		engines = append(engines, rd.Engine())
	}
	for _, e := range engines {
		st, was := e.Stats(), r.tallied[e]
		r.res.UnitsMerged += st.UnitsMerged - was.UnitsMerged
		r.res.FullRebuilds += (st.UnitsRepopulated - st.UnitsMerged) - (was.UnitsRepopulated - was.UnitsMerged)
		r.tallied[e] = st
	}
}

func (r *Runner) collectCounters() {
	if r.injector != nil {
		r.res.FaultCounts = r.injector.Counts()
	}
	if r.sby != nil {
		r.res.Stalls = r.sby.Watchdog().Stalls()
		if r.ckptDir != "" {
			cs := r.sby.CheckpointStats()
			r.res.Checkpoints = cs.Written
			r.res.CheckpointRestores = cs.Restores
			r.res.CheckpointFallbacks = cs.RestoreFallbacks
		}
	}
	if r.rcv != nil {
		r.res.Reconnects = r.rcv.Reconnects()
		r.res.Corrupt = r.rcv.CorruptFrames()
		r.res.Duplicates = r.rcv.DuplicatesDropped()
	}
}

// teardown releases whatever the run still owns. After a transition the
// broker already closed the primary, server and source; the remaining pieces
// (engines, promoted clusters) are stopped by the oracle's post-promotion
// path, so only the steady-state resources are handled here.
func (r *Runner) teardown() {
	if r.ckptDir != "" {
		defer os.RemoveAll(r.ckptDir)
	}
	if r.monitor != nil {
		r.monitor.stop()
	}
	if r.sby != nil {
		r.tallyBuilds()
	}
	if r.flt != nil {
		r.flt.Shutdown() // idempotent; a failover already drained it
		r.res.FleetReaders = r.fleetSize
	}
	if r.res.Transition != "" {
		r.collectCounters()
		return
	}
	if r.sby != nil {
		r.sby.Stop()
	}
	if r.rcv != nil {
		r.collectCounters()
		_ = r.rcv.Close()
	}
	if r.srv != nil {
		_ = r.srv.Close()
	}
	if r.pri != nil {
		r.pri.Close()
	}
}
