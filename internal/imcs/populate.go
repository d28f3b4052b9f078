package imcs

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbimadg/internal/obs"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
	"dbimadg/internal/service"
)

// Snapshotter supplies population snapshot SCNs. On the primary this is the
// commit-gate snapshot (any SCN is a consistency point); on the standby it is
// the QuerySCN captured under the quiesce lock (§III.A: "the snapshot SCN of
// an IMCU is always the QuerySCN established at the time").
//
// Contract: CaptureSnapshot returns S only after every invalidation of a
// commit at or below S has reached the SMUs of this instance's store — the
// same guarantee a scan at S needs to trust a unit's validity bitmap. The
// primary invalidates under the commit gate the capture takes; the standby and
// the fleet readers flush a QuerySCN's invalidations before they publish it,
// and the quiesce lock keeps the capture out of a publication in progress.
// Repopulation by merge rests on it: a row position that is valid in the SMU
// after the capture has the same Consistent Read image at S as in the unit's
// IMCU, so only the other positions are read again.
type Snapshotter interface {
	CaptureSnapshot() scn.SCN
}

// Reclaimer is the Snapshotter of the instance that vacuums its row store's
// versions, the standby's: a repopulation frees the versions of its unit's
// blocks no snapshot at or above the replaced image's snapshot reaches; the lag
// of one image protects a reader that reads a published SCN before it pins it
// (rowstore.Snapshots). The fleet readers share their master's versions and
// leave them to it.
type Reclaimer interface {
	Snapshotter
	ReclaimsVersions()
}

// Target is one segment enabled for population on this instance.
type Target struct {
	Seg      *rowstore.Segment
	Table    *rowstore.Table
	Priority int
}

// Targets lists the segments of db whose INMEMORY policy enables them on an
// instance serving role, resolving each policy's service against services.
func Targets(db *rowstore.Database, services *service.Registry, role service.Role) []Target {
	var out []Target
	for _, tbl := range db.Tables() {
		for _, part := range tbl.Partitions() {
			attr := part.InMemory()
			if attr.Enabled && services.RunsOn(attr.Service, role) {
				out = append(out, Target{Seg: part.Seg, Table: tbl, Priority: attr.Priority})
			}
		}
	}
	return out
}

// Config tunes the population engine.
type Config struct {
	// BlocksPerIMCU is the chunk size a segment loader carves objects into.
	BlocksPerIMCU int
	// Workers is the number of background population worker goroutines.
	// Repopulation of stale units may occupy at most half of them (one at
	// least) at a time; see Engine.repopSlots.
	Workers int
	// Interval is the scheduler pass period.
	Interval time.Duration
	// RepopThreshold is the invalid-row fraction that triggers repopulation.
	RepopThreshold float64
	// TailThreshold is the fractional row-count growth within a unit's range
	// (from inserts after population) that triggers edge repopulation.
	TailThreshold float64
	// MemLimitBytes caps the store footprint; population pauses above it
	// (0 = unlimited). Models the paper's bounded in-memory pool.
	MemLimitBytes int
	// HomeFilter, when set, restricts population to IMCUs homed on this
	// instance (RAC home-location map, §III.F): a unit starting at startBlk
	// of obj is populated here only when HomeFilter returns true.
	HomeFilter func(obj rowstore.ObjID, startBlk rowstore.BlockNo) bool
	// Trace, when set, records populate-stage latency per IMCU build.
	Trace *obs.PipelineTrace
}

func (c Config) withDefaults() Config {
	if c.BlocksPerIMCU <= 0 {
		c.BlocksPerIMCU = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Interval <= 0 {
		c.Interval = 10 * time.Millisecond
	}
	if c.RepopThreshold <= 0 {
		c.RepopThreshold = 0.125
	}
	if c.TailThreshold <= 0 {
		c.TailThreshold = 0.25
	}
	return c
}

// EngineStats reports population activity counters.
type EngineStats struct {
	UnitsPopulated   int64
	UnitsRepopulated int64
	RowsPopulated    int64
	// UnitsMerged counts the repopulations that kept the old image's values
	// for the rows that had not changed; the other builds — first population,
	// and repopulation of a coarse-invalid unit or after DDL — read every row.
	UnitsMerged int64
	// RowsReread and RowsCarried split the row positions of all builds into
	// those read from the row store and those taken over from the old image.
	RowsReread  int64
	RowsCarried int64
	// ColsPatched counts the column values builds took from a unit's delta in
	// place of a row read, ColsShared the column objects a build took over from
	// the old image because nothing in them changed.
	ColsPatched int64
	ColsShared  int64
	// FullBuildTime and MergeBuildTime are the time spent in builds of either
	// kind, snapshot capture to attach.
	FullBuildTime  time.Duration
	MergeBuildTime time.Duration
	// VersionsReclaimed counts the row versions freed after repopulations.
	VersionsReclaimed int64
}

// Engine is the background population infrastructure: a scheduler (the
// "segment loader" chunking objects into block ranges) plus population
// workers constructing IMCUs (§III.A). Population is completely online:
// queries and redo apply proceed while IMCUs build.
type Engine struct {
	store   *Store
	view    rowstore.TxnView
	snaps   *rowstore.Snapshots // builds pin their snapshots here
	snap    Snapshotter
	targets func() []Target
	cfg     Config

	tasks    chan popTask
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	pending  atomic.Int64
	// scanMu serialises scheduler passes: a pass holds what it claims — a
	// placeholder unit, a repopulation slot — before pending counts it, and a
	// pass beside it would report nothing to do.
	scanMu sync.Mutex

	// repopInFlight counts repopulation tasks queued or running; the scheduler
	// keeps it within repopSlots.
	repopInFlight atomic.Int64

	populated   atomic.Int64
	repopulated atomic.Int64
	rows        atomic.Int64
	merged      atomic.Int64
	reread      atomic.Int64
	carried     atomic.Int64
	patched     atomic.Int64
	shared      atomic.Int64
	fullNanos   atomic.Int64
	mergeNanos  atomic.Int64
	reclaimed   atomic.Int64
}

type popTask struct {
	unit   *Unit
	target Target
	repop  bool
}

// NewEngine assembles a population engine. targets is consulted every
// scheduler pass and returns the segments enabled for population on this
// instance (resolved from INMEMORY policies and services by the caller).
func NewEngine(store *Store, view rowstore.TxnView, snap Snapshotter, targets func() []Target, cfg Config) *Engine {
	return &Engine{
		store:   store,
		view:    view,
		snaps:   rowstore.SnapshotsOf(view),
		snap:    snap,
		targets: targets,
		cfg:     cfg.withDefaults(),
		tasks:   make(chan popTask, 256),
		stop:    make(chan struct{}),
	}
}

// Start launches the scheduler and population workers.
func (e *Engine) Start() {
	for i := 0; i < e.cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker(i)
	}
	e.wg.Add(1)
	go e.scheduler()
}

// Stop halts background population and waits for workers to drain. It is
// idempotent: role transitions and deployment shutdown may both stop the same
// engine.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stop) })
	e.wg.Wait()
}

// repopSlots is how many stale units may be rebuilt at a time: half of the
// workers, the share Oracle gives trickle repopulation of its populate servers.
// A unit under sustained DML is stale again as soon as it is rebuilt, so a redo
// burst keeps every admitted rebuild busy back to back; with all workers
// admitted, population took as many cores as it had workers from redo apply
// for the length of the burst, and how many rebuilds fitted in was decided by
// the scheduler's time slicing (a saturated replay's apply rate then spread
// 8 % from one replay to the next, 2 % with the cap). Initial population of
// uncovered ranges uses every worker.
func (e *Engine) repopSlots() int64 { return int64(max(1, e.cfg.Workers/2)) }

// Pending returns the number of population tasks queued or in flight.
func (e *Engine) Pending() int64 { return e.pending.Load() }

// Backlog is the population work outstanding: the tasks queued or in flight,
// and the placeholders no task holds, which wait for a pass to queue them.
func (e *Engine) Backlog() int64 {
	n := e.pending.Load()
	for _, obj := range e.store.Objects() {
		for _, u := range e.store.Units(obj) {
			if u.unqueued() {
				n++
			}
		}
	}
	return n
}

// Stats returns activity counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		UnitsPopulated:    e.populated.Load(),
		UnitsRepopulated:  e.repopulated.Load(),
		RowsPopulated:     e.rows.Load(),
		UnitsMerged:       e.merged.Load(),
		RowsReread:        e.reread.Load(),
		RowsCarried:       e.carried.Load(),
		ColsPatched:       e.patched.Load(),
		ColsShared:        e.shared.Load(),
		FullBuildTime:     time.Duration(e.fullNanos.Load()),
		MergeBuildTime:    time.Duration(e.mergeNanos.Load()),
		VersionsReclaimed: e.reclaimed.Load(),
	}
}

// WaitIdle blocks until no population work is queued or in flight and a
// scheduler pass finds nothing new to do, or until timeout. It returns true
// when idle was reached. Intended for tests and benchmarks that need a fully
// populated store.
func (e *Engine) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if e.pending.Load() == 0 && e.Scan() == 0 && e.pending.Load() == 0 {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

func (e *Engine) scheduler() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
			e.Scan()
		}
	}
}

// Scan performs one scheduler pass: it creates placeholder units for
// uncovered block ranges and schedules repopulation for stale units. It
// returns the number of tasks enqueued. Passes run one at a time.
func (e *Engine) Scan() int {
	e.scanMu.Lock()
	defer e.scanMu.Unlock()
	if e.cfg.MemLimitBytes > 0 && e.store.Stats().MemBytes >= e.cfg.MemLimitBytes {
		return 0
	}
	targets := e.targets()
	sort.SliceStable(targets, func(i, j int) bool { return targets[i].Priority > targets[j].Priority })
	enqueued := 0
	for _, t := range targets {
		enqueued += e.scanTarget(t)
	}
	return enqueued
}

func (e *Engine) scanTarget(t Target) int {
	seg := t.Seg
	nBlocks := seg.BlockCount()
	enqueued := 0
	chunk := rowstore.BlockNo(e.cfg.BlocksPerIMCU)

	// Cover missing chunks with placeholder units, and queue every placeholder
	// no task holds: one whose task found the queue full is queued again here,
	// since nothing creates it again.
	for start := rowstore.BlockNo(0); int(start) < nBlocks; start += chunk {
		if e.cfg.HomeFilter != nil && !e.cfg.HomeFilter(seg.Obj(), start) {
			continue
		}
		unit, ok := e.store.UnitForBlock(seg.Obj(), start)
		if !ok {
			var err error
			if unit, err = e.store.CreateUnit(seg.Obj(), seg.Tenant(), start, start+chunk); err != nil {
				continue // a unit covers part of the range
			}
		}
		if !unit.claim() {
			continue // populated, dropped or queued
		}
		if e.enqueue(popTask{unit: unit, target: t}) {
			enqueued++
		} else {
			unit.unclaim()
		}
	}

	// Repopulation heuristics over existing units. Slots are few (repopSlots),
	// so the stalest units go first: in unit order a range under sustained DML
	// would be rebuilt over and over ahead of the ones behind it.
	type staleUnit struct {
		unit  *Unit
		stale float64 // invalid or missing rows as a fraction of the unit's
	}
	var stale []staleUnit
	for _, u := range e.store.Units(seg.Obj()) {
		st := u.Stats()
		if !st.Populated || st.Repopulating || st.Dropped {
			continue
		}
		frac := float64(st.InvalidRows) / float64(max(st.Rows, 1))
		need := st.AllInvalid || (st.Rows > 0 && frac > e.cfg.RepopThreshold)
		if st.AllInvalid {
			frac = 1
		}
		if !need && st.Rows < int(u.EndBlk-u.StartBlk)*seg.RowsPerBlock() {
			// Edge growth: rows inserted into the unit's range after
			// populate. Fully packed units cannot grow, so only units with
			// free capacity are polled.
			cur := e.rowsInRange(seg, u.StartBlk, u.EndBlk)
			if grown := float64(cur-st.Rows) / float64(max(st.Rows, 1)); grown > e.cfg.TailThreshold {
				need, frac = true, grown
			}
		}
		if need {
			stale = append(stale, staleUnit{u, frac})
		}
	}
	// Only the pass running takes slots: one it finds free stays free until it
	// takes it. The task's end (or a failed enqueue) gives it back.
	sort.SliceStable(stale, func(i, j int) bool { return stale[i].stale > stale[j].stale })
	for _, su := range stale {
		if e.repopInFlight.Load() >= e.repopSlots() {
			break
		}
		if !su.unit.BeginRepopulate() {
			continue
		}
		e.repopInFlight.Add(1)
		if e.enqueue(popTask{unit: su.unit, target: t, repop: true}) {
			enqueued++
		} else {
			e.repopInFlight.Add(-1)
			su.unit.AbortRepopulate()
		}
	}
	return enqueued
}

func (e *Engine) rowsInRange(seg *rowstore.Segment, start, end rowstore.BlockNo) int {
	n := 0
	last := rowstore.BlockNo(seg.BlockCount())
	if end > last {
		end = last
	}
	for b := start; b < end; b++ {
		if blk := seg.Block(b); blk != nil {
			n += blk.RowCount()
		}
	}
	return n
}

func (e *Engine) enqueue(t popTask) bool {
	e.pending.Add(1)
	select {
	case e.tasks <- t:
		return true
	default:
		e.pending.Add(-1)
		return false // queue full; next scheduler pass retries
	}
}

func (e *Engine) worker(id int) {
	defer e.wg.Done()
	sc := new(buildScratch) // this worker's, reused from build to build
	for {
		select {
		case <-e.stop:
			return
		case t := <-e.tasks:
			e.runTask(t, id, sc)
			e.pending.Add(-1)
		}
	}
}

func (e *Engine) runTask(t popTask, worker int, sc *buildScratch) {
	start := time.Now()
	prev := t.unit.Stats().SnapSCN
	imcu, reread := e.build(t.target, t.unit, t.repop, sc)
	// Stamp the population→scan affinity hint before publication; the IMCU
	// is immutable once attached.
	imcu.PopulatedBy = worker
	t.unit.Attach(imcu)
	took := time.Since(start)
	e.cfg.Trace.Observe(obs.StagePopulate, uint64(imcu.SnapSCN), took)
	if t.repop {
		e.repopulated.Add(1)
		e.repopInFlight.Add(-1)
	} else {
		e.populated.Add(1)
	}
	e.rows.Add(int64(imcu.Rows()))
	e.reread.Add(int64(reread))
	if carried := imcu.Rows() - reread; carried > 0 {
		e.merged.Add(1)
		e.carried.Add(int64(carried))
		e.mergeNanos.Add(int64(took))
	} else {
		e.fullNanos.Add(int64(took))
	}
	e.reclaim(t, prev)
}

// reclaim vacuums the unit's blocks, a block latch at a time, after an image
// of snapshot prev was replaced (see Reclaimer).
func (e *Engine) reclaim(t popTask, prev scn.SCN) {
	if _, ok := e.snap.(Reclaimer); !ok || e.snaps == nil || prev == scn.Invalid {
		return
	}
	h := e.snaps.Reclaim(prev)
	for _, blk := range t.target.Seg.BlockRange(t.unit.StartBlk, t.unit.EndBlk) {
		e.reclaimed.Add(int64(blk.Vacuum(h, e.view)))
	}
}

// BuildIMCU constructs an IMCU for a unit's block range by reading every row
// of it from the row store with Consistent Read at a freshly captured
// snapshot. The unit (placeholder or repopulating) must already be installed
// so concurrent invalidation flushes are buffered, not lost; the call has no
// effect on it.
func (e *Engine) BuildIMCU(t Target, unit *Unit) *IMCU {
	imcu, _ := e.build(t, unit, false, new(buildScratch))
	return imcu
}

// build constructs an IMCU for a unit's block range at a freshly captured
// snapshot and reports how many row positions it read from the row store.
// With merge it reads the unit as a scan at that snapshot would — the IMCU
// and, copied after the capture, the validity bitmap with the presence gaps
// overlaid and the column delta — and takes the valid positions' values from
// the IMCU (see the Snapshotter contract) and the explained positions' changed
// columns from the delta; the row store serves the rest: opaque rows, gaps, and
// the slots and blocks the segment gained since. Invalidations of later commits
// are buffered in the unit, or kept by its delta, and land on the new image at
// Attach. A unit that is coarse-invalid, whose IMCU predates a schema change,
// or whose IMCU is of a later snapshot than this one has nothing to carry
// over, like one that has no IMCU yet, and every row is read.
func (e *Engine) build(t Target, unit *Unit, merge bool, sc *buildScratch) (*IMCU, int) {
	snap := e.pinSnapshot()
	defer e.snaps.Unpin(snap)
	old := &sc.view
	defer old.Release()
	if !merge || !unit.View(old) || old.IMCU.schema != t.Table.Schema() || old.IMCU.SnapSCN > snap {
		old.Release()
	}
	b, reread, ok := e.readRows(t, unit, snap, old, sc)
	if !ok {
		// A truncate took blocks or slots of the old image from under it.
		old.Release()
		b, reread, _ = e.readRows(t, unit, snap, old, sc)
	}
	imcu := b.Build()
	e.patched.Add(int64(len(sc.patches)))
	e.shared.Add(int64(b.shared))
	return imcu, reread
}

// pinSnapshot captures a snapshot and pins it for the build that reads at it.
// A capture is at or above the reclaim floor, which stays below every published
// QuerySCN, unless a reclaim overtook it between capture and pin; the next
// capture is past that reclaim.
func (e *Engine) pinSnapshot() scn.SCN {
	for {
		snap := e.snap.CaptureSnapshot()
		if e.snaps.Pin(snap) == nil {
			return snap
		}
	}
}

// readRows lays out the new image over the unit's blocks as the segment holds
// them now and reads its re-read set: of the slots old.IMCU captured (none
// when that is nil), those old marks invalid and its delta does not explain at
// snap; every slot beyond. It fails when the segment no longer holds a slot
// that old captured.
func (e *Engine) readRows(t Target, unit *Unit, snap scn.SCN, old *View, sc *buildScratch) (b *Builder, reread int, ok bool) {
	seg := t.Seg
	b = newBuilder(seg.Obj(), seg.Tenant(), t.Table.Schema(), snap, unit.StartBlk, unit.EndBlk, old, sc, e.store.dictsOf(seg.Obj()))
	end := unit.EndBlk
	if last := rowstore.BlockNo(seg.BlockCount()); end > last {
		end = last
	}
	// Size the scratch for the most rows the range can hold, once, rather than
	// let it grow block by block.
	most := max(0, int(end-unit.StartBlk)) * seg.RowsPerBlock()
	sc.rows, sc.pos = slices.Grow(sc.rows, most), slices.Grow(sc.pos, most)
	di := -1 // the delta is walked in step with the blocks
	for blkNo := unit.StartBlk; blkNo < end; blkNo++ {
		blk := seg.Block(blkNo)
		n := 0
		if blk != nil {
			n = blk.RowCount()
		}
		captured := 0
		sc.slots = sc.slots[:0]
		if old.IMCU != nil {
			captured = int(old.IMCU.CapturedRows(blkNo))
			if captured > n {
				return nil, 0, false
			}
			if captured > 0 {
				base, _ := old.IMCU.RowIndexOf(blkNo, 0)
				sc.slots = appendSetBits(sc.slots, old.Invalid, base, base+captured)
				di = b.explain(blkNo-unit.StartBlk, di)
			}
		}
		for slot := captured; slot < n; slot++ {
			sc.slots = append(sc.slots, uint16(slot))
		}
		reread += len(sc.slots)
		if n == 0 {
			b.BeginBlock(0)
			continue
		}
		b.readBlock(blk, n, sc.slots, e.view)
	}
	if old.IMCU != nil && len(b.blockRows) < len(old.IMCU.blockRows) {
		return nil, 0, false
	}
	return b, reread, true
}

// appendSetBits appends i-lo for every bit i in [lo, hi) set in bitmap.
func appendSetBits(dst []uint16, bitmap []uint64, lo, hi int) []uint16 {
	for w := lo / 64; w*64 < hi; w++ {
		word := bitmap[w]
		if w == lo/64 {
			word &^= 1<<uint(lo%64) - 1
		}
		if rem := hi - w*64; rem < 64 {
			word &= 1<<uint(rem) - 1
		}
		for ; word != 0; word &= word - 1 {
			dst = append(dst, uint16(w*64+bits.TrailingZeros64(word)-lo))
		}
	}
	return dst
}
