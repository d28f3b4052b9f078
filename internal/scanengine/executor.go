package scanengine

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"dbimadg/internal/imcs"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// AggKind selects an aggregation pushed down into the scan.
type AggKind uint8

const (
	// AggNone is the zero kind, which no aggregate list entry may use.
	AggNone AggKind = iota
	// AggCount counts matching rows.
	AggCount
	// AggSum sums a number column over matching rows.
	AggSum
	// AggMin takes the minimum of a number column over matching rows.
	AggMin
	// AggMax takes the maximum of a number column over matching rows.
	AggMax
)

// Query describes one scan.
type Query struct {
	Table *rowstore.Table
	// Filters are ANDed column comparisons.
	Filters []Filter
	// Project lists schema column indexes to materialize (nil = all).
	Project []int
	// Aggs lists select-list aggregates evaluated in one scan pass instead of
	// row materialization.
	Aggs []AggSpec
	// GroupBy lists schema column indexes to group the aggregates by
	// (requires at least one aggregate; at most maxGroupCols columns).
	GroupBy []int
	// OrderByRowID returns materialized rows in deterministic RowID order
	// (partition, block, slot) instead of unspecified order.
	OrderByRowID bool
	// Parallel is the scan parallelism (morsel worker count). 1 runs
	// serially; <= 0 uses the executor's DefaultParallel (itself serial when
	// unset). Parallel row-materializing scans always return RowID order.
	Parallel int
}

// Result is a completed scan.
type Result struct {
	// Rows holds materialized rows (queries without Aggs only) — in RowID order when the
	// query set OrderByRowID, otherwise unspecified.
	Rows []rowstore.Row
	// Count/Sum/Min/Max carry aggregate results (first spec of each kind when
	// the query listed several aggregates).
	Count int64
	Sum   int64
	Min   int64
	Max   int64
	// AggVals holds one value per entry of the query's aggregate list, in
	// select-list order.
	AggVals []int64
	// Grouped is the grouped-aggregate result (GROUP BY queries only), and
	// GroupCount its emitted group cardinality.
	Grouped    *GroupedResult
	GroupCount int64

	// FromIMCS / FromRowStore count matching rows by serving path, and
	// UnitsPruned counts IMCUs skipped entirely via storage indexes —
	// observability mirroring the paper's scan statistics. FromInvalid and
	// FromTail break FromRowStore down: SMU-invalidated rows re-read from the
	// row store, and rows appended to blocks after population; the remainder
	// is plain row-store range scanning (gaps and fallbacks). FromDelta breaks
	// FromIMCS down the same way: invalid rows whose committed changes the
	// unit's column delta explained at the scan snapshot, served from the IMCU
	// with the changed columns replaced and no block touched.
	FromIMCS     int64
	FromDelta    int64
	FromRowStore int64
	FromInvalid  int64
	FromTail     int64
	UnitsPruned  int64
	UnitsScanned int64
	// RowBlocks/RowBatches say what the row-store serving paths cost: blocks
	// latched (each once for all the slots wanted of it) and batches of row
	// images pushed through the filters and the operator.
	RowBlocks  int64
	RowBatches int64
	// UnitsFallback counts populated units whose whole block range fell back
	// to the row store (unit unusable, snapshot too old, or schema drift).
	UnitsFallback int64
	// Batches counts vectorized predicate-evaluation batches run.
	Batches int64
	// RowsEncoded/RowsDecoded split the aggregate folds over IMCS-served rows
	// by whether they ran in encoded space (RLE/constant run level) or had to
	// decode values first. Row-store serving paths count under neither.
	RowsEncoded int64
	RowsDecoded int64
	// Morsels is the number of scheduling granules the scan split into, and
	// Steals how many of them ran on a worker other than their initial
	// (affinity-placed) one.
	Morsels int64
	Steals  int64
}

// PathStats accumulates scan-path counters across every query run by the
// executors that share it — the per-instance view of the per-query Result
// counters. All fields are updated atomically; read them with the accessors.
type PathStats struct {
	queries       atomic.Int64
	rowsIMCS      atomic.Int64
	rowsDelta     atomic.Int64
	rowsRowStore  atomic.Int64
	rowBlocks     atomic.Int64
	unitsPruned   atomic.Int64
	unitsScanned  atomic.Int64
	unitsFallback atomic.Int64
	rowsEncoded   atomic.Int64
	rowsDecoded   atomic.Int64
	groups        atomic.Int64
	morsels       atomic.Int64
	steals        atomic.Int64
}

// Queries returns the number of scans accumulated.
func (p *PathStats) Queries() int64 { return p.queries.Load() }

// RowsFromIMCS returns matching rows served from the column store.
func (p *PathStats) RowsFromIMCS() int64 { return p.rowsIMCS.Load() }

// RowsFromDelta returns the rows among RowsFromIMCS that a unit's column
// delta patched: invalid rows that did not go to the row store.
func (p *PathStats) RowsFromDelta() int64 { return p.rowsDelta.Load() }

// RowsFromRowStore returns matching rows served from the row store (gaps,
// invalid rows, edge tails, and baseline scans).
func (p *PathStats) RowsFromRowStore() int64 { return p.rowsRowStore.Load() }

// RowStoreBlocks returns blocks latched on the row-store serving paths.
func (p *PathStats) RowStoreBlocks() int64 { return p.rowBlocks.Load() }

// UnitsPruned returns IMCUs skipped entirely via storage indexes.
func (p *PathStats) UnitsPruned() int64 { return p.unitsPruned.Load() }

// UnitsScanned returns IMCUs whose columns were actually evaluated.
func (p *PathStats) UnitsScanned() int64 { return p.unitsScanned.Load() }

// UnitsFallback returns populated units whose block range fell back to a
// row-store scan.
func (p *PathStats) UnitsFallback() int64 { return p.unitsFallback.Load() }

// RowsEncoded returns aggregate folds that ran in encoded space (RLE and
// constant-vector run level, without decoding).
func (p *PathStats) RowsEncoded() int64 { return p.rowsEncoded.Load() }

// RowsDecoded returns aggregate folds that decoded column values first.
func (p *PathStats) RowsDecoded() int64 { return p.rowsDecoded.Load() }

// Groups returns the cumulative group cardinality emitted by GROUP BY scans.
func (p *PathStats) Groups() int64 { return p.groups.Load() }

// Morsels returns the cumulative count of scan scheduling granules executed.
func (p *PathStats) Morsels() int64 { return p.morsels.Load() }

// Steals returns the cumulative count of morsels executed by a worker other
// than the one their affinity hint placed them on.
func (p *PathStats) Steals() int64 { return p.steals.Load() }

func (p *PathStats) add(r *Result) {
	if p == nil {
		return
	}
	p.queries.Add(1)
	p.rowsIMCS.Add(r.FromIMCS)
	p.rowsDelta.Add(r.FromDelta)
	p.rowsRowStore.Add(r.FromRowStore)
	p.rowBlocks.Add(r.RowBlocks)
	p.unitsPruned.Add(r.UnitsPruned)
	p.unitsScanned.Add(r.UnitsScanned)
	p.unitsFallback.Add(r.UnitsFallback)
	p.rowsEncoded.Add(r.RowsEncoded)
	p.rowsDecoded.Add(r.RowsDecoded)
	p.groups.Add(r.GroupCount)
	p.morsels.Add(r.Morsels)
	p.steals.Add(r.Steals)
}

// Executor runs scans at a snapshot against the row store and any number of
// column stores (multiple stores model RAC instances whose IMCUs a parallel
// query can reach; an empty list is the paper's "without DBIM" baseline).
type Executor struct {
	view   rowstore.TxnView
	snaps  *rowstore.Snapshots // every run pins its snapshot here
	stores []*imcs.Store

	// Obs, when set, accumulates every Run's path counters (shared across the
	// executors of one instance for instance-level observability).
	Obs *PathStats

	// Profiles, when set, receives the per-query Profile of every Run —
	// EXPLAIN ANALYZE actuals collected inline. RunProfiled returns the
	// profile to its caller instead of delivering it here.
	Profiles func(*Profile)

	// MorselRows is the scheduling granule in rows (DefaultMorselRows when
	// <= 0): every scan task splits into row windows of this size, which are
	// what the workers steal from each other.
	MorselRows int
	// DefaultParallel is the worker count for queries that leave
	// Query.Parallel unset (<= 0). Instance-owned executors set it to the
	// configured scan parallelism (GOMAXPROCS by default); a bare NewExecutor
	// stays serial.
	DefaultParallel int
}

// NewExecutor builds an executor. stores may be empty.
func NewExecutor(view rowstore.TxnView, stores ...*imcs.Store) *Executor {
	return &Executor{view: view, snaps: rowstore.SnapshotsOf(view), stores: stores}
}

const batchSize = 1024 // rows per vectorized evaluation batch (multiple of 64)

// scanScratch is one scan worker's working memory: the batch decode windows,
// the match bitmap, the per-IMCU resolved filters, the group operator's
// unit-local table and the three sources' batches. It holds no IMCU or
// row-image reference between queries.
type scanScratch struct {
	num, aux []int64     // predicate and kernel decode windows
	strs     []string    // a VARCHAR column's window
	match    []uint64    // batch match bitmap
	sub      [1]uint64   // a second mask: a group's rows out of key space
	sel      []int32     // the positions of window rows a materializing fold has yet to gather
	grp      [][64]int64 // the group operator's 64-row key and value buffers
	filters  []batchFilter
	group    groupLocal
	window   window     // the decoded-window source
	rows     rowBatch   // the row-store serving path's batch, grown on first use
	delta    deltaBatch // the delta-served rows' batch, made on first use
}

// scratchPool is the process's bounded free list of scan-worker scratch: a
// worker takes one at the start of a query and returns it at the end, so a
// steady-state scan allocates only its result. The buffer (GOMAXPROCS) is the
// retention limit however many executors and sessions exist; a burst beyond
// it allocates, and drops the surplus on return.
var scratchPool = make(chan *scanScratch, runtime.GOMAXPROCS(0))

func getScratch() *scanScratch {
	select {
	case s := <-scratchPool:
		return s
	default:
		return &scanScratch{
			num:   make([]int64, batchSize),
			aux:   make([]int64, batchSize),
			strs:  make([]string, batchSize),
			match: make([]uint64, batchSize/64),
			sel:   make([]int32, 0, batchSize),
		}
	}
}

func putScratch(s *scanScratch) {
	s.window.imcu, s.rows.imcu, s.delta.imcu, s.delta.view = nil, nil, nil, nil
	clear(s.strs)
	select {
	case scratchPool <- s:
	default:
	}
}

// planBuf holds the unit views of one query's plan. It is pooled like the scan
// scratch: planning copies each unit's validity bitmap and column delta into
// memory an earlier query used.
type planBuf struct {
	views []*imcs.View
	used  int
}

// view returns the next unused view.
func (pb *planBuf) view() *imcs.View {
	if pb.used == len(pb.views) {
		pb.views = append(pb.views, new(imcs.View))
	}
	pb.used++
	return pb.views[pb.used-1]
}

var planPool = make(chan *planBuf, runtime.GOMAXPROCS(0))

func getPlanBuf() *planBuf {
	select {
	case pb := <-planPool:
		return pb
	default:
		return new(planBuf)
	}
}

// putPlanBuf returns pb once nothing of its query reads the views any more;
// they let go of their IMCUs.
func putPlanBuf(pb *planBuf) {
	for _, v := range pb.views[:pb.used] {
		v.Release()
	}
	pb.used = 0
	select {
	case planPool <- pb:
	default:
	}
}

// validate checks a query's shape against the table's current schema and
// normalizes its aggregate/grouping plan.
func (ex *Executor) validate(q *Query) (*rowstore.Schema, *queryPlan, error) {
	if q.Table == nil {
		return nil, nil, fmt.Errorf("scanengine: query has no table")
	}
	schema := q.Table.Schema()
	plan, err := planQuery(q, schema)
	return schema, plan, err
}

// Run executes a query at snapshot snap. When the Profiles sink is set, the
// scan is profiled and the Profile delivered to it.
func (ex *Executor) Run(q *Query, snap scn.SCN) (*Result, error) {
	level := profNone
	if ex.Profiles != nil {
		level = profTree
	}
	res, prof, err := ex.exec(q, snap, level)
	if prof != nil {
		ex.Profiles(prof)
	}
	return res, err
}

// RunProfiled executes a query and returns its EXPLAIN ANALYZE profile —
// per-partition and per-IMCU pruning decisions, per-path row counts, batch
// counts and wall times. The profile is not delivered to the Profiles sink.
func (ex *Executor) RunProfiled(q *Query, snap scn.SCN) (*Result, *Profile, error) {
	return ex.exec(q, snap, profTree)
}

// RunTotals executes a query and returns what a query log keeps of a profile
// nobody asked to read: wall and per-worker busy times and the query's totals,
// without the per-partition, per-task tree (Partitions is nil). The profile is
// not delivered to the Profiles sink.
func (ex *Executor) RunTotals(q *Query, snap scn.SCN) (*Result, *Profile, error) {
	return ex.exec(q, snap, profTotals)
}

// profileLevel is how much of a Profile a run collects.
type profileLevel uint8

const (
	profNone   profileLevel = iota // the Result alone; no clock is read
	profTotals                     // wall and busy times and the query's totals
	profTree                       // and the tree: every task's decision, rows and time
)

// morselRows resolves the executor's scheduling granule.
func (ex *Executor) morselRows() int {
	if ex.MorselRows > 0 {
		return ex.MorselRows
	}
	return DefaultMorselRows
}

// workers resolves a query's worker count: its Parallel, else the executor's
// DefaultParallel, clamped against its morsels, not its tasks — a small-unit
// table still splits into enough morsels to feed every requested worker — and
// at least 1.
func (ex *Executor) workers(q *Query, morsels int) int {
	par := q.Parallel
	if par <= 0 {
		par = ex.DefaultParallel
	}
	return max(min(par, morsels), 1)
}

func (ex *Executor) exec(q *Query, snap scn.SCN, profile profileLevel) (*Result, *Profile, error) {
	schema, plan, err := ex.validate(q)
	if err != nil {
		return nil, nil, err
	}
	if err := ex.snaps.Pin(snap); err != nil {
		return nil, nil, fmt.Errorf("scanengine: scan at SCN %d: %w", snap, err)
	}
	defer ex.snaps.Unpin(snap)
	var start time.Time
	if profile != profNone {
		start = time.Now()
	}
	pb := getPlanBuf()
	defer putPlanBuf(pb)
	decs, tasks := ex.planTasks(q, schema, snap, pb)
	morselRows := ex.morselRows()
	morsels := planMorsels(tasks, morselRows)
	workers := ex.workers(q, len(morsels))
	// Parallel materializing scans sort their merged rows by RowID so the
	// result does not depend on morsel scheduling.
	ordered := q.OrderByRowID || (workers > 1 && len(plan.aggs) == 0 && len(plan.groupBy) == 0)
	merged, wstats := ex.runMorsels(q, plan, schema, morsels, workers, snap, profile, ordered)
	res := merged.finish()
	res.UnitsScanned, res.UnitsPruned, res.UnitsFallback = unitCounts(tasks)
	res.Morsels = int64(len(morsels))
	for i := range wstats {
		res.Steals += wstats[i].Steals
	}
	ex.Obs.add(res)
	if profile == profNone {
		return res, nil, nil
	}
	prof := &Profile{Table: q.Table.Name, SnapSCN: snap, Analyze: true}
	if profile == profTree {
		prof = buildProfile(q, schema, snap, decs, tasks, true)
	}
	prof.Parallel, prof.MorselRows, prof.Morsels, prof.Steals = workers, morselRows, res.Morsels, res.Steals
	prof.Workers, prof.WallNanos = wstats, time.Since(start).Nanoseconds()
	prof.ResultRows, prof.Groups = res.Count, res.GroupCount
	prof.RowsIMCS, prof.RowsDelta, prof.RowsInvalid, prof.RowsTail = res.FromIMCS, res.FromDelta, res.FromInvalid, res.FromTail
	prof.RowsRowStore = res.FromRowStore - res.FromInvalid - res.FromTail
	prof.RowBlocks, prof.RowBatches, prof.Batches = res.RowBlocks, res.RowBatches, res.Batches
	prof.UnitsScanned, prof.UnitsPruned, prof.UnitsFallback = res.UnitsScanned, res.UnitsPruned, res.UnitsFallback
	prof.RowsEncoded, prof.RowsDecoded = res.RowsEncoded, res.RowsDecoded
	return res, prof, nil
}

// Explain plans a query without executing it: partition pruning decisions
// plus, per planned task, the IMCU pruning verdict the scan would reach at
// snapshot snap, and the morsel split the scheduler would use. No rows are
// read. Planning is shared with exec, so the prediction matches what a run at
// the same snapshot records.
func (ex *Executor) Explain(q *Query, snap scn.SCN) (*Profile, error) {
	schema, _, err := ex.validate(q)
	if err != nil {
		return nil, err
	}
	pb := getPlanBuf()
	defer putPlanBuf(pb)
	decs, tasks := ex.planTasks(q, schema, snap, pb)
	prof := buildProfile(q, schema, snap, decs, tasks, false)
	prof.MorselRows = ex.morselRows()
	prof.Morsels = int64(len(planMorsels(tasks, prof.MorselRows)))
	prof.Parallel = ex.workers(q, int(prof.Morsels))
	prof.UnitsScanned, prof.UnitsPruned, prof.UnitsFallback = unitCounts(tasks)
	return prof, nil
}

// partDecision records one partition's pruning verdict.
type partDecision struct {
	part *rowstore.Partition
	keep bool
	by   Filter // the filter that pruned, when !keep
}

// partitionDecisions applies partition pruning on the partition-key column,
// recording which filter eliminated each pruned partition.
func (ex *Executor) partitionDecisions(q *Query) []partDecision {
	parts := q.Table.Partitions()
	pc := q.Table.PartitionCol
	out := make([]partDecision, 0, len(parts))
	for _, p := range parts {
		d := partDecision{part: p, keep: true}
		if pc >= 0 {
			for _, f := range q.Filters {
				if f.Col != pc {
					continue
				}
				// Partition covers [Lo, Hi); prune when the filter cannot
				// match any key in that interval.
				if !rangeOverlaps(p.Lo, p.Hi-1, f.Op, f.Num) {
					d.keep, d.by = false, f
					break
				}
			}
		}
		out = append(out, d)
	}
	return out
}

// buildProfile assembles a Profile skeleton from partition decisions and the
// profiles of the kept partitions' tasks, collected or predicted.
func buildProfile(q *Query, schema *rowstore.Schema, snap scn.SCN, decs []partDecision, tasks []*taskState, analyze bool) *Profile {
	prof := &Profile{Table: q.Table.Name, SnapSCN: snap, Analyze: analyze}
	for pi, d := range decs {
		pp := &PartitionProfile{Name: d.part.Name, Lo: d.part.Lo, Hi: d.part.Hi}
		if !d.keep {
			pp.Pruned = true
			pp.PruneCol = schema.Col(d.by.Col).Name
			pp.PruneOp = d.by.Op.String()
			pp.PruneLit = strconv.FormatInt(d.by.Num, 10)
		} else {
			for _, ts := range tasks {
				if ts.part == pi {
					pp.Tasks = append(pp.Tasks, ts.taskProfile(schema))
				}
			}
			sort.Slice(pp.Tasks, func(i, j int) bool { return pp.Tasks[i].From < pp.Tasks[j].From })
		}
		prof.Partitions = append(prof.Partitions, pp)
	}
	return prof
}

// unitCounts counts the tasks' unit verdicts: scanned, pruned, fallen back.
func unitCounts(tasks []*taskState) (scanned, pruned, fallback int64) {
	for _, ts := range tasks {
		switch ts.decision {
		case DecisionScan:
			scanned++
		case DecisionPrunedMinMax, DecisionPrunedDict:
			pruned++
		case DecisionFallbackUnusable, DecisionFallbackSnapshot, DecisionFallbackSchema:
			fallback++
		}
	}
	return scanned, pruned, fallback
}

// planSegment calls add for every unit of planned scan coverage of a segment,
// in block order: column-store units where populated (across all reachable
// stores), row-store ranges (u nil) for the gaps.
func (ex *Executor) planSegment(seg *rowstore.Segment, add func(u *imcs.Unit, from, to rowstore.BlockNo)) {
	nBlocks := rowstore.BlockNo(seg.BlockCount())
	var units []*imcs.Unit
	for _, st := range ex.stores {
		units = append(units, st.Units(seg.Obj())...)
	}
	// Units are non-overlapping within a store and, with a correct home map,
	// across stores; sort by range start.
	slices.SortFunc(units, func(a, b *imcs.Unit) int { return cmp.Compare(a.StartBlk, b.StartBlk) })
	cursor := rowstore.BlockNo(0)
	for _, u := range units {
		if u.StartBlk >= nBlocks {
			break
		}
		if u.StartBlk > cursor {
			add(nil, cursor, u.StartBlk)
		}
		add(u, u.StartBlk, u.EndBlk)
		cursor = u.EndBlk
	}
	if cursor < nBlocks {
		add(nil, cursor, nBlocks)
	}
}

// The scan-path counters, by index into pathCounters: matching rows by
// serving path (the column store — of them the delta-patched rows — the row
// store — of them the invalid and the tail rows), the row path's blocks and
// batches, predicate batches, and aggregate folds by how they ran.
const (
	cIMCS = iota
	cDelta
	cRowStore
	cInvalid
	cTail
	cRowBlocks
	cRowBatches
	cBatches
	cEncoded
	cDecoded
	numCounters
)

// pathCounters is a worker's scan-path counters, or a task's share of them.
type pathCounters [numCounters]int64

// taskResult accumulates one worker's output: path counters plus the query's
// operator, which folds every matching row regardless of serving path. Unit
// verdict counters live on the plan (taskState), not here — a unit is counted
// once however many morsels it split into.
type taskResult struct {
	op      operator
	curPart int // partition index of the morsel being scanned
	cnt     pathCounters
	s       *scanScratch // on loan from scratchPool until release
}

func newTaskResult(q *Query, plan *queryPlan, schema *rowstore.Schema, ordered bool) *taskResult {
	s := getScratch()
	return &taskResult{op: newOperator(q, plan, schema, ordered, s), s: s}
}

// release ends the worker's scan: the operator folds whatever unit-local
// state it still holds, and the scratch goes back to the pool.
func (r *taskResult) release() {
	r.op.flush()
	putScratch(r.s)
	r.s = nil
}

func (r *taskResult) merge(o *taskResult) {
	r.op.merge(o.op)
	for i, v := range o.cnt {
		r.cnt[i] += v
	}
}

func (r *taskResult) finish() *Result {
	c := &r.cnt
	res := &Result{Min: math.MaxInt64, Max: math.MinInt64,
		FromIMCS: c[cIMCS], FromDelta: c[cDelta], FromRowStore: c[cRowStore], FromInvalid: c[cInvalid], FromTail: c[cTail],
		RowBlocks: c[cRowBlocks], RowBatches: c[cRowBatches], Batches: c[cBatches], RowsEncoded: c[cEncoded], RowsDecoded: c[cDecoded]}
	r.op.finish(res)
	return res
}

// pruneInfo describes why an IMCU can be skipped: the responsible filter,
// the pruning kind, and the storage-index bounds that caused it.
type pruneInfo struct {
	f        Filter
	decision string // DecisionPrunedMinMax or DecisionPrunedDict
	lit      string
	min, max string
}

func (p *pruneInfo) fill(tp *TaskProfile, schema *rowstore.Schema) {
	tp.Decision = p.decision
	tp.PruneCol = schema.Col(p.f.Col).Name
	tp.PruneOp = p.f.Op.String()
	tp.PruneLit = p.lit
	tp.PruneMin = p.min
	tp.PruneMax = p.max
}

// pruneIMCU applies storage-index pruning: if any filter cannot match the
// column's min/max (or, for equality on a dictionary column, the literal is
// absent from the sorted dictionary), no valid row in the IMCU qualifies.
// It returns nil when the IMCU must be scanned.
func pruneIMCU(schema *rowstore.Schema, imcu *imcs.IMCU, filters []Filter) *pruneInfo {
	for _, f := range filters {
		col := schema.Col(f.Col)
		if col.Kind == rowstore.KindNumber {
			c := imcu.NumCol(col.Slot())
			if mn, mx := c.MinMax(); !rangeOverlaps(mn, mx, f.Op, f.Num) {
				itoa := func(v int64) string { return strconv.FormatInt(v, 10) }
				return &pruneInfo{f: f, decision: DecisionPrunedMinMax, lit: itoa(f.Num), min: itoa(mn), max: itoa(mx)}
			}
			continue
		}
		c := imcu.StrCol(col.Slot())
		if c.DictSize() == 0 {
			continue
		}
		mn, mx := c.MinMax()
		if !rangeOverlaps(mn, mx, f.Op, f.Str) {
			return &pruneInfo{f: f, decision: DecisionPrunedMinMax, lit: f.Str, min: mn, max: mx}
		}
		// Dictionary prune: equality with a literal inside [min, max] but
		// absent from the sorted dictionary matches no captured row.
		if f.Op == EQ {
			if _, found := c.Code(f.Str); !found {
				return &pruneInfo{f: f, decision: DecisionPrunedDict, lit: f.Str, min: mn, max: mx}
			}
		}
	}
	return nil
}

// batchFilter is a filter resolved against one IMCU: the column slot and the
// comparison in that column's code space.
type batchFilter struct {
	slot int
	str  bool
	cmp  imcs.CodeCmp
}

// What a filter comes to over a whole range of values.
const (
	cmpSome = iota // the codes decide: compare them
	cmpAll         // every value satisfies it
	cmpNone        // no value does
)

// codeCmp translates "value op lit" over values spanning [mn, mx] into their
// code space — value − mn, unsigned, which orders as the values do — and is
// the one definition of each CmpOp there: equality compares with the literal's
// code, every range operator is "code < C", negated for its complement. A
// literal outside [mn, mx] settles the filter for the whole range (NE of a
// value nothing holds is cmpAll), and only a literal inside it is subtracted
// from, so nothing wraps near the ends of int64.
func codeCmp(op CmpOp, lit, mn, mx int64) (imcs.CodeCmp, int) {
	code := uint64(lit) - uint64(mn)
	neg := op == NE || op == GE || op == GT
	settled := func(holds bool) (imcs.CodeCmp, int) {
		if holds != neg {
			return imcs.CodeCmp{}, cmpAll
		}
		return imcs.CodeCmp{}, cmpNone
	}
	switch op {
	case EQ, NE:
		if lit < mn || lit > mx {
			return settled(false)
		}
		return imcs.CodeCmp{C: code, Eq: true, Neg: neg}, cmpSome
	case LT, GE: // value < lit
		if lit <= mn || lit > mx {
			return settled(lit > mx)
		}
		return imcs.CodeCmp{C: code, Neg: neg}, cmpSome
	default: // LE, GT: value <= lit, that is value < lit+1
		if lit < mn || lit >= mx {
			return settled(lit >= mx)
		}
		return imcs.CodeCmp{C: code + 1, Neg: neg}, cmpSome
	}
}

// resolveFilters rewrites the query's filters for one IMCU into dst, each a
// comparison in its column's code space, once per morsel. A NUMBER literal
// becomes its offset from the column's minimum; a VARCHAR literal a bound on
// the sorted dictionary's codes (the two binary searches happen here), taken
// as an offset from the smallest code the column holds: EQ/NE compare with the
// literal's code, or with -1 — below every code — when the column holds no
// such value; ranges map to half-open code bounds. A filter every row
// satisfies is dropped; none says some filter rules every row out.
func resolveFilters(dst []batchFilter, schema *rowstore.Schema, imcu *imcs.IMCU, filters []Filter) (out []batchFilter, none bool) {
	dst = dst[:0]
	for _, f := range filters {
		col := schema.Col(f.Col)
		bf := batchFilter{slot: col.Slot()}
		op, lit := f.Op, f.Num
		var mn, mx int64
		if col.Kind == rowstore.KindVarchar {
			c := imcu.StrCol(bf.slot)
			ge := c.CodeRangeGE(f.Str)
			upper := ge
			_, found := c.Code(f.Str)
			if found {
				upper++
			}
			mn, mx = c.CodeRange()
			bf.str, lit = true, ge
			switch {
			case (op == EQ || op == NE) && !found:
				lit = -1
			case op == LE:
				op, lit = LT, upper
			case op == GT:
				op, lit = GE, upper
			}
		} else {
			mn, mx = imcu.NumCol(bf.slot).MinMax()
		}
		var verdict int
		switch bf.cmp, verdict = codeCmp(op, lit, mn, mx); verdict {
		case cmpNone:
			return dst[:0], true
		case cmpSome:
			dst = append(dst, bf)
		}
	}
	return dst, false
}

// andCmpBitmap ANDs into match the bitmap of positions of vals satisfying
// (op, v): the code-space comparison of the packed kernels over values
// gathered from row images, their code space all of int64.
func andCmpBitmap(match []uint64, vals []int64, op CmpOp, v int64) {
	switch cc, verdict := codeCmp(op, v, math.MinInt64, math.MaxInt64); verdict {
	case cmpNone:
		clear(match)
	case cmpSome:
		imcs.CmpValues(match, vals, math.MinInt64, cc)
	}
}
