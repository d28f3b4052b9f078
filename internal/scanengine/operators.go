package scanengine

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"dbimadg/internal/imcs"
	"dbimadg/internal/rowstore"
)

// This file holds the batch operator pipeline: after scanIMCU builds a match
// bitmap for a batch, the surviving rows flow into exactly one operator —
// rowsOp (late materialization), aggOp (multi-aggregate accumulator) or
// groupOp (code-indexed GROUP BY) — instead of a row-at-a-time fold. The
// row-store serving paths (gaps, invalid rows, edge tails, fallbacks) feed the
// same operator a batch of row images at a time through foldRows, so hybrid
// results stay exact at QuerySCN.

// AggSpec names one select-list aggregate. Col is the aggregated schema
// column index (ignored for AggCount).
type AggSpec struct {
	Kind AggKind
	Col  int
}

// maxGroupCols bounds the GROUP BY key width (it sizes the fixed-width
// composite keys the group operator uses).
const maxGroupCols = 4

// GroupValue is one group-key value: Num for NUMBER key columns, Str for
// VARCHAR key columns (IsStr tells which).
type GroupValue struct {
	Num   int64
	Str   string
	IsStr bool
}

// String renders the key value.
func (v GroupValue) String() string {
	if v.IsStr {
		return v.Str
	}
	return strconv.FormatInt(v.Num, 10)
}

// GroupRow is one output group: its key values (in Query.GroupBy order), one
// aggregate value per entry of the query's aggregate list, and the number of
// matching input rows folded into the group.
type GroupRow struct {
	Keys  []GroupValue
	Vals  []int64
	Count int64
}

// GroupedResult is a grouped-aggregate result, with groups in deterministic
// key order regardless of scan parallelism.
type GroupedResult struct {
	KeyCols []string
	AggCols []string
	Groups  []GroupRow
}

// queryPlan is the validated execution shape of a query: the normalized
// aggregate list (legacy Agg/AggCol folded in) and the GROUP BY key columns.
type queryPlan struct {
	aggs    []AggSpec
	groupBy []int
	// Per GROUP BY column: its slot among the columns of its kind.
	keySlots []int
	keyIsStr []bool
}

// planQuery normalizes and validates a query's aggregate/grouping shape.
func planQuery(q *Query, schema *rowstore.Schema) (*queryPlan, error) {
	p := &queryPlan{aggs: q.Aggs, groupBy: q.GroupBy}
	if len(p.aggs) == 0 && q.Agg != AggNone {
		p.aggs = []AggSpec{{Kind: q.Agg, Col: q.AggCol}}
	}
	for _, a := range p.aggs {
		switch a.Kind {
		case AggCount:
		case AggSum, AggMin, AggMax:
			if a.Col < 0 || a.Col >= schema.NumCols() || schema.Col(a.Col).Kind != rowstore.KindNumber {
				return nil, fmt.Errorf("scanengine: aggregate column %d must be a NUMBER column", a.Col)
			}
		default:
			return nil, fmt.Errorf("scanengine: aggregate list entries need an aggregate kind")
		}
	}
	if len(p.groupBy) > 0 {
		if len(p.aggs) == 0 {
			return nil, fmt.Errorf("scanengine: GROUP BY requires at least one aggregate")
		}
		if len(p.groupBy) > maxGroupCols {
			return nil, fmt.Errorf("scanengine: GROUP BY supports at most %d columns", maxGroupCols)
		}
		for _, ci := range p.groupBy {
			if ci < 0 || ci >= schema.NumCols() {
				return nil, fmt.Errorf("scanengine: GROUP BY column %d out of range", ci)
			}
			p.keySlots = append(p.keySlots, schema.Col(ci).Slot())
			p.keyIsStr = append(p.keyIsStr, schema.Col(ci).Kind == rowstore.KindVarchar)
		}
	}
	return p, nil
}

// aggLabel names an aggregate for result/EXPLAIN output.
func aggLabel(a AggSpec, schema *rowstore.Schema) string {
	switch a.Kind {
	case AggCount:
		return "COUNT(*)"
	case AggSum:
		return "SUM(" + schema.Col(a.Col).Name + ")"
	case AggMin:
		return "MIN(" + schema.Col(a.Col).Name + ")"
	case AggMax:
		return "MAX(" + schema.Col(a.Col).Name + ")"
	}
	return "?"
}

// operator consumes the matching rows of one scan task stream. foldBatch
// receives a batch-local match bitmap over IMCU positions [base, base+n);
// beginUnit precedes the batches of one morsel and names their IMCU
// (dictionary codes are IMCU-local, so code-keyed state lives until the unit
// changes); flush ends the worker's scan, after which merge and finish see
// no unit-local state. foldRows is foldBatch for the row-store serving path:
// match is over b's row images, and when b names an IMCU, beginUnit has named
// it too. foldDelta is foldBatch for scattered positions of the IMCU beginUnit
// named, some of whose columns the unit's delta replaces: match is over b's rows.
type operator interface {
	beginUnit(imcu *imcs.IMCU)
	foldBatch(r *taskResult, imcu *imcs.IMCU, base, n int, match []uint64)
	flush()
	foldRows(r *taskResult, b *rowBatch, match []uint64)
	foldDelta(r *taskResult, b *deltaBatch, match []uint64)
	merge(o operator)
	finish(res *Result)
}

// newOperator picks the operator for a validated query plan. ordered makes
// the rows operator keep RowID sort keys: set for OrderByRowID queries and
// for every parallel materializing scan (morsel completion order is not
// deterministic, the sorted merge is). scratch is the worker's, on loan for
// the operator's scan.
func newOperator(q *Query, plan *queryPlan, schema *rowstore.Schema, ordered bool, scratch *scanScratch) operator {
	switch {
	case len(plan.groupBy) > 0:
		return newGroupOp(plan, schema, scratch)
	case len(plan.aggs) > 0:
		return newAggOp(plan, schema)
	default:
		return newRowsOp(q, schema, ordered)
	}
}

// orderKey is the RowID sort key of one row: partition index, block, slot.
// BlockNo is 32 bits and slots 16, leaving 16 bits for the partition index.
func orderKey(part int, blk rowstore.BlockNo, slot uint16) uint64 {
	return uint64(part)<<48 | uint64(blk)<<16 | uint64(slot)
}

// collectIdx expands the set bits of match over n positions into idx.
func collectIdx(idx []int32, match []uint64, n int) []int32 {
	idx = idx[:0]
	for w := 0; w < (n+63)/64; w++ {
		m := match[w]
		for m != 0 {
			idx = append(idx, int32(w*64+bits.TrailingZeros64(m)))
			m &= m - 1
		}
	}
	return idx
}

// rowsOp materializes matching rows (AggNone). IMCU batches are gathered
// late: only the projected columns are decoded, a window at a time for dense
// matches, by point lookup for sparse ones.
type rowsOp struct {
	q        *Query
	schema   *rowstore.Schema
	ordered  bool
	numSlots []int
	strSlots []int

	rows []rowstore.Row
	keys []uint64
	idx  []int32
}

func newRowsOp(q *Query, schema *rowstore.Schema, ordered bool) *rowsOp {
	o := &rowsOp{q: q, schema: schema, ordered: ordered}
	if q.Project == nil {
		for s := 0; s < schema.NumberSlots(); s++ {
			o.numSlots = append(o.numSlots, s)
		}
		for s := 0; s < schema.VarcharSlots(); s++ {
			o.strSlots = append(o.strSlots, s)
		}
		return o
	}
	for _, ci := range q.Project {
		col := schema.Col(ci)
		if col.Kind == rowstore.KindNumber {
			o.numSlots = append(o.numSlots, col.Slot())
		} else {
			o.strSlots = append(o.strSlots, col.Slot())
		}
	}
	return o
}

func (o *rowsOp) beginUnit(*imcs.IMCU) {}
func (o *rowsOp) flush()               {}

func (o *rowsOp) foldBatch(r *taskResult, imcu *imcs.IMCU, base, n int, match []uint64) {
	o.idx = collectIdx(o.idx, match, n)
	for k := range o.idx {
		o.idx[k] += int32(base)
	}
	o.materialize(r, imcu, base, n, match)
}

// materialize appends one result row per IMCU position in o.idx, in the batch's
// slabs, which it returns. match, unless n is 0, is the positions' bitmap over
// the window [base, base+n).
func (o *rowsOp) materialize(r *taskResult, imcu *imcs.IMCU, base, n int, match []uint64) (nums []int64, strs []string) {
	if len(o.idx) == 0 {
		return nil, nil
	}
	// The batch's rows are cut from one slab of numbers and one of strings, in
	// the table's slot layout: two objects a batch, not two a row. Full-capacity
	// slices, so appending to one row cannot reach its neighbour.
	nn, ns := o.schema.NumberSlots(), o.schema.VarcharSlots()
	nums, strs = make([]int64, len(o.idx)*nn), make([]string, len(o.idx)*ns)
	for k := range o.idx {
		o.rows = append(o.rows, rowstore.Row{
			Nums: nums[k*nn : (k+1)*nn : (k+1)*nn],
			Strs: strs[k*ns : (k+1)*ns : (k+1)*ns],
		})
	}
	// Decode a column's window once (the 64-row groups that hold a match) when
	// at least 1/8 of it survives; point-get for selective batches.
	dense := len(o.idx)*8 >= n && n > 0
	for _, s := range o.numSlots {
		col := imcu.NumCol(s)
		if dense {
			vals := r.s.aux[:n]
			col.DecodeMasked(vals, base, match)
			for k, p := range o.idx {
				nums[k*nn+s] = vals[int(p)-base]
			}
		} else {
			for k, p := range o.idx {
				nums[k*nn+s] = col.Get(int(p))
			}
		}
	}
	for _, s := range o.strSlots {
		col := imcu.StrCol(s)
		if dense {
			codes := r.s.aux[:n]
			col.DecodeCodesMasked(codes, base, match)
			for k, p := range o.idx {
				strs[k*ns+s] = col.Value(codes[int(p)-base])
			}
		} else {
			for k, p := range o.idx {
				strs[k*ns+s] = col.Get(int(p))
			}
		}
	}
	if o.ordered {
		for _, p := range o.idx {
			blk, slot := imcu.AddrOfRow(int(p))
			o.keys = append(o.keys, orderKey(r.curPart, blk, slot))
		}
	}
	return nums, strs
}

// foldDelta materializes the matching positions by point lookup and writes the
// delta's values over the projected columns it names.
func (o *rowsOp) foldDelta(r *taskResult, b *deltaBatch, match []uint64) {
	b.sel = collectIdx(b.sel, match, b.n)
	o.idx = o.idx[:0]
	for _, i := range b.sel {
		o.idx = append(o.idx, b.pos[i])
	}
	imcu := b.view.IMCU
	nums, strs := o.materialize(r, imcu, 0, 0, nil)
	nn, ns := o.schema.NumberSlots(), o.schema.VarcharSlots()
	for k, i := range b.sel {
		for _, e := range b.of(i) {
			switch s, str := e.Slot(); {
			case str && slices.Contains(o.strSlots, s):
				strs[k*ns+s] = b.view.Str(imcu.StrCol(s), e.Val)
			case !str && slices.Contains(o.numSlots, s):
				nums[k*nn+s] = e.Val
			}
		}
	}
}

// foldRows copies the projected columns of the matching images out, into the
// slabs foldBatch cuts its rows from and, for the strings' bytes, one more: a
// result row references no row image.
func (o *rowsOp) foldRows(r *taskResult, b *rowBatch, match []uint64) {
	o.idx = collectIdx(o.idx, match, b.n)
	nn, ns := o.schema.NumberSlots(), o.schema.VarcharSlots()
	nums, strs := make([]int64, len(o.idx)*nn), make([]string, len(o.idx)*ns)
	img := &r.s.unpacked
	for k, i := range o.idx {
		img.Nums, img.Strs = img.Nums[:0], img.Strs[:0]
		b.rows[i].AppendTo(img)
		for _, s := range o.numSlots {
			nums[k*nn+s] = img.Nums[s]
		}
		for _, s := range o.strSlots {
			strs[k*ns+s] = img.Strs[s]
		}
		o.rows = append(o.rows, rowstore.Row{
			Nums: nums[k*nn : (k+1)*nn : (k+1)*nn],
			Strs: strs[k*ns : (k+1)*ns : (k+1)*ns],
		})
		if o.ordered {
			o.keys = append(o.keys, orderKey(r.curPart, b.blks[i], b.slots[i]))
		}
	}
	rowstore.CompactStrs(strs)
	clear(img.Strs)
}

func (o *rowsOp) merge(other operator) {
	src := other.(*rowsOp)
	o.rows = append(o.rows, src.rows...)
	o.keys = append(o.keys, src.keys...)
}

func (o *rowsOp) finish(res *Result) {
	if o.ordered {
		sort.Sort(&rowSorter{keys: o.keys, rows: o.rows})
	}
	res.Rows = o.rows
	res.Count = int64(len(o.rows))
}

type rowSorter struct {
	keys []uint64
	rows []rowstore.Row
}

func (s *rowSorter) Len() int           { return len(s.keys) }
func (s *rowSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *rowSorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
}

// aggCell accumulates sum/min/max for one aggregated column.
type aggCell struct {
	sum int64
	min int64
	max int64
}

func newAggCell() aggCell { return aggCell{min: math.MaxInt64, max: math.MinInt64} }

func (c *aggCell) addMasked(a imcs.MaskedAgg) {
	if a.Count == 0 {
		return
	}
	c.sum += a.Sum
	if a.Min < c.min {
		c.min = a.Min
	}
	if a.Max > c.max {
		c.max = a.Max
	}
}

func (c *aggCell) addVal(v int64) {
	c.sum += v
	if v < c.min {
		c.min = v
	}
	if v > c.max {
		c.max = v
	}
}

func (c *aggCell) mergeCell(o aggCell) {
	c.sum += o.sum
	if o.min < c.min {
		c.min = o.min
	}
	if o.max > c.max {
		c.max = o.max
	}
}

// aggValue reads one aggregate out of accumulated state: the row count, or
// the wanted component of cells[ci].
func aggValue(kind AggKind, count int64, cells []aggCell, ci int) int64 {
	switch kind {
	case AggSum:
		return cells[ci].sum
	case AggMin:
		return cells[ci].min
	case AggMax:
		return cells[ci].max
	}
	return count
}

// uniqueAggCols computes the distinct value slots the aggregate list reads
// and, per spec, the index of its slot's cell (-1 for COUNT).
func uniqueAggCols(aggs []AggSpec, schema *rowstore.Schema) (slots []int, colOf []int) {
	colOf = make([]int, len(aggs))
	for k, a := range aggs {
		if a.Kind == AggCount {
			colOf[k] = -1
			continue
		}
		s := schema.Col(a.Col).Slot()
		ci := -1
		for j, have := range slots {
			if have == s {
				ci = j
				break
			}
		}
		if ci < 0 {
			ci = len(slots)
			slots = append(slots, s)
		}
		colOf[k] = ci
	}
	return slots, colOf
}

// aggOp is the multi-aggregate accumulator: every select-list aggregate is
// folded in one pass. On the IMCU path each distinct aggregated column runs
// one masked kernel per batch — the kernel returns count/sum/min/max at once,
// so several aggregates over the same column cost a single fold.
type aggOp struct {
	specs []AggSpec
	slots []int // distinct aggregated column slots
	colOf []int // spec index -> cell index (-1 for COUNT)
	count int64
	cells []aggCell
}

func newAggOp(plan *queryPlan, schema *rowstore.Schema) *aggOp {
	o := &aggOp{specs: plan.aggs}
	o.slots, o.colOf = uniqueAggCols(plan.aggs, schema)
	o.cells = make([]aggCell, len(o.slots))
	for i := range o.cells {
		o.cells[i] = newAggCell()
	}
	return o
}

func (o *aggOp) beginUnit(*imcs.IMCU) {}
func (o *aggOp) flush()               {}

func (o *aggOp) foldBatch(r *taskResult, imcu *imcs.IMCU, base, n int, match []uint64) {
	cnt := imcs.PopcountRange(match, 0, n)
	if cnt == 0 {
		return
	}
	o.count += cnt
	if len(o.slots) == 0 {
		// COUNT-only: the popcount itself is the fold; nothing decoded.
		r.rowsEncoded += cnt
		return
	}
	for ci, s := range o.slots {
		a := imcu.NumCol(s).AggMasked(match, base, 0, n, r.s.aux)
		o.cells[ci].addMasked(a)
		r.rowsEncoded += a.EncodedRows
		r.rowsDecoded += a.Count - a.EncodedRows
	}
}

func (o *aggOp) foldRows(r *taskResult, b *rowBatch, match []uint64) {
	o.count += imcs.PopcountRange(match, 0, b.n)
	for ci, s := range o.slots {
		cell := o.cells[ci]
		for w := range match {
			for m := match[w]; m != 0; m &= m - 1 {
				cell.addVal(b.rows[w*64+bits.TrailingZeros64(m)].Num(s))
			}
		}
		o.cells[ci] = cell
	}
}

func (o *aggOp) foldDelta(r *taskResult, b *deltaBatch, match []uint64) {
	cnt := imcs.PopcountRange(match, 0, b.n)
	o.count += cnt
	if len(o.slots) == 0 {
		r.rowsEncoded += cnt
	}
	for ci, s := range o.slots {
		vals := r.s.aux[:b.n]
		b.nums(vals, s)
		cell := o.cells[ci]
		for w := range match {
			for m := match[w]; m != 0; m &= m - 1 {
				cell.addVal(vals[w*64+bits.TrailingZeros64(m)])
			}
		}
		o.cells[ci] = cell
		r.rowsDecoded += cnt
	}
}

func (o *aggOp) merge(other operator) {
	src := other.(*aggOp)
	o.count += src.count
	for i := range src.cells {
		o.cells[i].mergeCell(src.cells[i])
	}
}

func (o *aggOp) finish(res *Result) {
	res.Count = o.count
	res.AggVals = make([]int64, len(o.specs))
	for k, a := range o.specs {
		res.AggVals[k] = aggValue(a.Kind, o.count, o.cells, o.colOf[k])
	}
	// Legacy single-aggregate fields carry the first spec of each kind.
	var haveSum, haveMin, haveMax bool
	for k, a := range o.specs {
		switch {
		case a.Kind == AggSum && !haveSum:
			res.Sum, haveSum = res.AggVals[k], true
		case a.Kind == AggMin && !haveMin:
			res.Min, haveMin = res.AggVals[k], true
		case a.Kind == AggMax && !haveMax:
			res.Max, haveMax = res.AggVals[k], true
		}
	}
}

// maxDirectSlots bounds the code-indexed form of the unit-local group table:
// while the product of an IMCU's key-column code ranges fits it, a row's
// group slot is its composite key code; past it, one map probe per row finds
// the slot.
const maxDirectSlots = 1 << 16

// lkey is a fixed-width composite group key. Unit-local: dictionary codes for
// VARCHAR key columns, raw values for NUMBER ones. In the by-value table:
// interned string ids in place of the codes.
type lkey [maxGroupCols]int64

// aggSlab is flat group state: group g's matching-row count is count[g], its
// cells cells[g*nc : (g+1)*nc]. An empty group has count 0 and fresh cells.
type aggSlab struct {
	nc    int
	count []int64
	cells []aggCell
}

// grow extends the slab to n groups, the new ones empty.
func (s *aggSlab) grow(n int) {
	for len(s.count) < n {
		s.count = append(s.count, 0)
		for i := 0; i < s.nc; i++ {
			s.cells = append(s.cells, newAggCell())
		}
	}
}

// foldGroup merges group sg of src into group g.
func (s *aggSlab) foldGroup(g int, src *aggSlab, sg int) {
	s.count[g] += src.count[sg]
	for i := 0; i < s.nc; i++ {
		s.cells[g*s.nc+i].mergeCell(src.cells[sg*s.nc+i])
	}
}

// empty resets group g.
func (s *aggSlab) empty(g int) {
	s.count[g] = 0
	for i := g * s.nc; i < (g+1)*s.nc; i++ {
		s.cells[i] = newAggCell()
	}
}

// groupTable is a slab of groups with their keys, keys[g*nk : (g+1)*nk].
type groupTable struct {
	aggSlab
	nk   int
	keys []GroupValue
}

func (t *groupTable) key(g int) []GroupValue { return t.keys[g*t.nk : (g+1)*t.nk : (g+1)*t.nk] }

// put makes group g a copy of group sg of src, under key k.
func (t *groupTable) put(g int, k []GroupValue, src *aggSlab, sg int) {
	copy(t.keys[g*t.nk:], k)
	t.count[g] = src.count[sg]
	copy(t.cells[g*t.nc:(g+1)*t.nc], src.cells[sg*t.nc:])
}

// cmpKeys orders group keys as the result lists them: column by column, by
// string or by value (a NUMBER key's Str is empty, a VARCHAR key's Num zero).
func cmpKeys(a, b []GroupValue) int {
	for j := range a {
		if a[j].Str != b[j].Str { // equal is the common case, and the cheaper test
			return strings.Compare(a[j].Str, b[j].Str)
		}
		if a[j].Num != b[j].Num {
			return cmp.Compare(a[j].Num, b[j].Num)
		}
	}
	return 0
}

// groupLocal is the group operator's unit-local table, its by-value side
// table and its merge scratch. It lives in the worker's scratch: between
// flushes only the touched slots are non-empty, so a flush costs the groups
// seen, not the table's size.
type groupLocal struct {
	aggSlab
	touched []uint64       // direct form: bit s set when slot s was folded into since the last flush
	index   map[lkey]int32 // map-indexed form: key → slot (slots dense)
	keys    []lkey         // map-indexed form: slot → key
	slots   []int32        // a flush's touched slots, ascending
	pos     []int32        // a flush's merge verdicts

	// The by-value table, in arrival order; empty between queries. A single key
	// column indexes it by its value (byStr or byNum); a composite key interns
	// its VARCHAR values in byStr and indexes byKey. Nothing of it reaches the
	// result, and built per query it grew by doubling in every worker of every
	// query, garbage that showed in the OLTP client's p90 beside it.
	v     groupTable
	byStr map[string]int32
	byNum map[int64]int32
	byKey map[lkey]int32
	// held is where a key string that arrived as a view of a row image is copied
	// to: chunks of keys, an object a chunk, not one a key. The result takes the
	// chunks with its keys; flush lets go of them.
	held strings.Builder
}

// hold returns a copy of s that pins nothing but other held keys.
func (l *groupLocal) hold(s string) string {
	if len(s) == 0 {
		return ""
	}
	if l.held.Cap()-l.held.Len() < len(s) {
		l.held = strings.Builder{}
		l.held.Grow(max(2048, len(s)))
	}
	at := l.held.Len()
	l.held.WriteString(s)
	return l.held.String()[at:]
}

// maxPooledGroups bounds the by-value table a scratch keeps between queries
// (a grouped scan of a big table with no column store builds a larger one).
const maxPooledGroups = 1 << 14

// touch marks slot s of the direct form as folded into.
func (l *groupLocal) touch(s int) { l.touched[s>>6] |= 1 << (uint(s) & 63) }

// groupOp is the GROUP BY operator. During an IMCU scan a row's group is a
// slot of the unit-local slab, found by direct index on the composite key
// code — dictionary code for VARCHAR keys, value − min for NUMBER keys —
// when the unit's code ranges fit maxDirectSlots, through one map otherwise.
// Single-column NUMBER keys with run structure take a run-level fast path
// into the same slab: one slot lookup per (run × match-word window),
// aggregating values in encoded space. The local table outlives a morsel: it
// folds into the operator's table when the worker moves to another IMCU and
// at flush. That table is kept in key order and folding is a merge, not a
// lookup: codes order as their values do and composite slots
// lexicographically, so the direct form's touched slots in ascending order are
// a sorted run of keys, as is another worker's table. Labels are decoded once
// per (unit, group) and compared, never hashed, and finish emits without
// sorting.
//
// Keys that arrive by value — a row image of the unit's blocks (an invalid or
// tail row) whose key unitSlot cannot place in the unit's code space, a row of
// a block no unit covers, the groups of a map-indexed unit, whose slots are in
// first-seen order — collect in the scratch's hashed side table, sorted and
// merged in once, when the worker's scan ends. Result order is key order,
// independent of scan parallelism and task interleaving.
type groupOp struct {
	*queryPlan
	schema *rowstore.Schema
	slots  []int
	colOf  []int

	g       groupTable               // in key order
	byValue int                      // groups that came through the by-value table
	kv      [maxGroupCols]GroupValue // key assembly buffer

	unit   *imcs.IMCU  // the IMCU loc's slots are coded against
	loc    *groupLocal // the worker's, until its scan ends (flush): merge and finish run after
	pos    []int32     // merge's verdicts
	direct bool
	nslots int       // direct form: the slots the unit's code ranges span
	kmin   lkey      // per key column: code origin
	krange lkey      // per key column: code range size (direct form)
	vals   [][]int64 // per aggregated column: the batch's value window
}

func newGroupOp(plan *queryPlan, schema *rowstore.Schema, scratch *scanScratch) *groupOp {
	o := &groupOp{queryPlan: plan, schema: schema, loc: &scratch.group}
	o.slots, o.colOf = uniqueAggCols(plan.aggs, schema)
	o.vals = make([][]int64, len(o.slots))
	nk, nc := len(plan.groupBy), len(o.slots)
	o.g.nk, o.g.nc, o.loc.v.nk, o.loc.v.nc = nk, nc, nk, nc
	if o.loc.nc != nc {
		// Every slot is empty between queries, so a new cell width only
		// re-cuts the slab.
		o.loc.aggSlab = aggSlab{nc: nc, count: o.loc.count[:0], cells: o.loc.cells[:0]}
	}
	return o
}

// byValueSlot finds or creates the by-value table's group of a key. The key's
// strings may be views of a row image: a key that is new is copied, in kv, so
// that the table — and the result its keys end up in — pins no image.
func (o *groupOp) byValueSlot(kv []GroupValue) int {
	loc := o.loc
	next := int32(len(loc.v.count))
	var g int32
	switch {
	case len(kv) > 1:
		var ck lkey
		for j, v := range kv {
			if ck[j] = v.Num; v.IsStr {
				ck[j] = int64(loc.strID(&v.Str, int32(len(loc.byStr))))
			}
		}
		if g = getOrPut(&loc.byKey, ck, next); g == next {
			for j := range kv {
				kv[j].Str = loc.hold(kv[j].Str)
			}
		}
	case kv[0].IsStr:
		g = loc.strID(&kv[0].Str, next)
	default:
		g = getOrPut(&loc.byNum, kv[0].Num, next)
	}
	if g == next {
		loc.v.keys = append(loc.v.keys, kv...)
		loc.v.grow(int(g) + 1)
		o.byValue++
	}
	return int(g)
}

// getOrPut returns (*m)[k], after setting it to next when k is new; it makes
// the map when there is none.
func getOrPut[K comparable](m *map[K]int32, k K, next int32) int32 {
	if v, ok := (*m)[k]; ok {
		return v
	}
	if *m == nil {
		*m = map[K]int32{}
	}
	(*m)[k] = next
	return next
}

// strID is getOrPut on byStr for a string that may be a view: a new key is
// copied, in place, before the map keeps it.
func (l *groupLocal) strID(s *string, next int32) int32 {
	if v, ok := l.byStr[*s]; ok {
		return v
	}
	*s = l.hold(*s)
	return getOrPut(&l.byStr, *s, next)
}

// beginUnit points the local table at imcu. Morsels of one IMCU keep
// accumulating into it; a different IMCU recodes the slots, so the table
// flushes first.
func (o *groupOp) beginUnit(imcu *imcs.IMCU) {
	if imcu == o.unit {
		return
	}
	o.flushUnit()
	o.unit = imcu
	o.kmin, o.krange, o.nslots = o.keySpans(imcu)
	if o.direct = o.nslots <= maxDirectSlots; o.direct {
		o.loc.grow(o.nslots)
		for len(o.loc.touched)*64 < o.nslots {
			o.loc.touched = append(o.loc.touched, 0)
		}
	}
}

// keySpans returns, per key column, the origin and the size of its code range
// in imcu — dictionary codes for VARCHAR, min..max for NUMBER — and the size
// of the composite range: the slots a direct-indexed table needs. Sizes are
// clamped just past maxDirectSlots, so the product cannot wrap.
func (p *queryPlan) keySpans(imcu *imcs.IMCU) (origin, span lkey, slots int) {
	slots = 1
	for j, slot := range p.keySlots {
		if p.keyIsStr[j] {
			span[j] = int64(min(imcu.StrCol(slot).DictSize(), maxDirectSlots+1))
		} else {
			mn, mx := imcu.NumCol(slot).MinMax()
			origin[j], span[j] = mn, int64(min(uint64(mx-mn), maxDirectSlots))+1
		}
		slots = min(slots*int(span[j]), maxDirectSlots+1)
	}
	return origin, span, slots
}

// mapSlot is the map-indexed form's slot lookup.
func (o *groupOp) mapSlot(lk lkey) int64 {
	loc := o.loc
	s, ok := loc.index[lk]
	if !ok {
		if loc.index == nil {
			loc.index = map[lkey]int32{}
		}
		s = int32(len(loc.keys))
		loc.index[lk] = s
		loc.keys = append(loc.keys, lk)
		loc.grow(len(loc.keys))
	}
	return int64(s)
}

// slotKey decodes the key of local slot s into the key assembly buffer.
func (o *groupOp) slotKey(s int) []GroupValue {
	var lk lkey
	if o.direct {
		rem := int64(s)
		for j := len(o.keySlots) - 1; j > 0; j-- {
			lk[j] = rem%o.krange[j] + o.kmin[j]
			rem /= o.krange[j]
		}
		lk[0] = rem + o.kmin[0] // the leading column's: a single key divides nothing
	} else {
		lk = o.loc.keys[s]
	}
	for j, slot := range o.keySlots {
		if o.keyIsStr[j] {
			o.kv[j] = GroupValue{Str: o.unit.StrCol(slot).Value(lk[j]), IsStr: true}
		} else {
			o.kv[j] = GroupValue{Num: lk[j]}
		}
	}
	return o.kv[:len(o.keySlots)]
}

// flushUnit folds the local table's touched slots into the operator's tables
// and empties them: the direct form's, in ascending order, by merge; the
// map-indexed form's by value.
func (o *groupOp) flushUnit() {
	loc := o.loc
	if o.direct {
		slots := loc.slots[:0]
		for w, word := range loc.touched[:(o.nslots+63)/64] {
			for ; word != 0; word &= word - 1 {
				slots = append(slots, int32(w*64+bits.TrailingZeros64(word)))
			}
			loc.touched[w] = 0
		}
		loc.slots = slots
		o.mergeSorted(&loc.pos, len(slots), slots, &loc.aggSlab, o.slotKey)
		for _, s := range slots {
			loc.empty(int(s))
		}
	} else {
		for s := range loc.keys {
			loc.v.foldGroup(o.byValueSlot(o.slotKey(s)), &loc.aggSlab, s)
			loc.empty(s)
		}
		loc.keys = loc.keys[:0]
		clear(loc.index)
	}
	o.unit, o.direct, o.nslots = nil, false, 0
}

// flush ends the worker's scan: the last unit folds, then the keys that came
// by value are sorted, once, and merged in, and their table is left empty.
func (o *groupOp) flush() {
	o.flushUnit()
	loc := o.loc
	v := &loc.v
	if n := len(v.count); n > 0 {
		order := slices.Grow(loc.slots[:0], n)[:n]
		loc.slots = order
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int { return cmpKeys(v.key(int(a)), v.key(int(b))) })
		o.mergeSorted(&loc.pos, n, order, &v.aggSlab, v.key)
		if n > maxPooledGroups {
			*v, loc.byStr, loc.byNum, loc.byKey = groupTable{}, nil, nil, nil
		}
		clear(v.keys) // the scratch keeps no row image's or dictionary's string
		v.keys, v.count, v.cells = v.keys[:0], v.count[:0], v.cells[:0]
		clear(loc.byStr)
		clear(loc.byNum)
		clear(loc.byKey)
		loc.held = strings.Builder{}
	}
	o.loc = nil
}

// mergeSorted folds m groups of src whose keys ascend — the i-th is group
// slots[i] (group i when slots is nil), its key key(slots[i]) — into the
// operator's sorted table. One pass finds where each key stands: at the
// table's next key in the common case, a binary search ahead otherwise. When
// every key is already there the groups fold in place; new keys open their
// gaps in one backward pass. scratch holds the verdicts.
func (o *groupOp) mergeSorted(scratch *[]int32, m int, slots []int32, src *aggSlab, key func(slot int) []GroupValue) {
	if m == 0 {
		return
	}
	t := &o.g
	if t.count == nil {
		// A first merge brings a whole unit's groups, a measured floor on the
		// result's; the eighth on top is for the few values a unit happens not
		// to hold and a later one brings, which would else cost a second table.
		n := m + m/8 + 8
		t.keys = make([]GroupValue, 0, n*t.nk)
		t.count, t.cells = make([]int64, 0, n), make([]aggCell, 0, n*t.nc)
	}
	n := len(t.count)
	slotOf := func(i int) int {
		if slots == nil {
			return i
		}
		return int(slots[i])
	}
	// pos[i] is the table's group of key i, or ^p for a new key bound before p.
	pos := slices.Grow((*scratch)[:0], m)[:m]
	*scratch = pos
	p, fresh := 0, 0
	for i := range pos {
		k := key(slotOf(i))
		c := 1 // how the table's group p compares with k; past the end, above
		if p < n {
			if c = cmpKeys(t.key(p), k); c < 0 {
				p++
				p += sort.Search(n-p, func(d int) bool { return cmpKeys(t.key(p+d), k) >= 0 })
				if c = 1; p < n {
					c = cmpKeys(t.key(p), k)
				}
			}
		}
		if c == 0 {
			pos[i] = int32(p)
			p++
		} else {
			pos[i] = ^int32(p)
			fresh++
		}
	}
	if fresh == 0 {
		for i, g := range pos {
			t.foldGroup(int(g), src, slotOf(i))
		}
		return
	}
	t.grow(n + fresh)
	t.keys = slices.Grow(t.keys, fresh*t.nk)[:(n+fresh)*t.nk]
	// Backwards, so nothing is overwritten before it has moved: d is the place
	// being filled, g the last table group not yet moved up.
	g, i := n-1, m-1
	for d := n + fresh - 1; i >= 0; d-- {
		if at := pos[i]; at < 0 && int(^at) > g {
			t.put(d, key(slotOf(i)), src, slotOf(i))
			i--
			continue
		}
		if d != g {
			t.put(d, t.key(g), &t.aggSlab, g)
		}
		if int(pos[i]) == g {
			t.foldGroup(d, src, slotOf(i))
			i--
		}
		g--
	}
}

func (o *groupOp) foldBatch(r *taskResult, imcu *imcs.IMCU, base, n int, match []uint64) {
	loc := o.loc
	nk, nc := len(o.groupBy), loc.nc
	// Run-level fast path: a single NUMBER key with run structure visits each
	// run once and aggregates its match window in encoded space.
	if nk == 1 && !o.keyIsStr[0] {
		ok := imcu.NumCol(o.keySlots[0]).ForEachRun(base, 0, n, func(s, e int, v int64) {
			cnt := imcs.PopcountRange(match, s, e)
			if cnt == 0 {
				return
			}
			g := v - o.kmin[0]
			if !o.direct {
				g = o.mapSlot(lkey{v})
			} else if loc.count[g] == 0 {
				loc.touch(int(g))
			}
			loc.count[g] += cnt
			if nc == 0 {
				r.rowsEncoded += cnt
				return
			}
			for ci, slot := range o.slots {
				a := imcu.NumCol(slot).AggMasked(match, base, s, e, r.s.aux)
				loc.cells[int(g)*nc+ci].addMasked(a)
				r.rowsEncoded += a.EncodedRows
				r.rowsDecoded += a.Count - a.EncodedRows
			}
		})
		if ok {
			return
		}
	}

	// General path: decode key windows (codes for VARCHAR) and value windows,
	// where match still selects a row, then fold each surviving row.
	for j, slot := range o.keySlots {
		if ks := r.s.win(j)[:n]; o.keyIsStr[j] {
			imcu.StrCol(slot).DecodeCodesMasked(ks, base, match)
		} else {
			imcu.NumCol(slot).DecodeMasked(ks, base, match)
		}
	}
	for ci, slot := range o.slots {
		o.vals[ci] = r.s.win(nk + ci)[:n]
		imcu.NumCol(slot).DecodeMasked(o.vals[ci], base, match)
	}
	o.foldWindows(r, n, match)
}

// foldWindows folds the rows match selects of n whose keys, in the unit's code
// space, lie in the scratch's first windows and whose aggregated columns in
// o.vals: the keys turn into a window of slots, then each row folds.
func (o *groupOp) foldWindows(r *taskResult, n int, match []uint64) {
	loc := o.loc
	nk, nc := len(o.groupBy), loc.nc
	sl := r.s.win(0)[:n]
	switch {
	case !o.direct:
		for w := 0; w < (n+63)/64; w++ {
			for m := match[w]; m != 0; m &= m - 1 {
				i := w*64 + bits.TrailingZeros64(m)
				var lk lkey
				for j := 0; j < nk; j++ {
					lk[j] = r.s.wins[j][i]
				}
				sl[i] = o.mapSlot(lk)
			}
		}
	case nk > 1 || o.kmin[0] != 0:
		for i := range sl {
			sl[i] -= o.kmin[0]
		}
		for j := 1; j < nk; j++ {
			kj, mn, span := r.s.wins[j][:n], o.kmin[j], o.krange[j]
			for i := range sl {
				sl[i] = sl[i]*span + kj[i] - mn
			}
		}
	}
	var matched int64
	count, cells, vals, touched, direct := loc.count, loc.cells, o.vals, loc.touched, o.direct
	for w := 0; w < (n+63)/64; w++ {
		matched += int64(bits.OnesCount64(match[w]))
		for m := match[w]; m != 0; m &= m - 1 {
			i := w*64 + bits.TrailingZeros64(m)
			g := int(sl[i])
			if count[g] == 0 && direct {
				touched[g>>6] |= 1 << (uint(g) & 63)
			}
			count[g]++
			for ci, vs := range vals {
				cells[g*nc+ci].addVal(vs[i])
			}
		}
	}
	r.rowsDecoded += matched * int64(max(nc, 1))
}

// foldDelta gathers the key and value windows position by position, patched,
// and folds them as foldBatch does a decoded window's. A key outside the unit's
// code space — a patched VARCHAR its dictionary lacks, a patched NUMBER beyond a
// direct-indexed table's range — goes to the by-value table first.
func (o *groupOp) foldDelta(r *taskResult, b *deltaBatch, match []uint64) {
	loc, n, nk := o.loc, b.n, len(o.keySlots)
	for j, slot := range o.keySlots {
		if ks := r.s.win(j)[:n]; o.keyIsStr[j] {
			b.codes(ks, slot)
		} else {
			b.nums(ks, slot)
		}
	}
	for ci, slot := range o.slots {
		o.vals[ci] = r.s.win(nk + ci)[:n]
		b.nums(o.vals[ci], slot)
	}
	for w := range match {
		for m := match[w]; m != 0; m &= m - 1 {
			i := w*64 + bits.TrailingZeros64(m)
			coded := true
			for j := range o.keySlots {
				if k := r.s.wins[j][i]; o.keyIsStr[j] {
					coded = coded && k >= 0
				} else {
					coded = coded && (!o.direct || uint64(k-o.kmin[j]) < uint64(o.krange[j]))
				}
			}
			if coded {
				continue
			}
			for j, ks := range o.keySlots {
				if k := r.s.wins[j][i]; o.keyIsStr[j] {
					o.kv[j] = GroupValue{Str: b.view.Str(o.unit.StrCol(ks), k), IsStr: true}
				} else {
					o.kv[j] = GroupValue{Num: k}
				}
			}
			match[w] &^= 1 << uint(i%64)
			g := o.byValueSlot(o.kv[:nk])
			loc.v.count[g]++
			for ci, vs := range o.vals {
				loc.v.cells[g*loc.v.nc+ci].addVal(vs[i])
			}
			r.rowsDecoded += int64(max(loc.nc, 1))
		}
	}
	o.foldWindows(r, n, match)
}

// unitSlot translates the key of a row image read at (blk, slot) into the
// current unit's code space and returns its slot of the local table; ok is
// false for a key the image does not show to be one of the unit's — a VARCHAR
// value other than the one the IMCU holds for that row (an update usually
// leaves the key alone, so that one comparison settles most invalid rows; a
// tail row is not in the IMCU), or a NUMBER outside the range a direct-indexed
// table spans. Searching the sorted dictionary for the rest was tried and lost
// to the by-value table's one map probe: the dictionary's strings are
// scattered heap objects, and a search misses the cache on half of its ten
// comparisons (380 ns a search in the paced stage's profile).
func (o *groupOp) unitSlot(row rowstore.Image, blk rowstore.BlockNo, at uint16) (slot int, ok bool) {
	var lk lkey
	for j, ks := range o.keySlots {
		if !o.keyIsStr[j] {
			lk[j] = row.Num(ks)
			continue
		}
		pos, held := o.unit.RowIndexOf(blk, at)
		if !held {
			return 0, false
		}
		col := o.unit.StrCol(ks)
		if lk[j] = col.CodeAt(pos); col.Value(lk[j]) != row.Str(ks) {
			return 0, false
		}
	}
	if !o.direct {
		return int(o.mapSlot(lk)), true
	}
	for j := range o.keySlots {
		d := lk[j] - o.kmin[j]
		if uint64(d) >= uint64(o.krange[j]) {
			return 0, false
		}
		slot = slot*int(o.krange[j]) + int(d)
	}
	if o.loc.count[slot] == 0 {
		o.loc.touch(slot)
	}
	return slot, true
}

func (o *groupOp) foldRows(r *taskResult, b *rowBatch, match []uint64) {
	loc, nk := o.loc, len(o.keySlots)
	coded := b.imcu != nil // then beginUnit has named it: it is o.unit
	for w := range match {
		for m := match[w]; m != 0; m &= m - 1 {
			i := w*64 + bits.TrailingZeros64(m)
			row := b.rows[i]
			slab := &loc.aggSlab
			g, ok := 0, false
			if coded {
				g, ok = o.unitSlot(row, b.blks[i], b.slots[i])
			}
			if !ok {
				// A key this unit has never held, or a block of no unit.
				for j, ks := range o.keySlots {
					if o.keyIsStr[j] {
						o.kv[j] = GroupValue{Str: row.Str(ks), IsStr: true}
					} else {
						o.kv[j] = GroupValue{Num: row.Num(ks)}
					}
				}
				g, slab = o.byValueSlot(o.kv[:nk]), &loc.v.aggSlab
			}
			slab.count[g]++
			for ci, s := range o.slots {
				slab.cells[g*slab.nc+ci].addVal(row.Num(s))
			}
		}
	}
}

// merge folds another worker's table into this one's, as sorted as it.
func (o *groupOp) merge(other operator) {
	src := other.(*groupOp)
	o.mergeSorted(&o.pos, len(src.g.count), nil, &src.g.aggSlab, src.g.key)
	o.byValue += src.byValue
}

func (o *groupOp) finish(res *Result) {
	ns, n := len(o.aggs), len(o.g.count)
	g := &GroupedResult{Groups: make([]GroupRow, n)}
	for _, ci := range o.groupBy {
		g.KeyCols = append(g.KeyCols, o.schema.Col(ci).Name)
	}
	for _, a := range o.aggs {
		g.AggCols = append(g.AggCols, aggLabel(a, o.schema))
	}
	// Every group's keys stay in the operator's key slab, its values go to
	// one slab of their own.
	vals := make([]int64, n*ns)
	var total int64
	for i := range g.Groups {
		row := &g.Groups[i]
		row.Keys = o.g.key(i)
		row.Vals = vals[i*ns : (i+1)*ns : (i+1)*ns]
		row.Count = o.g.count[i]
		total += row.Count
		for k, a := range o.aggs {
			row.Vals[k] = aggValue(a.Kind, row.Count, o.g.cells[i*o.g.nc:], o.colOf[k])
		}
	}
	res.Grouped = g
	res.GroupCount = int64(n)
	res.Count = total
}
