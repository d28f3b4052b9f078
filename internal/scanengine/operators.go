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
// it too.
type operator interface {
	beginUnit(imcu *imcs.IMCU)
	foldBatch(r *taskResult, imcu *imcs.IMCU, base, n int, match []uint64)
	flush()
	foldRows(r *taskResult, b *rowBatch, match []uint64)
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
	if len(o.idx) == 0 {
		return
	}
	start := len(o.rows)
	for range o.idx {
		o.rows = append(o.rows, rowstore.NewRow(o.schema))
	}
	// Decode a column's whole window once when at least 1/8 of it survives;
	// point-get for selective batches.
	dense := len(o.idx)*8 >= n
	for _, s := range o.numSlots {
		col := imcu.NumCol(s)
		if dense {
			vals := r.s.aux[:n]
			col.Decode(vals, base)
			for k, i := range o.idx {
				o.rows[start+k].Nums[s] = vals[i]
			}
		} else {
			for k, i := range o.idx {
				o.rows[start+k].Nums[s] = col.Get(base + int(i))
			}
		}
	}
	for _, s := range o.strSlots {
		col := imcu.StrCol(s)
		if dense {
			codes := r.s.aux[:n]
			col.DecodeCodes(codes, base)
			for k, i := range o.idx {
				o.rows[start+k].Strs[s] = col.Value(codes[i])
			}
		} else {
			for k, i := range o.idx {
				o.rows[start+k].Strs[s] = col.Get(base + int(i))
			}
		}
	}
	if o.ordered {
		for _, i := range o.idx {
			blk, slot := imcu.AddrOfRow(base + int(i))
			o.keys = append(o.keys, orderKey(r.curPart, blk, slot))
		}
	}
}

func (o *rowsOp) foldRows(r *taskResult, b *rowBatch, match []uint64) {
	o.idx = collectIdx(o.idx, match, b.n)
	for _, i := range o.idx {
		o.rows = append(o.rows, projectRow(o.q, o.schema, b.rows[i]))
		if o.ordered {
			o.keys = append(o.keys, orderKey(r.curPart, b.blks[i], b.slots[i]))
		}
	}
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
				cell.addVal(b.rows[w*64+bits.TrailingZeros64(m)].Nums[s])
			}
		}
		o.cells[ci] = cell
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
// VARCHAR key columns, raw values for NUMBER ones. Global: interned string
// ids in place of the codes.
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

// groupLocal is the group operator's unit-local table. It lives in the
// worker's scratch: between flushes only the touched slots are non-empty, so
// a flush costs the groups seen, not the table's size.
type groupLocal struct {
	aggSlab
	touched []int32        // slots folded into since the last flush
	index   map[lkey]int32 // map-indexed form: key → slot (slots dense)
	keys    []lkey         // map-indexed form: slot → key
	// lastGroups is the size of the global table at the worker's last flush,
	// of this query or the one before it: what a global table is built for
	// when a key reaches it before any flush of its own has measured one.
	lastGroups int
}

// groupOp is the GROUP BY operator. During an IMCU scan a row's group is a
// slot of the unit-local slab, found by direct index on the composite key
// code — dictionary code for VARCHAR keys, value − min for NUMBER keys —
// when the unit's code ranges fit maxDirectSlots, through one map otherwise.
// Single-column NUMBER keys with run structure take a run-level fast path
// into the same slab: one slot lookup per (run × match-word window),
// aggregating values in encoded space. The local table outlives a morsel:
// it folds into the global one — decoding labels once per (unit, group), not
// per row — when the worker moves to another IMCU and at flush. A row image
// of the unit's blocks (an invalid or tail row) folds into the same slab when
// its key translates to the unit's code space (unitSlot), into the global
// table by value otherwise, as do the rows of blocks no unit covers. finish
// emits groups in
// deterministic key order, independent of scan parallelism and task
// interleaving.
type groupOp struct {
	*queryPlan
	schema *rowstore.Schema
	slots  []int
	colOf  []int

	// Global table: group g's key values are gkeys[g*nk : (g+1)*nk]. A single
	// key column indexes it by its value (byStr or byNum); a composite key
	// interns its VARCHAR values in byStr and indexes byKey.
	g     aggSlab
	gkeys []GroupValue
	byStr map[string]int32
	byNum map[int64]int32
	byKey map[lkey]int32
	kv    [maxGroupCols]GroupValue // key assembly buffer

	unit   *imcs.IMCU // the IMCU loc's slots are coded against
	loc    *groupLocal
	direct bool
	kmin   lkey      // per key column: code origin
	krange lkey      // per key column: code range size (direct form)
	vals   [][]int64 // per aggregated column: the batch's value window
}

func newGroupOp(plan *queryPlan, schema *rowstore.Schema, scratch *scanScratch) *groupOp {
	o := &groupOp{queryPlan: plan, schema: schema, loc: &scratch.group}
	o.slots, o.colOf = uniqueAggCols(plan.aggs, schema)
	o.vals = make([][]int64, len(o.slots))
	o.g.nc = len(o.slots)
	if o.loc.nc != o.g.nc {
		// Every slot is empty between queries, so a new cell width only
		// re-cuts the slab.
		o.loc.aggSlab = aggSlab{nc: o.g.nc, count: o.loc.count[:0], cells: o.loc.cells[:0]}
	}
	return o
}

// reserve builds the global table, unless it is built, with room for n groups.
func (o *groupOp) reserve(n int) {
	if o.byStr != nil || o.byNum != nil {
		return
	}
	nk := len(o.groupBy)
	o.gkeys = make([]GroupValue, 0, n*nk)
	o.g.count, o.g.cells = make([]int64, 0, n), make([]aggCell, 0, n*o.g.nc)
	switch {
	case nk > 1:
		o.byStr, o.byKey = map[string]int32{}, make(map[lkey]int32, n)
	case o.keyIsStr[0]:
		o.byStr = make(map[string]int32, n)
	default:
		o.byNum = make(map[int64]int32, n)
	}
}

// globalSlot finds or creates the global group of a key.
func (o *groupOp) globalSlot(kv []GroupValue) int {
	o.reserve(o.sizeHint())
	next := int32(len(o.g.count))
	var g int32
	switch {
	case len(kv) > 1:
		var ck lkey
		for j, v := range kv {
			if ck[j] = v.Num; v.IsStr {
				ck[j] = int64(getOrPut(o.byStr, v.Str, int32(len(o.byStr))))
			}
		}
		g = getOrPut(o.byKey, ck, next)
	case kv[0].IsStr:
		g = getOrPut(o.byStr, kv[0].Str, next)
	default:
		g = getOrPut(o.byNum, kv[0].Num, next)
	}
	if g == next {
		o.gkeys = append(o.gkeys, kv...)
		o.g.grow(int(g) + 1)
	}
	return int(g)
}

// sizeHint guesses the global table's size for a key that arrives before any
// flush has measured one — a row image that unitSlot could not place, or one
// of a block no unit covers: the worker's last measured table or, when
// larger, the dictionary of the unit at hand, which bounds a single VARCHAR
// key's groups. Built empty, the table of a 1 000-group query grew by
// doubling in every worker of every query, and that garbage showed in the
// OLTP client's p90 beside it.
func (o *groupOp) sizeHint() int {
	n := o.loc.lastGroups
	if o.unit != nil && len(o.keySlots) == 1 && o.keyIsStr[0] {
		n = max(n, o.unit.StrCol(o.keySlots[0]).DictSize())
	}
	return n
}

// getOrPut returns m[k], after setting it to next when k is new.
func getOrPut[K comparable](m map[K]int32, k K, next int32) int32 {
	if v, ok := m[k]; ok {
		return v
	}
	m[k] = next
	return next
}

// beginUnit points the local table at imcu. Morsels of one IMCU keep
// accumulating into it; a different IMCU recodes the slots, so the table
// flushes first.
func (o *groupOp) beginUnit(imcu *imcs.IMCU) {
	if imcu == o.unit {
		return
	}
	o.flush()
	o.unit = imcu
	var slots int
	o.kmin, o.krange, slots = o.keySpans(imcu)
	if o.direct = slots <= maxDirectSlots; o.direct {
		o.loc.grow(slots)
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

// flush folds the local table's touched slots into the global table and
// empties them.
func (o *groupOp) flush() {
	loc, nk := o.loc, len(o.groupBy)
	if len(loc.touched) > 0 {
		// A first flush brings a whole unit's groups: a measured floor on the
		// result's, where the key's code range would be a guess.
		o.reserve(len(loc.touched))
	}
	for _, s := range loc.touched {
		var lk lkey
		if o.direct {
			rem := int64(s)
			for j := nk - 1; j >= 0; j-- {
				lk[j] = rem%o.krange[j] + o.kmin[j]
				rem /= o.krange[j]
			}
		} else {
			lk = loc.keys[s]
		}
		for j, slot := range o.keySlots {
			if o.keyIsStr[j] {
				o.kv[j] = GroupValue{Str: o.unit.StrCol(slot).Value(lk[j]), IsStr: true}
			} else {
				o.kv[j] = GroupValue{Num: lk[j]}
			}
		}
		o.g.foldGroup(o.globalSlot(o.kv[:nk]), &loc.aggSlab, int(s))
		loc.count[s] = 0
		for i := int(s) * loc.nc; i < (int(s)+1)*loc.nc; i++ {
			loc.cells[i] = newAggCell()
		}
	}
	loc.touched = loc.touched[:0]
	loc.keys = loc.keys[:0]
	clear(loc.index)
	if n := len(o.g.count); n > 0 {
		loc.lastGroups = n
	}
	o.unit = nil
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
			}
			if loc.count[g] == 0 {
				loc.touched = append(loc.touched, int32(g))
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
	// turn the keys into a window of slots, then fold each surviving row.
	sl := r.s.win(0)[:n]
	for j, slot := range o.keySlots {
		if ks := r.s.win(j)[:n]; o.keyIsStr[j] {
			imcu.StrCol(slot).DecodeCodes(ks, base)
		} else {
			imcu.NumCol(slot).Decode(ks, base)
		}
	}
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
	for ci, slot := range o.slots {
		o.vals[ci] = r.s.win(nk + ci)[:n]
		imcu.NumCol(slot).Decode(o.vals[ci], base)
	}
	var matched int64
	count, cells, vals, touched := loc.count, loc.cells, o.vals, loc.touched
	for w := 0; w < (n+63)/64; w++ {
		matched += int64(bits.OnesCount64(match[w]))
		for m := match[w]; m != 0; m &= m - 1 {
			i := w*64 + bits.TrailingZeros64(m)
			g := int(sl[i])
			if count[g] == 0 {
				touched = append(touched, int32(g))
			}
			count[g]++
			for ci, vs := range vals {
				cells[g*nc+ci].addVal(vs[i])
			}
		}
	}
	loc.touched = touched
	r.rowsDecoded += matched * int64(max(nc, 1))
}

// unitSlot translates the key of a row image read at (blk, slot) into the
// current unit's code space and returns its slot of the local table; ok is
// false for a key the image does not show to be one of the unit's — a VARCHAR
// value other than the one the IMCU holds for that row (an update usually
// leaves the key alone, so that one comparison settles most invalid rows; a
// tail row is not in the IMCU), or a NUMBER outside the range a direct-indexed
// table spans. Searching the sorted dictionary for the rest was tried and lost
// to the global table's one map probe: the dictionary's strings are scattered
// heap objects, and a search misses the cache on half of its ten comparisons
// (380 ns a search in the paced stage's profile).
func (o *groupOp) unitSlot(row rowstore.Row, blk rowstore.BlockNo, at uint16) (slot int, ok bool) {
	var lk lkey
	for j, ks := range o.keySlots {
		if !o.keyIsStr[j] {
			lk[j] = row.Nums[ks]
			continue
		}
		pos, held := o.unit.RowIndexOf(blk, at)
		if !held {
			return 0, false
		}
		col := o.unit.StrCol(ks)
		if lk[j] = col.CodeAt(pos); col.Value(lk[j]) != row.Strs[ks] {
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
			if ok {
				if loc.count[g] == 0 {
					loc.touched = append(loc.touched, int32(g))
				}
			} else {
				// A key this unit has never held, or a block of no unit.
				for j, ks := range o.keySlots {
					if o.keyIsStr[j] {
						o.kv[j] = GroupValue{Str: row.Strs[ks], IsStr: true}
					} else {
						o.kv[j] = GroupValue{Num: row.Nums[ks]}
					}
				}
				g, slab = o.globalSlot(o.kv[:nk]), &o.g
			}
			slab.count[g]++
			for ci, s := range o.slots {
				slab.cells[g*slab.nc+ci].addVal(row.Nums[s])
			}
		}
	}
}

func (o *groupOp) merge(other operator) {
	src := other.(*groupOp)
	nk := len(o.groupBy)
	for sg := range src.g.count {
		o.g.foldGroup(o.globalSlot(src.gkeys[sg*nk:(sg+1)*nk]), &src.g, sg)
	}
}

func (o *groupOp) finish(res *Result) {
	nk, ns, n := len(o.groupBy), len(o.aggs), len(o.g.count)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		ka, kb := o.gkeys[a*nk:][:nk], o.gkeys[b*nk:][:nk]
		for j := range ka {
			// A NUMBER key's Str is empty and a VARCHAR key's Num zero.
			if c := cmp.Or(strings.Compare(ka[j].Str, kb[j].Str), cmp.Compare(ka[j].Num, kb[j].Num)); c != 0 {
				return c
			}
		}
		return 0
	})
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
	for i, gi := range order {
		row := &g.Groups[i]
		row.Keys = o.gkeys[gi*nk : (gi+1)*nk : (gi+1)*nk]
		row.Vals = vals[i*ns : (i+1)*ns : (i+1)*ns]
		row.Count = o.g.count[gi]
		total += row.Count
		for k, a := range o.aggs {
			row.Vals[k] = aggValue(a.Kind, row.Count, o.g.cells[gi*o.g.nc:], o.colOf[k])
		}
	}
	res.Grouped = g
	res.GroupCount = int64(n)
	res.Count = total
}
