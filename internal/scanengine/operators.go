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

// This file holds the batch operator pipeline: the matching rows of a scan
// flow into exactly one operator — rowsOp (late materialization), aggOp
// (multi-aggregate accumulator) or groupOp (code-indexed GROUP BY) — a batch
// at a time, through one fold per operator that reads the batch's columns from
// its source (source.go): a decoded IMCU window, the window ⊕ the unit's
// column delta, or row images from the row store. So hybrid results stay
// exact at QuerySCN with one copy of each operator.

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
// aggregate list and the GROUP BY key columns.
type queryPlan struct {
	aggs    []AggSpec
	groupBy []int
	// Per GROUP BY column: its slot among the columns of its kind.
	keySlots []int
	keyIsStr []bool
}

// planQuery validates a query's filter columns and normalizes and validates
// its aggregate/grouping shape.
func planQuery(q *Query, schema *rowstore.Schema) (*queryPlan, error) {
	for _, f := range q.Filters {
		if f.Col < 0 || f.Col >= schema.NumCols() {
			return nil, fmt.Errorf("scanengine: filter column %d out of range", f.Col)
		}
	}
	p := &queryPlan{aggs: q.Aggs, groupBy: q.GroupBy}
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
	case AggSum, AggMin, AggMax:
		return [...]string{AggSum: "SUM(", AggMin: "MIN(", AggMax: "MAX("}[a.Kind] + schema.Col(a.Col).Name + ")"
	}
	return "?"
}

// operator consumes the matching rows of one scan task stream. fold receives
// a batch of src and a match bitmap over its positions; when src has an IMCU,
// beginUnit has named it (code-keyed state lives until the codes change
// meaning: a unit of another key space). flush ends the worker's scan, after
// which merge and finish see no unit-local state.
type operator interface {
	beginUnit(imcu *imcs.IMCU)
	fold(r *taskResult, src source, match []uint64)
	flush()
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
		return newRowsOp(q, schema, ordered, scratch)
	}
}

// orderKey is the RowID sort key of one row: partition index, block, slot.
// BlockNo is 32 bits and slots 16, leaving 16 bits for the partition index.
func orderKey(part int, blk rowstore.BlockNo, slot uint16) uint64 {
	return uint64(part)<<48 | uint64(blk)<<16 | uint64(slot)
}

// rowsOp materializes matching rows (queries without Aggs), gathered late:
// only the projected columns are read from the source.
type rowsOp struct {
	schema   *rowstore.Schema
	ordered  bool
	numSlots []int
	strSlots []int

	// The worker's scratch holds in sel the positions in unit of the window
	// rows that wait to be gathered (gather).
	s    *scanScratch
	unit *imcs.IMCU

	rows []rowstore.Row
	keys []uint64
}

func newRowsOp(q *Query, schema *rowstore.Schema, ordered bool, scratch *scanScratch) *rowsOp {
	o := &rowsOp{schema: schema, ordered: ordered, s: scratch}
	for ci := 0; ci < schema.NumCols(); ci++ {
		switch col := schema.Col(ci); {
		case q.Project != nil && !slices.Contains(q.Project, ci):
		case col.Kind == rowstore.KindNumber:
			o.numSlots = append(o.numSlots, col.Slot())
		default:
			o.strSlots = append(o.strSlots, col.Slot())
		}
	}
	o.s.sel = o.s.sel[:0]
	return o
}

func (o *rowsOp) beginUnit(*imcs.IMCU) {}
func (o *rowsOp) flush()               { o.gather() }

// fold appends one result row per selected position. The positions of a
// clean window's rows, under an eighth of its batch, wait with those of the
// unit's next windows to be gathered by column: decoding a group of 64 rows
// for one costs more than a point lookup. A denser batch, and rows of another
// source, are filled a column at a time from the source, after the rows that
// wait, so the result keeps the order of the folds: a lookup in a run-length
// encoded column is a search, where decoding walks its runs once
// (BenchmarkScanClean/all-rle). A row image's strings are copied out, into one
// more object: a result row references no image.
func (o *rowsOp) fold(r *taskResult, src source, match []uint64) {
	n := src.size()
	k := int(imcs.PopcountRange(match, 0, n))
	if o.ordered {
		o.keys = src.orderKeys(o.keys, r.curPart, match)
	}
	if win, ok := src.(*window); ok && k*8 < n {
		if win.imcu != o.unit || len(o.s.sel)+k > batchSize {
			o.gather()
			o.unit = win.imcu
		}
		for w, m := range match {
			for ; m != 0; m &= m - 1 {
				o.s.sel = append(o.s.sel, int32(win.base+w*64+bits.TrailingZeros64(m)))
			}
		}
		return
	}
	o.gather()
	nn, ns := o.schema.NumberSlots(), o.schema.VarcharSlots()
	nums, strs := o.slabs(k)
	for _, s := range o.numSlots {
		src.nums(r.s.num[:n], s, 0, match)
		j := s
		each(match, func(i int) { nums[j], j = r.s.num[i], j+nn })
	}
	for _, s := range o.strSlots {
		src.strs(r.s.strs[:n], s, 0, match)
		j := s
		each(match, func(i int) { strs[j], j = r.s.strs[i], j+ns })
	}
	if _, images := src.(*rowBatch); images {
		rowstore.CompactStrs(strs)
	}
}

// gather materializes the rows that wait, by column: each column one tight
// loop straight into the result rows, a VARCHAR one by code as a view into its
// dictionary.
func (o *rowsOp) gather() {
	pos := o.s.sel
	if len(pos) == 0 {
		return
	}
	nn, ns := o.schema.NumberSlots(), o.schema.VarcharSlots()
	nums, strs := o.slabs(len(pos))
	for _, s := range o.numSlots {
		o.unit.NumCol(s).Gather(nums[s:], nn, pos)
	}
	for _, s := range o.strSlots {
		col := o.unit.StrCol(s)
		for j, p := range pos {
			strs[j*ns+s] = col.Value(col.CodeAt(int(p)))
		}
	}
	o.s.sel = pos[:0]
}

// slabs appends k result rows, cut from one slab of numbers and one of strings
// in the table's slot layout — two objects, not two a row — and returns the
// slabs. Full-capacity slices, so appending to one row cannot reach its
// neighbour.
func (o *rowsOp) slabs(k int) ([]int64, []string) {
	nn, ns := o.schema.NumberSlots(), o.schema.VarcharSlots()
	nums, strs := make([]int64, k*nn), make([]string, k*ns)
	for j := 0; j < k; j++ {
		o.rows = append(o.rows, rowstore.Row{Nums: nums[j*nn : (j+1)*nn : (j+1)*nn], Strs: strs[j*ns : (j+1)*ns : (j+1)*ns]})
	}
	return nums, strs
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
	if a.Count != 0 {
		c.mergeCell(aggCell{a.Sum, a.Min, a.Max})
	}
}

func (c *aggCell) mergeCell(o aggCell) {
	c.sum, c.min, c.max = c.sum+o.sum, min(c.min, o.min), max(c.max, o.max)
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

// uniqueAggCols computes the distinct value slots the aggregate list reads,
// per spec the index of its slot's cell (-1 for COUNT), and per slot the parts
// of its cell some spec reads: only those are folded.
func uniqueAggCols(aggs []AggSpec, schema *rowstore.Schema) (slots, colOf []int, kinds []imcs.AggKinds) {
	colOf = make([]int, len(aggs))
	for k, a := range aggs {
		if a.Kind == AggCount {
			colOf[k] = -1
			continue
		}
		s := schema.Col(a.Col).Slot()
		if colOf[k] = slices.Index(slots, s); colOf[k] < 0 {
			colOf[k], slots, kinds = len(slots), append(slots, s), append(kinds, 0)
		}
		kinds[colOf[k]] |= imcs.FoldSum << (a.Kind - AggSum)
	}
	return slots, colOf, kinds
}

// aggOp is the multi-aggregate accumulator: every select-list aggregate is
// folded in one pass. On the IMCU path each distinct aggregated column runs
// one masked kernel per batch — the kernel returns count/sum/min/max at once,
// so several aggregates over the same column cost a single fold.
type aggOp struct {
	specs []AggSpec
	slots []int           // distinct aggregated column slots
	colOf []int           // spec index -> cell index (-1 for COUNT)
	kinds []imcs.AggKinds // per slot: the parts of its cell the specs read
	count int64
	cells []aggCell
}

func newAggOp(plan *queryPlan, schema *rowstore.Schema) *aggOp {
	o := &aggOp{specs: plan.aggs}
	o.slots, o.colOf, o.kinds = uniqueAggCols(plan.aggs, schema)
	o.cells = make([]aggCell, len(o.slots))
	for i := range o.cells {
		o.cells[i] = newAggCell()
	}
	return o
}

func (o *aggOp) beginUnit(*imcs.IMCU) {}
func (o *aggOp) flush()               {}

// fold runs the source's masked aggregate once per distinct column, for the
// parts of its cell the specs read. Over a clean window, a minimum already at
// or below the unit's storage-index minimum can fall no further in it, nor a
// maximum rise: the column folds for what is left, or is only counted. Folds
// over rows the column store served count by how they would run with every
// part (a settled part spares work, not a fold); row images count under
// neither.
func (o *aggOp) fold(r *taskResult, src source, match []uint64) {
	cnt := imcs.PopcountRange(match, 0, src.size())
	o.count += cnt
	_, images := src.(*rowBatch)
	if len(o.slots) == 0 && !images {
		// COUNT-only: the popcount itself is the fold; nothing decoded.
		r.cnt[cEncoded] += cnt
	}
	win, clean := src.(*window)
	for ci, s := range o.slots {
		var a imcs.MaskedAgg
		if clean { // the packed kernel: RLE and constant columns fold run by run
			col, kinds := win.imcu.NumCol(s), o.kinds[ci]
			mn, mx := col.MinMax()
			if o.cells[ci].min <= mn {
				kinds &^= imcs.FoldMin
			}
			if o.cells[ci].max >= mx {
				kinds &^= imcs.FoldMax
			}
			a = col.FoldMasked(kinds, match, win.base, 0, win.n, r.s.aux)
		} else {
			a = gatherAgg(src, s, o.kinds[ci], match, r.s.aux)
		}
		o.cells[ci].addMasked(a)
		if !images {
			r.cnt[cEncoded] += a.EncodedRows
			r.cnt[cDecoded] += a.Count - a.EncodedRows
		}
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
}

// maxDirectSlots bounds the unit-local group table: while the product of an
// IMCU's key-column code ranges fits it, a row's group slot is its composite
// key code; past it, every row's key goes to the by-value table.
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
	touched []uint64 // bit s set when slot s was folded into since the last flush
	slots   []int32  // a flush's touched slots, ascending
	pos     []int32  // a flush's merge verdicts

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

// touch marks slot s as folded into.
func (l *groupLocal) touch(s int) { l.touched[s>>6] |= 1 << (uint(s) & 63) }

// groupOp is the GROUP BY operator. During an IMCU scan a row's group is a
// slot of the unit-local slab, found by direct index on the composite key
// code — dictionary code for VARCHAR keys, value − min for NUMBER keys — while
// the unit's code ranges fit maxDirectSlots. Single-column NUMBER keys with
// run structure take a run-level fast path into the same slab: one slot
// lookup per (run × match-word window), aggregating values in encoded space.
// The local table outlives a morsel and a unit: it folds into the operator's
// table when the worker moves to a unit of another key space (keySpace: units
// of a store share their dictionaries) and at flush. That table is kept in key
// order and folding is a merge, not a lookup: codes order as their values do
// and composite slots lexicographically, so the touched slots in ascending
// order are a sorted run of keys, as is another worker's table. Labels are
// decoded once per (unit, group) and compared, never hashed, and finish emits
// without sorting.
//
// Keys that arrive by value — a row image or a delta-patched row whose key
// lies outside the unit's code space, a row of a block no unit covers, every
// row of a unit whose code ranges are too wide for the slab — collect in the
// scratch's hashed side table, sorted and merged in once, when the worker's
// scan ends. Result order is key order, independent of scan parallelism and
// task interleaving.
type groupOp struct {
	*queryPlan
	schema *rowstore.Schema
	slots  []int
	colOf  []int
	kinds  []imcs.AggKinds

	g       groupTable               // in key order
	byValue int                      // groups that came through the by-value table
	kv      [maxGroupCols]GroupValue // key assembly buffer

	unit   *imcs.IMCU  // the IMCU whose rows fold now; loc's slots are of its key space
	loc    *groupLocal // the worker's, until its scan ends (flush): merge and finish run after
	pos    []int32     // merge's verdicts
	direct bool        // the key space fits the slab
	nslots int         // the slots it spans
	keySpace
	flushes int // unit-local tables merged into g, this worker's and those merged in
}

// keySpace is what a code of the unit-local table means: per key column its
// origin and the size of its range, and for a VARCHAR key the dictionary its
// codes index. Units whose key columns share their dictionaries, and whose
// NUMBER keys span one range, are one key space and fold into one table.
type keySpace struct {
	kmin   lkey // per key column: code origin
	krange lkey // per key column: code range size
	dicts  [maxGroupCols]*imcs.Dict
}

func newGroupOp(plan *queryPlan, schema *rowstore.Schema, scratch *scanScratch) *groupOp {
	o := &groupOp{queryPlan: plan, schema: schema, loc: &scratch.group}
	o.slots, o.colOf, o.kinds = uniqueAggCols(plan.aggs, schema)
	nk, nc := len(plan.groupBy), len(o.slots)
	if len(scratch.grp) < nk+nc {
		scratch.grp = make([][64]int64, nk+nc)
	}
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

// beginUnit points the local table at imcu. Morsels of one key space keep
// accumulating into it — of one IMCU, or of units sharing their key columns'
// dictionaries — and only a different key space recodes the slots, so the
// table flushes first.
func (o *groupOp) beginUnit(imcu *imcs.IMCU) {
	if imcu == o.unit {
		return
	}
	ks, nslots := o.spaceOf(imcu)
	if o.unit != nil && ks == o.keySpace {
		o.unit = imcu
		return
	}
	o.flushUnit()
	o.unit, o.keySpace, o.direct = imcu, ks, nslots <= maxDirectSlots
	if o.direct {
		o.nslots = nslots
		o.loc.grow(o.nslots)
		for len(o.loc.touched)*64 < o.nslots {
			o.loc.touched = append(o.loc.touched, 0)
		}
	}
}

// spaceOf returns imcu's key space — per key column the origin and the size
// of its code range, all of its dictionary's codes for VARCHAR, min..max for
// NUMBER — and the size of the composite range: the slots the table
// needs. Sizes are clamped just past maxDirectSlots, so the product
// cannot wrap.
func (p *queryPlan) spaceOf(imcu *imcs.IMCU) (ks keySpace, slots int) {
	slots = 1
	for j, slot := range p.keySlots {
		if p.keyIsStr[j] {
			ks.dicts[j] = imcu.StrCol(slot).Dict()
			ks.krange[j] = int64(min(ks.dicts[j].Len(), maxDirectSlots+1))
		} else {
			mn, mx := imcu.NumCol(slot).MinMax()
			ks.kmin[j], ks.krange[j] = mn, int64(min(uint64(mx-mn), maxDirectSlots))+1
		}
		slots = min(slots*int(ks.krange[j]), maxDirectSlots+1)
	}
	return ks, slots
}

// slotKey decodes the key of local slot s into the key assembly buffer.
func (o *groupOp) slotKey(s int) []GroupValue {
	var lk lkey
	rem := int64(s)
	for j := len(o.keySlots) - 1; j > 0; j-- {
		lk[j] = rem%o.krange[j] + o.kmin[j]
		rem /= o.krange[j]
	}
	lk[0] = rem + o.kmin[0] // the leading column's: a single key divides nothing
	for j, slot := range o.keySlots {
		if o.keyIsStr[j] {
			o.kv[j] = GroupValue{Str: o.unit.StrCol(slot).Value(lk[j]), IsStr: true}
		} else {
			o.kv[j] = GroupValue{Num: lk[j]}
		}
	}
	return o.kv[:len(o.keySlots)]
}

// flushUnit folds the local table's touched slots, in ascending order, into
// the operator's table by merge and empties them.
func (o *groupOp) flushUnit() {
	loc := o.loc
	if o.unit != nil {
		o.flushes++
	}
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

// fold folds the selected rows of src into the unit-local table. A single
// NUMBER key over a window with run structure visits each run once and
// aggregates its match window in encoded space. Otherwise the batch folds a
// 64-row match word at a time: the key columns are unpacked as codes in the
// unit's key space, and the aggregated ones as values, into the scratch's
// 64-row buffers; rows whose key lies outside the space go to the by-value
// table — a clean window's never do — and each of the others folds into the
// slot its codes make, its count and only the parts of its cells the query
// reads. A word that selects all its rows folds them without a per-bit loop.
func (o *groupOp) fold(r *taskResult, src source, match []uint64) {
	loc := o.loc
	nk, nc := len(o.groupBy), loc.nc
	win, clean := src.(*window)
	if clean && nk == 1 && !o.keyIsStr[0] && win.imcu.NumCol(o.keySlots[0]).ForEachRun(win.base, 0, win.n, func(s, e int, v int64) {
		cnt := imcs.PopcountRange(match, s, e)
		if cnt == 0 {
			return
		}
		slab, g := &loc.aggSlab, int(v-o.kmin[0])
		if !o.direct {
			o.kv[0] = GroupValue{Num: v}
			slab, g = &loc.v.aggSlab, o.byValueSlot(o.kv[:1])
		} else if loc.count[g] == 0 {
			loc.touch(g)
		}
		slab.count[g] += cnt
		if nc == 0 {
			r.cnt[cEncoded] += cnt
			return
		}
		for ci, slot := range o.slots {
			a := win.imcu.NumCol(slot).FoldMasked(o.kinds[ci], match, win.base, s, e, r.s.aux)
			slab.cells[g*nc+ci].addMasked(a)
			r.cnt[cEncoded] += a.EncodedRows
			r.cnt[cDecoded] += a.Count - a.EncodedRows
		}
	}) {
		return
	}
	n := src.size()
	if _, images := src.(*rowBatch); !images {
		r.cnt[cDecoded] += imcs.PopcountRange(match, 0, n) * int64(max(nc, 1))
	}
	keys, vals := r.s.grp[:nk], r.s.grp[nk:nk+nc]
	for w, m := range match {
		if m == 0 {
			continue
		}
		at, cnt, one := w*64, min(64, n-w*64), match[w:w+1]
		for j, slot := range o.keySlots {
			if o.keyIsStr[j] {
				src.codes(keys[j][:cnt], slot, at, one)
			} else {
				src.nums(keys[j][:cnt], slot, at, one)
			}
		}
		for ci, slot := range o.slots {
			src.nums(vals[ci][:cnt], slot, at, one)
		}
		if !clean || !o.direct {
			if m = o.byValueRows(r, src, at, cnt, m); m == 0 {
				continue
			}
		}
		sl := keys[0][:cnt]
		if nk > 1 || o.kmin[0] != 0 {
			for i := range sl {
				sl[i] -= o.kmin[0]
			}
			for j := 1; j < nk; j++ {
				kj, mn, span := keys[j][:cnt], o.kmin[j], o.krange[j]
				for i := range sl {
					sl[i] = sl[i]*span + kj[i] - mn
				}
			}
		}
		sl = imcs.Compact(sl, m)
		count, touched := loc.count, loc.touched
		for _, g := range sl {
			if count[g] == 0 {
				touched[g>>6] |= 1 << (uint64(g) & 63)
			}
			count[g]++
		}
		for ci, kinds := range o.kinds {
			foldCells(loc.cells[ci:], nc, sl, imcs.Compact(vals[ci][:cnt], m), kinds)
		}
	}
}

// foldCells folds value vs[i] into cell gs[i]*nc of cells, for every i, in
// one loop: a sum alone updates nothing else, any other set of parts takes the
// loop of all three (imcs.MaskedAgg.FoldWord's rule).
func foldCells(cells []aggCell, nc int, gs, vs []int64, kinds imcs.AggKinds) {
	vs = vs[:len(gs)]
	if kinds == imcs.FoldSum {
		for i, g := range gs {
			cells[int(g)*nc].sum += vs[i]
		}
		return
	}
	for i, g := range gs {
		c := &cells[int(g)*nc]
		c.sum, c.min, c.max = c.sum+vs[i], min(c.min, vs[i]), max(c.max, vs[i])
	}
}

// byValueRows takes out of m, the match word of the batch's rows [at, at+cnt),
// the rows whose key the scratch's 64-row buffers hold outside the unit's key
// space — a VARCHAR value its dictionary lacks, a NUMBER beyond the table's
// range, any key of a space too wide for the table or of a batch no unit
// covers — and folds them into the by-value table, their keys read as values.
// It returns the rest of m.
func (o *groupOp) byValueRows(r *taskResult, src source, at, cnt int, m uint64) uint64 {
	b, _ := src.(*rowBatch)
	spaced := o.direct && (b == nil || b.imcu != nil)
	nk, keys := len(o.keySlots), r.s.grp
	var out uint64
	for mm := m; mm != 0; mm &= mm - 1 {
		i := bits.TrailingZeros64(mm)
		coded := spaced
		for j := range o.keySlots {
			if k := keys[j][i]; o.keyIsStr[j] {
				coded = coded && k >= 0
			} else {
				coded = coded && uint64(k-o.kmin[j]) < uint64(o.krange[j])
			}
		}
		if !coded {
			out |= 1 << uint(i)
		}
	}
	if out == 0 {
		return m
	}
	strs, v := r.s.strs, &o.loc.v
	r.s.sub[0] = out
	for j, slot := range o.keySlots {
		if o.keyIsStr[j] {
			src.strs(strs[j*64:j*64+cnt], slot, at, r.s.sub[:])
		}
	}
	var gs, vs [64]int64
	k := 0
	for mm := out; mm != 0; mm &= mm - 1 {
		i := bits.TrailingZeros64(mm)
		for j := range o.keySlots {
			if o.keyIsStr[j] {
				o.kv[j] = GroupValue{Str: strs[j*64+i], IsStr: true}
				strs[j*64+i] = "" // the scratch keeps no row image
			} else {
				o.kv[j] = GroupValue{Num: keys[j][i]}
			}
		}
		g := o.byValueSlot(o.kv[:nk])
		v.count[g]++
		gs[k], k = int64(g), k+1
	}
	for ci, kinds := range o.kinds {
		copy(vs[:cnt], keys[nk+ci][:cnt])
		foldCells(v.cells[ci:], v.nc, gs[:k], imcs.Compact(vs[:cnt], out), kinds)
	}
	return m &^ out
}

// merge folds another worker's table into this one's, as sorted as it.
func (o *groupOp) merge(other operator) {
	src := other.(*groupOp)
	o.mergeSorted(&o.pos, len(src.g.count), nil, &src.g.aggSlab, src.g.key)
	o.byValue += src.byValue
	o.flushes += src.flushes
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
