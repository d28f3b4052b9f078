package scanengine

import (
	"math/bits"

	"dbimadg/internal/imcs"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// This file holds the row-store serving path (§II.B: "invalid or stale data is
// not delivered from the IMCS, but delivered from the database buffer cache").
// Its three sources — the rows an SMU marks invalid, the rows appended to a
// unit's blocks after population, and block ranges no usable unit covers — are
// one routine: the segment latched once per morsel, every block once for all
// of its wanted slots, the visible images collected into a batch that the
// filters and the query's operator then take a column at a time, like a
// decoded IMCU window.

// rowBatch is a worker's batch of row images read from the row store at the
// scan snapshot, each with its address. It lives in the worker's scratch and
// is empty between morsels. The filters and the operators read the images
// through their accessors; a string so read is a view that pins its image and
// dies with the batch — what an operator keeps (a result row, a group key that
// arrived by value) it copies out.
type rowBatch struct {
	rows  []rowstore.Image
	blks  []rowstore.BlockNo
	slots []uint16
	n     int
	imcu  *imcs.IMCU // the unit whose blocks the images come from; nil for none
}

// deltaBatch is a worker's batch of invalid row positions that the unit's column
// delta explains at the scan snapshot (imcs.View): row i is the IMCU's at pos[i]
// with the columns of its entries replaced. No block is latched and no version
// walked for it; the filters and the operators gather its columns as patch,
// else IMCU value.
type deltaBatch struct {
	view *imcs.View
	pos  []int32
	// ents holds the rows' entries, row by row, each keyed by its row's index in
	// the batch in place of the address; row i's start at from[i].
	ents []imcs.DeltaEntry
	from []int32
	sel  []int32 // an operator's matching rows
	n    int
}

// add appends the row at IMCU position pos, explained by entries.
func (b *deltaBatch) add(pos int, entries []imcs.DeltaEntry) {
	if b.pos == nil {
		b.pos, b.from = make([]int32, batchSize), make([]int32, batchSize+1)
	}
	for _, e := range entries {
		e.Key = uint64(b.n)<<16 | uint64(e.Col())
		b.ents = append(b.ents, e)
	}
	b.pos[b.n] = int32(pos)
	b.n++
	b.from[b.n] = int32(len(b.ents))
}

// of returns row i's entries.
func (b *deltaBatch) of(i int32) []imcs.DeltaEntry { return b.ents[b.from[i]:b.from[i+1]] }

// nums gathers the NUMBER column in slot of the batch's rows into dst.
func (b *deltaBatch) nums(dst []int64, slot int) {
	col := b.view.IMCU.NumCol(slot)
	for i, p := range b.pos[:b.n] {
		dst[i] = col.Get(int(p))
	}
	b.patch(dst, imcs.NumColID(slot))
}

// codes gathers the dictionary codes of the VARCHAR column in slot into dst; a
// negative one is a patch's value the dictionary lacks (imcs.View.Str).
func (b *deltaBatch) codes(dst []int64, slot int) {
	col := b.view.IMCU.StrCol(slot)
	for i, p := range b.pos[:b.n] {
		dst[i] = col.CodeAt(int(p))
	}
	b.patch(dst, imcs.StrColID(slot))
}

// patch writes the entries of column col over a gathered vector.
func (b *deltaBatch) patch(dst []int64, col uint16) {
	for _, e := range b.ents {
		if e.Col() == col {
			dst[e.Key>>16] = e.Val
		}
	}
}

// growRows makes room for capacity images, and for their filter windows.
func (s *scanScratch) growRows(capacity int) {
	if len(s.rows.rows) >= capacity {
		return
	}
	s.rows = rowBatch{
		rows:  make([]rowstore.Image, capacity),
		blks:  make([]rowstore.BlockNo, capacity),
		slots: make([]uint16, capacity),
	}
	if capacity > len(s.num) {
		s.num = make([]int64, capacity)
		s.match = make([]uint64, (capacity+63)/64)
	}
}

// rowScan is one morsel's pass over the row-store serving path.
type rowScan struct {
	ex     *Executor
	q      *Query
	schema *rowstore.Schema
	snap   scn.SCN
	res    *taskResult
	kind   uint8 // the morsel's: which per-source counter the rows served add to
	perBlk int   // the segment's block capacity: the most one block adds
}

// read takes from blk, under one latch, the k slots staged behind the batch
// and every slot from `from` on (perBlk for none), keeps the visible images,
// and flushes the batch unless one more block fits.
func (rs *rowScan) read(blk *rowstore.Block, no rowstore.BlockNo, k int, from uint16) {
	b := &rs.res.s.rows
	got := blk.ReadRows(b.slots[b.n:b.n+k], from, rs.snap, rs.ex.view, scn.InvalidTxn, b.rows[b.n:], b.slots[b.n:])
	for i := b.n; i < b.n+got; i++ {
		b.blks[i] = no
	}
	b.n += got
	rs.res.rowBlocks++
	if b.n+rs.perBlk > len(b.rows) {
		rs.flush()
	}
}

// flush runs the batch through the filters, a column at a time into a match
// mask, and hands the survivors to the operator.
func (rs *rowScan) flush() {
	res, s := rs.res, rs.res.s
	b := &s.rows
	n := b.n
	if n == 0 {
		return
	}
	res.rowBatches++
	match := allOnes(s.match, n)
	rows := b.rows[:n]
	for _, f := range rs.q.Filters {
		col := rs.schema.Col(f.Col)
		slot := col.Slot()
		if col.Kind == rowstore.KindNumber {
			// Gathering first keeps the loop that misses the cache free of
			// branches; the comparison then runs the decoded windows' kernel.
			vals := s.num[:n]
			for i := range rows {
				vals[i] = rows[i].Num(slot)
			}
			andCmpBitmap(match, vals, f.Op, f.Num)
			continue
		}
		for w := range match {
			for m := match[w]; m != 0; m &= m - 1 {
				i := w*64 + bits.TrailingZeros64(m)
				if !cmpStr(rows[i].Str(slot), f.Op, f.Str) {
					match[w] &^= 1 << uint(i%64)
				}
			}
		}
	}
	if matched := imcs.PopcountRange(match, 0, n); matched != 0 {
		res.fromRowStore += matched
		switch rs.kind {
		case morselInvalid:
			res.fromInvalid += matched
		case morselTail:
			res.fromTail += matched
		}
		res.op.foldRows(res, b, match)
	}
	clear(rows) // the scratch keeps no row image
	b.n = 0
}

// allOnes returns the head of buf as a match mask selecting all of n rows.
func allOnes(buf []uint64, n int) []uint64 {
	match := buf[:(n+63)/64]
	for w := range match {
		match[w] = ^uint64(0)
	}
	if rem := n % 64; rem != 0 {
		match[len(match)-1] = 1<<uint(rem) - 1
	}
	return match
}

// flushDelta is flush for the delta batch: the same filters over columns
// gathered from the IMCU and patched, the survivors counted as served by the
// column store.
func (rs *rowScan) flushDelta() {
	res, s := rs.res, rs.res.s
	b := &s.delta
	if b.n == 0 {
		return
	}
	match := allOnes(s.match, b.n)
	vals := s.num[:b.n]
	for _, f := range rs.q.Filters {
		col := rs.schema.Col(f.Col)
		if col.Kind == rowstore.KindNumber {
			b.nums(vals, col.Slot())
			andCmpBitmap(match, vals, f.Op, f.Num)
			continue
		}
		b.codes(vals, col.Slot())
		dict := b.view.IMCU.StrCol(col.Slot())
		for w := range match {
			for m := match[w]; m != 0; m &= m - 1 {
				i := w*64 + bits.TrailingZeros64(m)
				if !cmpStr(b.view.Str(dict, vals[i]), f.Op, f.Str) {
					match[w] &^= 1 << uint(i%64)
				}
			}
		}
	}
	if matched := imcs.PopcountRange(match, 0, b.n); matched != 0 {
		res.fromIMCS += matched
		res.fromDelta += matched
		res.op.foldDelta(res, b, match)
	}
	b.n, b.ents = 0, b.ents[:0]
}

// scanRows executes a row-store morsel: the invalid rows of an IMCU row
// window, the tails of a unit's blocks, or a raw block range.
func (ex *Executor) scanRows(q *Query, schema *rowstore.Schema, m morsel, snap scn.SCN, res *taskResult) {
	ts, imcu := m.ts, m.ts.imcu
	rs := rowScan{ex: ex, q: q, schema: schema, snap: snap, res: res, kind: m.kind, perBlk: ts.seg.RowsPerBlock()}
	res.s.growRows(max(batchSize, rs.perBlk))
	res.s.rows.imcu = imcu
	if imcu != nil {
		res.op.beginUnit(imcu)
	}
	switch m.kind {
	case morselBlocks:
		from := rowstore.BlockNo(m.lo)
		for i, blk := range ts.seg.BlockRange(from, rowstore.BlockNo(m.hi)) {
			rs.read(blk, from+rowstore.BlockNo(i), 0, 0)
		}
	case morselTail:
		for i, blk := range ts.seg.BlockRange(imcu.StartBlk, imcu.EndBlk) {
			no := imcu.StartBlk + rowstore.BlockNo(i)
			// A full block has no tail: not worth its latch.
			if from := imcu.CapturedRows(no); int(from) < rs.perBlk {
				rs.read(blk, no, 0, from)
			}
		}
	case morselInvalid:
		res.s.delta.view = ts.view
		rs.scanInvalid(ts, m.lo, min(m.hi, ts.rows))
		rs.flushDelta()
	}
	rs.flush()
}

// scanInvalid reconciles with the SMU over the word-aligned row window
// [lo, hi): the set bits of the invalidity bitmap, walked in step with the
// column delta. A position the delta explains at the scan snapshot — it holds
// entries for it, none of a later commit — joins the delta batch, or is passed
// over if the row was deleted; the others are cut into one slot list per block
// in block order — IMCU positions ascend with the block address.
func (rs *rowScan) scanInvalid(ts *taskState, lo, hi int) {
	imcu, b, db := ts.imcu, &rs.res.s.rows, &rs.res.s.delta
	blocks := ts.seg.BlockRange(imcu.StartBlk, imcu.EndBlk)
	it := imcu.AddrsFrom(lo)
	di := -1                   // the delta's cursor
	cur, k := imcu.StartBlk, 0 // the block being staged and its slots so far
	for w := lo / 64; w < (hi+63)/64 && w < len(ts.invalid); w++ {
		word := ts.invalid[w]
		if rem := hi - w*64; rem < 64 {
			word &= (1 << uint(rem)) - 1
		}
		for ; word != 0; word &= word - 1 {
			pos := w*64 + bits.TrailingZeros64(word)
			no, slot := it.Addr(pos)
			if len(ts.view.Delta) > 0 {
				entries, next, explained, deleted := ts.view.Row(di, imcs.DeltaAddr(no-imcu.StartBlk, slot), rs.snap)
				if di = next; explained {
					if !deleted {
						if db.add(pos, entries); db.n == batchSize {
							rs.flushDelta()
						}
					}
					continue
				}
			}
			if no != cur && k > 0 {
				rs.read(blocks[cur-imcu.StartBlk], cur, k, uint16(rs.perBlk))
				k = 0
			}
			cur = no
			b.slots[b.n+k] = slot
			k++
		}
	}
	if k > 0 {
		rs.read(blocks[cur-imcu.StartBlk], cur, k, uint16(rs.perBlk))
	}
}
