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
		s.num, s.aux, s.strs = make([]int64, capacity), make([]int64, capacity), make([]string, capacity)
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
	rs.res.cnt[cRowBlocks]++
	if b.n+rs.perBlk > len(b.rows) {
		rs.flush(b)
	}
}

// filter runs the query's filters over a delta or image batch, a column at a
// time into the match mask it returns: a NUMBER column gathered and compared
// with the decoded windows' kernel (gathering first keeps the loop that misses
// the cache free of branches), a VARCHAR2 one value by value.
func (rs *rowScan) filter(src source) []uint64 {
	s, n := rs.res.s, src.size()
	match := allOnes(s.match, n)
	for _, f := range rs.q.Filters {
		col := rs.schema.Col(f.Col)
		if col.Kind == rowstore.KindNumber {
			src.nums(s.num[:n], col.Slot(), 0, match)
			andCmpBitmap(match, s.num[:n], f.Op, f.Num)
			continue
		}
		src.strs(s.strs[:n], col.Slot(), 0, match)
		each(match, func(i int) {
			if !cmpStr(s.strs[i], f.Op, f.Str) {
				match[i/64] &^= 1 << uint(i%64)
			}
		})
	}
	return match
}

// batch is a source the row path fills, flushes and empties in place.
type batch interface {
	source
	// keep moves the rows match selects to the front, in order, and drops the
	// others; keep(nil) empties the batch.
	keep(match []uint64)
}

// flush hands the matching rows of a batch, alone, to the operator: the image
// batch's as served by the row store, the delta batch's by the column store.
func (rs *rowScan) flush(src batch) {
	res, n := rs.res, src.size()
	if n == 0 {
		return
	}
	match := rs.filter(src)
	matched := imcs.PopcountRange(match, 0, n)
	if _, images := src.(*rowBatch); images {
		res.cnt[cRowBatches]++
		res.cnt[cRowStore] += matched
		switch rs.kind {
		case morselInvalid:
			res.cnt[cInvalid] += matched
		case morselTail:
			res.cnt[cTail] += matched
		}
	} else {
		res.cnt[cIMCS] += matched
		res.cnt[cDelta] += matched
	}
	if matched != 0 {
		if matched < int64(n) {
			src.keep(match)
			match = allOnes(match, int(matched))
		}
		res.op.fold(res, src, match)
	}
	clear(res.s.strs[:n])
	src.keep(nil)
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
		res.s.delta.view, res.s.delta.imcu = ts.view, imcu
		rs.scanInvalid(ts, m.lo, min(m.hi, ts.rows))
		rs.flush(&res.s.delta)
	}
	rs.flush(&res.s.rows)
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
							rs.flush(db)
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
