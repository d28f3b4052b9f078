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
// of its wanted slots, the images collected into a batch that the filters and
// the query's operator then take a column at a time, like a decoded IMCU
// window.

// rowBatch is a worker's batch of row images read from the row store at the
// scan snapshot, every one of them visible. It lives in the worker's scratch.
type rowBatch struct {
	rows  []rowstore.Row
	blks  []rowstore.BlockNo
	slots []uint16
	// pos is each image's row position in imcu, -1 for a slot the IMCU does
	// not hold (tail rows, raw block ranges).
	pos  []int32
	ok   []bool // Block.ReadRows' visibility flags, consumed by keep
	n    int
	imcu *imcs.IMCU // the unit whose blocks the images come from; nil for none
	used int        // high-water mark of n while the scratch is on loan
}

// growRows makes room for capacity images, and for their filter windows. The
// batch is empty between morsels, so nothing is carried over.
func (s *scanScratch) growRows(capacity int) {
	if len(s.rows.rows) >= capacity {
		return
	}
	s.rows = rowBatch{
		rows:  make([]rowstore.Row, capacity),
		blks:  make([]rowstore.BlockNo, capacity),
		slots: make([]uint16, capacity),
		pos:   make([]int32, capacity),
		ok:    make([]bool, capacity),
	}
	if capacity > len(s.num) {
		s.num = make([]int64, capacity)
		s.match = make([]uint64, (capacity+63)/64)
	}
}

// keep compacts the k images just read behind the batch — slots and positions
// staged at [n, n+k), flags in ok — down to the visible ones, and tags them
// with their block.
func (b *rowBatch) keep(blk rowstore.BlockNo, k int) {
	n := b.n
	b.used = max(b.used, n+k)
	for i := b.n; i < b.n+k; i++ {
		if !b.ok[i] {
			continue
		}
		b.rows[n], b.slots[n], b.pos[n], b.blks[n] = b.rows[i], b.slots[i], b.pos[i], blk
		n++
	}
	b.n = n
}

// rowScan is one morsel's pass over the row-store serving path.
type rowScan struct {
	ex     *Executor
	q      *Query
	schema *rowstore.Schema
	snap   scn.SCN
	res    *taskResult
	b      *rowBatch
	served *int64 // the per-source counter beside fromRowStore; nil for none
	perBlk int    // the segment's block capacity: the most one block adds
}

// room flushes the batch unless one more block fits.
func (rs *rowScan) room() {
	if rs.b.n+rs.perBlk > len(rs.b.rows) {
		rs.flush()
	}
}

// readSlots reads the k slots staged behind the batch from blk.
func (rs *rowScan) readSlots(blk *rowstore.Block, no rowstore.BlockNo, k int) {
	if k <= 0 || blk == nil {
		return
	}
	b := rs.b
	blk.ReadRows(b.slots[b.n:b.n+k], rs.snap, rs.ex.view, scn.InvalidTxn, b.rows[b.n:], b.ok[b.n:])
	rs.res.rowBlocks++
	b.keep(no, k)
}

// readFrom reads every slot of blk from `from` on.
func (rs *rowScan) readFrom(blk *rowstore.Block, no rowstore.BlockNo, from uint16) {
	if int(from) >= blk.Capacity() {
		return // a full block has no tail: not worth its latch
	}
	rs.room()
	b := rs.b
	k := blk.ReadRange(from, rs.snap, rs.ex.view, scn.InvalidTxn, b.rows[b.n:], b.ok[b.n:])
	rs.res.rowBlocks++
	for i := 0; i < k; i++ {
		b.slots[b.n+i], b.pos[b.n+i] = from+uint16(i), -1
	}
	b.keep(no, k)
}

// flush runs the batch through the filters, a column at a time into a match
// mask, and hands the survivors to the operator.
func (rs *rowScan) flush() {
	b, s := rs.b, rs.res.s
	n := b.n
	if n == 0 {
		return
	}
	rs.res.rowBatches++
	words := (n + 63) / 64
	match := s.match[:words]
	for w := range match {
		match[w] = ^uint64(0)
	}
	if rem := n % 64; rem != 0 {
		match[words-1] = 1<<uint(rem) - 1
	}
	rows := b.rows[:n]
	for _, f := range rs.q.Filters {
		col := rs.schema.Col(f.Col)
		slot := col.Slot()
		if col.Kind == rowstore.KindNumber {
			// Gathering first keeps the loop that misses the cache free of
			// branches; the comparison then runs the decoded windows' kernel.
			vals := s.num[:n]
			for i := range rows {
				vals[i] = rows[i].Nums[slot]
			}
			andCmpBitmap(match, vals, f.Op, f.Num)
			continue
		}
		for w := range match {
			for m := match[w]; m != 0; m &= m - 1 {
				i := w*64 + bits.TrailingZeros64(m)
				if !cmpStr(rows[i].Strs[slot], f.Op, f.Str) {
					match[w] &^= 1 << uint(i%64)
				}
			}
		}
	}
	if matched := imcs.PopcountRange(match, 0, n); matched != 0 {
		rs.res.fromRowStore += matched
		if rs.served != nil {
			*rs.served += matched
		}
		rs.res.op.foldRows(rs.res, b, match)
	}
	b.n = 0
}

// scanRows executes a row-store morsel: the invalid rows of an IMCU row
// window, the tails of a unit's blocks, or a raw block range.
func (ex *Executor) scanRows(q *Query, schema *rowstore.Schema, m morsel, snap scn.SCN, res *taskResult) {
	ts := m.ts
	rs := rowScan{ex: ex, q: q, schema: schema, snap: snap, res: res, b: &res.s.rows, perBlk: ts.seg.RowsPerBlock()}
	res.s.growRows(max(batchSize, rs.perBlk))
	rs.b.imcu = ts.imcu
	if ts.imcu != nil {
		res.op.beginUnit(ts.imcu)
	}
	switch m.kind {
	case morselBlocks:
		from := rowstore.BlockNo(m.lo)
		for i, blk := range ts.seg.BlockRange(from, rowstore.BlockNo(m.hi)) {
			rs.readFrom(blk, from+rowstore.BlockNo(i), 0)
		}
	case morselTail:
		rs.served = &res.fromTail
		imcu := ts.imcu
		for i, blk := range ts.seg.BlockRange(imcu.StartBlk, imcu.EndBlk) {
			no := imcu.StartBlk + rowstore.BlockNo(i)
			rs.readFrom(blk, no, imcu.CapturedRows(no))
		}
	case morselInvalid:
		rs.served = &res.fromInvalid
		rs.scanInvalid(ts, m.lo, min(m.hi, ts.rows))
	}
	rs.flush()
}

// scanInvalid reconciles with the SMU over the word-aligned row window
// [lo, hi): the set bits of the invalidity bitmap, cut into one slot list per
// block in block order — IMCU positions ascend with the block address.
func (rs *rowScan) scanInvalid(ts *taskState, lo, hi int) {
	imcu, b := ts.imcu, rs.b
	blocks := ts.seg.BlockRange(imcu.StartBlk, imcu.EndBlk)
	block := func(no rowstore.BlockNo) *rowstore.Block {
		if i := int(no - imcu.StartBlk); i < len(blocks) {
			return blocks[i]
		}
		return nil
	}
	var it imcs.AddrIter
	cur, k := rowstore.BlockNo(0), -1 // the block being staged and its slots so far; -1 before the first
	for w := lo / 64; w < (hi+63)/64 && w < len(ts.invalid); w++ {
		word := ts.invalid[w]
		if rem := hi - w*64; rem < 64 {
			word &= (1 << uint(rem)) - 1
		}
		for ; word != 0; word &= word - 1 {
			i := w*64 + bits.TrailingZeros64(word)
			if k < 0 {
				it = imcu.AddrsFrom(i)
			}
			no, slot := it.Addr(i)
			if no != cur || k < 0 {
				rs.readSlots(block(cur), cur, k)
				rs.room()
				cur, k = no, 0
			}
			b.slots[b.n+k], b.pos[b.n+k] = slot, int32(i)
			k++
		}
	}
	rs.readSlots(block(cur), cur, k)
}
