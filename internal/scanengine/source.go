package scanengine

import (
	"math"
	"math/bits"
	"sort"

	"dbimadg/internal/imcs"
	"dbimadg/internal/rowstore"
)

// source is where the columns of a batch come from (§II.B: one scan, two
// stores, one answer): a decoded IMCU window, a window's invalid positions
// patched from the unit's column delta, or row images. A batch spans size()
// positions. nums, codes and strs fill one column for the batch's rows
// [at, at+len(dst)) — at a multiple of 64 — where bit i of match selects row
// at+i (what they leave at the other rows of dst is undefined): a whole batch,
// or one 64-row group of it.
type source interface {
	size() int
	nums(dst []int64, slot, at int, match []uint64)
	// codes fills a VARCHAR column as codes in the unit's key space: negative
	// for a value the unit's dictionary lacks, and for every value of a batch
	// no unit covers.
	codes(dst []int64, slot, at int, match []uint64)
	strs(dst []string, slot, at int, match []uint64)
	// orderKeys appends the RowID sort key of each selected row.
	orderKeys(dst []uint64, part int, match []uint64) []uint64
}

// window is the decoded-window source: IMCU positions [base, base+n) of a
// batch the SMU marks valid, decoded a 64-row group at a time where the mask
// selects a row; a positional window (a delta batch, byPosition) reads every
// row by point lookup. Every code it hands out is in its unit's key space.
type window struct {
	imcu    *imcs.IMCU
	base, n int
	pos     []int32 // a positional window's: row i is at pos[i], not base+i
	aux     []int64 // strs' codes
}

func (win *window) size() int { return win.n }

func (win *window) at(i int) int {
	if win.pos != nil {
		return int(win.pos[i])
	}
	return win.base + i
}

// nums and codes decode a window's rows [at, at+len(dst)) whole: its callers
// ask for one 64-row group that match selects a row of.
func (win *window) nums(dst []int64, slot, at int, match []uint64) {
	col := win.imcu.NumCol(slot)
	if win.pos == nil {
		col.Decode(dst, win.base+at)
		return
	}
	for i, p := range win.pos[at : at+len(dst)] {
		dst[i] = col.Get(int(p))
	}
}

func (win *window) codes(dst []int64, slot, at int, match []uint64) {
	col := win.imcu.StrCol(slot)
	if win.pos == nil {
		col.DecodeCodes(dst, win.base+at)
		return
	}
	for i, p := range win.pos[at : at+len(dst)] {
		dst[i] = col.CodeAt(int(p))
	}
}

func (win *window) strs(dst []string, slot, at int, match []uint64) {
	col, codes := win.imcu.StrCol(slot), win.aux[:len(dst)]
	win.codes(codes, slot, at, match)
	each(match, func(i int) { dst[i] = col.Value(codes[i]) })
}

func (win *window) orderKeys(dst []uint64, part int, match []uint64) []uint64 {
	each(match, func(i int) {
		blk, slot := win.imcu.AddrOfRow(win.at(i))
		dst = append(dst, orderKey(part, blk, slot))
	})
	return dst
}

// deltaBatch is the window ⊕ delta source: a worker's batch of invalid row
// positions that the unit's column delta explains at the scan snapshot
// (imcs.View), gathered as a window's and patched. Row i is the IMCU's at
// pos[i] with the columns of its entries replaced; no block is latched and no
// version walked for it.
type deltaBatch struct {
	window
	view *imcs.View
	// ents holds the rows' entries, row by row, each keyed by its row's index
	// in the batch in place of the address.
	ents []imcs.DeltaEntry
}

// add appends the row at IMCU position pos, explained by entries.
func (b *deltaBatch) add(pos int, entries []imcs.DeltaEntry) {
	if b.pos == nil {
		b.pos, b.aux = make([]int32, batchSize), make([]int64, batchSize)
	}
	for _, e := range entries {
		e.Key = uint64(b.n)<<16 | uint64(e.Col())
		b.ents = append(b.ents, e)
	}
	b.pos[b.n] = int32(pos)
	b.n++
}

// keep moves the rows match selects to the front of the batch, in order, with
// their entries, and drops the others.
func (b *deltaBatch) keep(match []uint64) {
	ents, e := b.ents, 0 // in row order; add writes no entry before it is read
	b.n, b.ents = 0, b.ents[:0]
	each(match, func(i int) {
		from := e
		for ; e < len(ents) && int(ents[e].Key>>16) <= i; e++ {
			if int(ents[e].Key>>16) < i {
				from = e + 1
			}
		}
		b.add(int(b.pos[i]), ents[from:e])
	})
}

func (b *deltaBatch) nums(dst []int64, slot, at int, match []uint64) {
	b.window.nums(dst, slot, at, match)
	b.patch(dst, imcs.NumColID(slot), at)
}

// codes: a negative code is the complement of the index of a patch's value in
// the view's strings (imcs.View.Str).
func (b *deltaBatch) codes(dst []int64, slot, at int, match []uint64) {
	b.window.codes(dst, slot, at, match)
	b.patch(dst, imcs.StrColID(slot), at)
}

func (b *deltaBatch) strs(dst []string, slot, at int, match []uint64) {
	codes, col := b.aux[:len(dst)], b.imcu.StrCol(slot)
	b.codes(codes, slot, at, match)
	each(match, func(i int) { dst[i] = b.view.Str(col, codes[i]) })
}

// patch writes the entries of column col over the vector gathered for rows
// [at, at+len(dst)). The entries are in row order, so a search finds the
// first.
func (b *deltaBatch) patch(dst []int64, col uint16, at int) {
	from := sort.Search(len(b.ents), func(k int) bool { return int(b.ents[k].Key>>16) >= at })
	for _, e := range b.ents[from:] {
		if int(e.Key>>16) >= at+len(dst) {
			break
		}
		if e.Col() == col {
			dst[int(e.Key>>16)-at] = e.Val
		}
	}
}

// rowBatch is the row-image source: a worker's batch of row images read from
// the row store at the scan snapshot, each with its address. It lives in the
// worker's scratch and is empty between morsels. A string read from an image is
// a view that pins it and dies with the batch: what an operator keeps (a
// result row, a group key that arrived by value) it copies out.
type rowBatch struct {
	rows  []rowstore.Image
	blks  []rowstore.BlockNo
	slots []uint16
	n     int
	imcu  *imcs.IMCU // the unit whose blocks the images come from; nil for none

	// Image.Str walks the lengths of the slots before its own, so a string a
	// slot would make SELECT * quadratic in the VARCHAR columns: from a row's
	// second string on, strs keeps a cursor into its image at slot next[i]
	// (0 before the first string, -1 after it), and ascending slots walk the
	// image once a batch.
	next  []int32
	iters []rowstore.StrIter
}

func (b *rowBatch) size() int { return b.n }

// nums reads every row: a loop with no branch overlaps the images' misses.
func (b *rowBatch) nums(dst []int64, slot, at int, match []uint64) {
	for i, row := range b.rows[at : at+len(dst)] {
		dst[i] = row.Num(slot)
	}
}

// codes compares a row's value with the one the IMCU holds for its position
// first — an update usually leaves a key alone, so that one comparison settles
// most invalid rows — then searches the dictionary, which the store's units
// share, so it is hot and its labels contiguous: a search beat the by-value
// table's map probe (BenchmarkScanInvalid/grp/25pct 906 → 764 µs; DESIGN §4).
func (b *rowBatch) codes(dst []int64, slot, at int, match []uint64) {
	each(match, func(i int) {
		dst[i] = -1
		if b.imcu == nil {
			return
		}
		r := at + i
		col, v := b.imcu.StrCol(slot), b.rows[r].Str(slot)
		if pos, held := b.imcu.RowIndexOf(b.blks[r], b.slots[r]); held && col.Value(col.CodeAt(pos)) == v {
			dst[i] = col.CodeAt(pos)
		} else if c, found := col.Dict().Code(v); found {
			dst[i] = c
		}
	})
}

func (b *rowBatch) strs(dst []string, slot, at int, match []uint64) {
	if len(b.next) < len(b.rows) {
		b.next, b.iters = make([]int32, len(b.rows)), make([]rowstore.StrIter, len(b.rows))
	}
	each(match, func(i int) {
		r := at + i
		next := int(b.next[r])
		if next == 0 { // a filter or a key asks one string a row: keep no cursor
			dst[i], b.next[r] = b.rows[r].Str(slot), -1
			return
		}
		it := b.iters[r]
		if next < 0 || next > slot {
			it, next = b.rows[r].StrsFrom(slot), slot
		}
		for ; next <= slot; next++ {
			dst[i] = it.Next()
		}
		b.iters[r], b.next[r] = it, int32(next)
	})
}

func (b *rowBatch) orderKeys(dst []uint64, part int, match []uint64) []uint64 {
	each(match, func(i int) { dst = append(dst, orderKey(part, b.blks[i], b.slots[i])) })
	return dst
}

// keep moves the rows match selects to the front of the batch, in order, and
// drops the others and every cursor; the scratch keeps no image it dropped.
func (b *rowBatch) keep(match []uint64) {
	k := 0
	each(match, func(i int) { b.rows[k], b.blks[k], b.slots[k], k = b.rows[i], b.blks[i], b.slots[i], k+1 })
	clear(b.rows[k:b.n])
	if b.next != nil {
		clear(b.next[:b.n])
		clear(b.iters[:b.n])
	}
	b.n = k
}

// gatherAgg folds the parts kinds names of a NUMBER column of a source that
// is not a decoded window: what nums fills, a match word at a time. scratch
// has room for size() values.
func gatherAgg(src source, slot int, kinds imcs.AggKinds, match []uint64, scratch []int64) imcs.MaskedAgg {
	vals := scratch[:src.size()]
	src.nums(vals, slot, 0, match)
	a := imcs.MaskedAgg{Min: math.MaxInt64, Max: math.MinInt64}
	for w, m := range match {
		if m != 0 {
			a.FoldWord(vals[w*64:min(w*64+64, len(vals))], m, kinds)
		}
	}
	return a
}

// each calls fn with the position of every set bit of match, ascending.
func each(match []uint64, fn func(i int)) {
	for w, m := range match {
		for ; m != 0; m &= m - 1 {
			fn(w*64 + bits.TrailingZeros64(m))
		}
	}
}
