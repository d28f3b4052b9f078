package imcs

import (
	"slices"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// IMCU is an In-Memory Columnar Unit: a read-only, compressed columnar image
// of a range of data blocks of one segment, consistent as of SnapSCN (its
// population snapshot, §II.B). Once built an IMCU is immutable; refresh is by
// repopulation (building a replacement at a newer snapshot).
type IMCU struct {
	Obj     rowstore.ObjID
	Tenant  rowstore.TenantID
	SnapSCN scn.SCN
	// Block range covered: [StartBlk, EndBlk).
	StartBlk rowstore.BlockNo
	EndBlk   rowstore.BlockNo

	// PopulatedBy is the index of the population worker that built this IMCU
	// (0 when built outside the engine). The scan executor uses it as a
	// NUMA-style affinity hint: morsels of this IMCU are initially placed on
	// the scan worker congruent to the populating worker, so repeatedly
	// scanned partitions tend to stay on the core that built them. It is set
	// before the IMCU is attached and never changes afterwards.
	PopulatedBy int

	// blockRows[i] is the number of row slots captured from block
	// StartBlk+i at population time; rows appended to the block later are
	// "tail" rows served from the row store until repopulation.
	blockRows []uint16
	// rowBase[i] is the IMCU row index of the first row of block StartBlk+i
	// (prefix sums of blockRows).
	rowBase []uint32
	nRows   int

	// present marks row positions whose slot held a visible row at SnapSCN.
	// Absent positions (uncommitted inserts or deleted rows at the snapshot)
	// hold each column's smallest present value and are skipped by scans.
	present []uint64

	// numCols[s] is the compressed column for number-slot s of the captured
	// schema; strCols[s] for varchar-slot s.
	numCols []*NumColumn
	strCols []*StrColumn

	// schema is the table schema captured at population time (DDL produces a
	// new schema and triggers IMCU drop, §III.G).
	schema *rowstore.Schema

	// memSize caches the footprint; an IMCU is immutable so it never
	// changes, and the repopulation heuristics poll it at high frequency.
	memSize int
}

// Schema returns the schema the IMCU was built against.
func (u *IMCU) Schema() *rowstore.Schema { return u.schema }

// Rows returns the number of row positions (including absent ones).
func (u *IMCU) Rows() int { return u.nRows }

// NumCol returns the compressed column for number slot s.
func (u *IMCU) NumCol(s int) *NumColumn { return u.numCols[s] }

// StrCol returns the compressed column for varchar slot s.
func (u *IMCU) StrCol(s int) *StrColumn { return u.strCols[s] }

// Present reports whether row position i held a visible row at SnapSCN.
func (u *IMCU) Present(i int) bool {
	return u.present[i/64]&(1<<(i%64)) != 0
}

// PresentWords exposes the presence bitmap (do not modify).
func (u *IMCU) PresentWords() []uint64 { return u.present }

// RowIndexOf maps a (block, slot) address to the IMCU row position; ok is
// false when the address lies outside the captured data (tail rows, blocks
// beyond the range).
func (u *IMCU) RowIndexOf(blk rowstore.BlockNo, slot uint16) (int, bool) {
	if blk < u.StartBlk || blk >= u.EndBlk {
		return 0, false
	}
	i := int(blk - u.StartBlk)
	if i >= len(u.blockRows) || slot >= u.blockRows[i] {
		return 0, false
	}
	return int(u.rowBase[i]) + int(slot), true
}

// AddrOfRow maps an IMCU row position back to its (block, slot) address.
func (u *IMCU) AddrOfRow(i int) (rowstore.BlockNo, uint16) {
	// Binary search over rowBase.
	lo, hi := 0, len(u.rowBase)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if int(u.rowBase[mid]) <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return u.StartBlk + rowstore.BlockNo(lo), uint16(i - int(u.rowBase[lo]))
}

// AddrIter maps ascending row positions back to their (block, slot)
// addresses: one binary search where it starts, then a step forward per block
// boundary crossed — what a walk over the set bits of a bitmap window wants in
// place of AddrOfRow's search per position.
type AddrIter struct {
	u  *IMCU
	bi int // index of the block holding the last position asked for
}

// AddrsFrom returns an iterator positioned at row position i.
func (u *IMCU) AddrsFrom(i int) AddrIter {
	blk, _ := u.AddrOfRow(i)
	return AddrIter{u: u, bi: int(blk - u.StartBlk)}
}

// Addr returns the address of row position i, which must not lie before the
// position of the previous call.
func (it *AddrIter) Addr(i int) (rowstore.BlockNo, uint16) {
	base := it.u.rowBase
	for it.bi+1 < len(base) && int(base[it.bi+1]) <= i {
		it.bi++
	}
	return it.u.StartBlk + rowstore.BlockNo(it.bi), uint16(i - int(base[it.bi]))
}

// CapturedRows returns the number of slots captured for a block in range.
func (u *IMCU) CapturedRows(blk rowstore.BlockNo) uint16 {
	if blk < u.StartBlk || blk >= u.EndBlk {
		return 0
	}
	i := int(blk - u.StartBlk)
	if i >= len(u.blockRows) {
		return 0
	}
	return u.blockRows[i]
}

// MemSize returns the approximate in-memory footprint in bytes (cached at
// build time; IMCUs are immutable).
func (u *IMCU) MemSize() int { return u.memSize }

func (u *IMCU) computeMemSize() int {
	sz := 8*len(u.present) + 2*len(u.blockRows) + 4*len(u.rowBase) + 64
	for _, c := range u.numCols {
		if c != nil {
			sz += c.MemSize()
		}
	}
	for _, c := range u.strCols {
		if c != nil {
			sz += c.MemSize()
		}
	}
	return sz
}

// Column vectors are gathered and encoded a tile of columns at a time: a tile
// of number columns shares a cache line of a packed row image, a tile of
// varchar columns a run of its string bytes, so a row image is pulled through
// the cache once per tile instead of once per column.
const (
	numTile = 8 // eight int64 values fill one cache line
	strTile = 8 // eight short strings, and one walk over the lengths before them
)

// buildScratch is the working memory of IMCU builds. A population worker owns
// one and reuses it from build to build, so a build allocates what the IMCU
// keeps and little else.
type buildScratch struct {
	// The re-read set: rows[i] is the image visible at the snapshot of row
	// position pos[i]; absent lists the positions with no visible row. Both
	// position lists ascend.
	rows   []rowstore.Image
	pos    []int32
	absent []int32
	// strs[i] walks rows[i]'s strings, a tile of slots at each visit.
	strs []rowstore.StrIter
	// slots are one block's re-read slots, got those of them Block.ReadRows
	// found visible.
	slots []uint16
	got   []uint16
	// segs lists the runs of row positions carried over from the old image.
	segs []carrySeg
	// view is the unit as a merge's build captured it; patches what its delta
	// says of the positions it explains, keyed by their position in the new
	// image, and dirty which columns (numbers first) those entries name.
	view    View
	patches []DeltaEntry
	dirty   []bool
	// vals holds one tile of column vectors, numTile*rows values.
	vals  []int64
	dicts [strTile]dictBuilder
	work  dictWork
}

// carrySeg is a run of n row positions of the old image starting at from that
// the new image holds starting at to.
type carrySeg struct{ from, to, n int }

// Builder assembles one IMCU as a merge: the column values of an old image of
// the same block range (none for a first build) plus a re-read set of rows
// whose images replace or extend it. It is used by a single population worker
// and is not safe for concurrent use.
type Builder struct {
	obj      rowstore.ObjID
	tenant   rowstore.TenantID
	snap     scn.SCN
	startBlk rowstore.BlockNo
	endBlk   rowstore.BlockNo
	schema   *rowstore.Schema

	old  *IMCU // image carried over; nil for none
	view *View // the unit's view old is of
	sc   *buildScratch

	blockRows []uint16
	nRows     int // row positions announced by BeginBlock so far
	next      int // position AddRow fills next
	shared    int // Build: column objects taken over from old
}

// NewBuilder starts a full IMCU build for the given segment range at snapshot
// snap: every row is added with AddRow.
func NewBuilder(obj rowstore.ObjID, tenant rowstore.TenantID, schema *rowstore.Schema, snap scn.SCN, startBlk, endBlk rowstore.BlockNo) *Builder {
	return newBuilder(obj, tenant, schema, snap, startBlk, endBlk, new(View), new(buildScratch))
}

// newBuilder starts a build that carries the values of old's IMCU over for
// every row position the caller does not put into the re-read set; that IMCU
// may be nil, and then every position must be. The re-read set lives in sc
// until Build.
func newBuilder(obj rowstore.ObjID, tenant rowstore.TenantID, schema *rowstore.Schema, snap scn.SCN, startBlk, endBlk rowstore.BlockNo, old *View, sc *buildScratch) *Builder {
	sc.rows, sc.pos, sc.absent, sc.patches = sc.rows[:0], sc.pos[:0], sc.absent[:0], sc.patches[:0]
	return &Builder{
		obj: obj, tenant: tenant, snap: snap, schema: schema,
		startBlk: startBlk, endBlk: endBlk,
		old: old.IMCU, view: old, sc: sc,
		blockRows: make([]uint16, 0, int(endBlk-startBlk)),
	}
}

// BeginBlock starts the next block (must be called in block order for every
// block in [startBlk, endBlk) that exists; missing trailing blocks may simply
// not be added).
func (b *Builder) BeginBlock(capturedSlots int) {
	b.blockRows = append(b.blockRows, uint16(capturedSlots))
	b.next = b.nRows
	b.nRows += capturedSlots
}

// AddRow puts the next slot of the current block into the re-read set. row
// may be the zero Image when ok is false (slot not visible at the snapshot).
func (b *Builder) AddRow(row rowstore.Image, ok bool) {
	b.add(b.next, row, ok)
	b.next++
}

func (b *Builder) add(pos int, row rowstore.Image, ok bool) {
	sc := b.sc
	if ok {
		sc.rows = append(sc.rows, row)
		sc.pos = append(sc.pos, int32(pos))
	} else {
		sc.absent = append(sc.absent, int32(pos))
	}
}

// readBlock starts the next block, of n slots, and puts the given slots of it
// (ascending) into the re-read set with their images at the build's snapshot,
// all read under one block latch.
func (b *Builder) readBlock(blk *rowstore.Block, n int, slots []uint16, view rowstore.TxnView) {
	base := b.nRows
	b.BeginBlock(n)
	sc := b.sc
	// The visible images land behind rows; the slots not among them are absent.
	at := len(sc.rows)
	sc.rows = slices.Grow(sc.rows, len(slots))
	sc.got = slices.Grow(sc.got[:0], len(slots))[:len(slots)]
	k := blk.ReadRows(slots, uint16(blk.Capacity()), b.snap, view, scn.InvalidTxn, sc.rows[at:at+len(slots)], sc.got)
	sc.rows = sc.rows[:at+k]
	j := 0
	for _, slot := range slots {
		if j < k && sc.got[j] == slot {
			sc.pos = append(sc.pos, int32(base+int(slot)))
			j++
		} else {
			sc.absent = append(sc.absent, int32(base+int(slot)))
		}
	}
}

// explain takes out of sc.slots, the invalid slots of the unit's off-th block
// (the next to begin), those the view's delta explains at the build's snapshot,
// and lists what it says of them in sc.patches. A deleted row stays: the row
// store says so again. di is the delta cursor (View.Row), returned advanced.
func (b *Builder) explain(off rowstore.BlockNo, di int) int {
	sc := b.sc
	kept := sc.slots[:0]
	for _, slot := range sc.slots {
		entries, next, explained, deleted := b.view.Row(di, DeltaAddr(off, slot), b.snap)
		if di = next; !explained || deleted {
			kept = append(kept, slot)
			continue
		}
		for _, e := range entries {
			e.Key = uint64(b.nRows+int(slot))<<16 | uint64(e.Col())
			sc.patches = append(sc.patches, e)
		}
	}
	sc.slots = kept
	return di
}

// carrySegs lists, into scratch, where the old image's row positions lie in
// the new one. Blocks only ever gain slots, so a block keeps its old rows at
// the head of its new range; neighbouring blocks shifted by the same distance
// (all of them, when no block grew) form one run.
func (b *Builder) carrySegs(rowBase []uint32) []carrySeg {
	segs := b.sc.segs[:0]
	if b.old != nil {
		for i, n := range b.old.blockRows {
			from, to := int(b.old.rowBase[i]), int(rowBase[i])
			if k := len(segs) - 1; k >= 0 && segs[k].from+segs[k].n == from && segs[k].to+segs[k].n == to {
				segs[k].n += int(n)
			} else if n > 0 {
				segs = append(segs, carrySeg{from, to, int(n)})
			}
		}
	}
	b.sc.segs = segs
	return segs
}

// Build encodes the new image: per column, the old image's values decoded
// into their new positions, the re-read rows' values and the delta's written
// over them, the vector compressed again. When no row was read again and no
// block grew, a column the delta does not name holds what it held, and the new
// image shares the old one's object for it: images are immutable.
func (b *Builder) Build() *IMCU {
	sc := b.sc
	n := b.nRows
	u := &IMCU{
		Obj: b.obj, Tenant: b.tenant, SnapSCN: b.snap,
		StartBlk: b.startBlk, EndBlk: b.endBlk,
		blockRows: b.blockRows,
		schema:    b.schema,
		nRows:     n,
	}
	u.rowBase = make([]uint32, len(b.blockRows))
	base := uint32(0)
	for i, c := range b.blockRows {
		u.rowBase[i] = base
		base += uint32(c)
	}
	// Every position is either carried over, and then it was present in the
	// old image (its presence gaps are in the re-read set), or was read again.
	u.present = make([]uint64, (n+63)/64)
	for w := range u.present {
		u.present[w] = ^uint64(0)
	}
	if rem := n % 64; rem != 0 {
		u.present[len(u.present)-1] = 1<<uint(rem) - 1
	}
	for _, p := range sc.absent {
		u.present[p/64] &^= 1 << uint(p%64)
	}
	// Absent positions take a present row's value (scans never read them): the
	// column's minimum, so that they add nothing to the dictionaries and do not
	// widen the storage index. donor is some present position, -1 if none.
	donor := 0
	for _, p := range sc.absent {
		if int(p) != donor {
			break
		}
		donor++
	}
	if donor >= n {
		donor = -1
	}
	segs := b.carrySegs(u.rowBase)
	sc.vals = slices.Grow(sc.vals[:0], numTile*n)[:numTile*n]
	nNums := b.schema.NumberSlots()
	sc.dirty = slices.Grow(sc.dirty[:0], nNums+b.schema.VarcharSlots())[:nNums+b.schema.VarcharSlots()]
	clear(sc.dirty)
	for _, p := range sc.patches {
		if c := p.Col(); c&strCol != 0 {
			sc.dirty[nNums+int(c&^strCol)] = true
		} else {
			sc.dirty[c] = true
		}
	}
	share := b.old != nil && len(sc.pos)+len(sc.absent) == 0 && slices.Equal(b.blockRows, b.old.blockRows)
	// clean reports whether g columns from c of dirty are the old image's as
	// they stand, and counts them as shared.
	clean := func(c, g int) bool {
		if !share || slices.Contains(sc.dirty[c:c+g], true) {
			return false
		}
		b.shared += g
		return true
	}

	u.numCols = make([]*NumColumn, nNums)
	for s0 := 0; s0 < len(u.numCols); s0 += numTile {
		g := min(numTile, len(u.numCols)-s0)
		if clean(s0, g) {
			copy(u.numCols[s0:s0+g], b.old.numCols[s0:])
			continue
		}
		for k := 0; k < g; k++ {
			col := sc.vals[k*n : (k+1)*n]
			for _, sg := range segs {
				b.old.numCols[s0+k].Decode(col[sg.to:sg.to+sg.n], sg.from)
			}
		}
		var tile [numTile]int64
		for i, p := range sc.pos {
			sc.rows[i].Nums(tile[:g], s0)
			for k, v := range tile[:g] {
				sc.vals[k*n+int(p)] = v
			}
		}
		for _, p := range sc.patches {
			if k := int(p.Col()) - s0; k >= 0 && k < g {
				sc.vals[k*n+int(p.Key>>16)] = p.Val
			}
		}
		for k := 0; k < g; k++ {
			if clean(s0+k, 1) {
				u.numCols[s0+k] = b.old.numCols[s0+k]
				continue
			}
			col := sc.vals[k*n : (k+1)*n]
			fillAbsentNums(col, sc.absent, donor)
			u.numCols[s0+k] = EncodeNums(col)
		}
	}

	u.strCols = make([]*StrColumn, b.schema.VarcharSlots())
	sc.strs = slices.Grow(sc.strs[:0], len(sc.rows))[:len(sc.rows)]
	for i, row := range sc.rows {
		sc.strs[i] = row.StrsFrom(0)
	}
	for s0 := 0; s0 < len(u.strCols); s0 += strTile {
		g := min(strTile, len(u.strCols)-s0)
		if clean(nNums+s0, g) {
			copy(u.strCols[s0:s0+g], b.old.strCols[s0:])
			continue
		}
		for k := 0; k < g; k++ {
			col := sc.vals[k*n : (k+1)*n]
			var oldDict []string
			if len(segs) > 0 {
				oc := b.old.strCols[s0+k]
				oldDict = oc.dict
				for _, sg := range segs {
					oc.DecodeCodes(col[sg.to:sg.to+sg.n], sg.from)
				}
			}
			sc.dicts[k].reset(oldDict)
		}
		var tile [strTile]string // views of the images: a dictionary copies what it keeps
		for i, p := range sc.pos {
			sc.strs[i].Fill(tile[:g])
			for k, v := range tile[:g] {
				at := &sc.vals[k*n+int(p)]
				*at = sc.dicts[k].code(v, sortKey(v), *at)
			}
		}
		for _, p := range sc.patches {
			if k := int(p.Col()) - strCol - s0; k >= 0 && k < g {
				v := b.view.Str(b.old.strCols[s0+k], p.Val)
				at := &sc.vals[k*n+int(p.Key>>16)]
				*at = sc.dicts[k].code(v, sortKey(v), *at)
			}
		}
		for k := 0; k < g; k++ {
			if clean(nNums+s0+k, 1) {
				u.strCols[s0+k] = b.old.strCols[s0+k]
				continue
			}
			col := sc.vals[k*n : (k+1)*n]
			d := &sc.dicts[k]
			if len(sc.absent) > 0 {
				var fill int64
				if donor >= 0 {
					fill = col[donor]
				} else {
					fill = d.code("", 0, -1) // no row present at all
				}
				for _, p := range sc.absent {
					col[p] = fill
				}
			}
			dict := d.finish(col, &sc.work)
			for _, p := range sc.absent {
				col[p] = 0
			}
			u.strCols[s0+k] = newStrColumn(dict, col)
		}
	}
	// Row images and the old dictionaries belong to others; do not keep them
	// alive from scratch.
	clear(sc.rows[:cap(sc.rows)])
	clear(sc.strs)
	for k := range sc.dicts {
		sc.dicts[k].reset(nil)
	}
	u.memSize = u.computeMemSize()
	return u
}

// fillAbsentNums gives the absent positions of a number column vector the
// smallest value of the present ones (0 when no row is present).
func fillAbsentNums(col []int64, absent []int32, donor int) {
	if len(absent) == 0 {
		return
	}
	mn := int64(0)
	if donor >= 0 {
		mn = col[donor]
		for _, p := range absent {
			col[p] = mn
		}
		for _, v := range col {
			mn = min(mn, v)
		}
	}
	for _, p := range absent {
		col[p] = mn
	}
}
