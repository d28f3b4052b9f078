package imcs

import (
	"fmt"
	"math/rand"
	"testing"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// deltaModel is the truth the column delta is checked against: every row's
// committed versions, oldest first. The row store plays no part.
type deltaModel struct {
	schema *rowstore.Schema
	rows   [][]modelVersion // by row position: blocks of perBlock slots
}

type modelVersion struct {
	at      scn.SCN
	row     rowstore.Row
	deleted bool
}

const (
	modelBlocks   = 3
	modelPerBlock = 6
)

func modelSchema() *rowstore.Schema {
	return rowstore.MustSchema([]rowstore.Column{
		{Name: "id", Kind: rowstore.KindNumber}, {Name: "n1", Kind: rowstore.KindNumber},
		{Name: "c1", Kind: rowstore.KindVarchar}, {Name: "n2", Kind: rowstore.KindNumber},
		{Name: "c2", Kind: rowstore.KindVarchar},
	})
}

// at returns the row at position pos as of snapshot s.
func (m *deltaModel) at(pos int, s scn.SCN) (rowstore.Row, bool) {
	var cur modelVersion
	for _, v := range m.rows[pos] {
		if v.at <= s {
			cur = v
		}
	}
	return cur.row, !cur.deleted
}

// image is the unit's IMCU as a full build at snapshot s lays it out.
func (m *deltaModel) image(s scn.SCN) *IMCU {
	b := NewBuilder(1, 1, m.schema, s, 0, modelBlocks)
	for pos := range m.rows {
		if pos%modelPerBlock == 0 {
			b.BeginBlock(modelPerBlock)
		}
		row, ok := m.at(pos, s)
		b.AddRow(rowstore.Pack(row), ok)
	}
	return b.Build()
}

// read is what a scan at snapshot s makes of position pos through view v: the
// row, whether there is one, and false when it would go to the row store.
func readView(v *View, pos int, s scn.SCN) (row rowstore.Row, present, served bool) {
	imcu := v.IMCU
	row = rowstore.NewRow(imcu.schema)
	for i := range row.Nums {
		row.Nums[i] = imcu.NumCol(i).Get(pos)
	}
	for i := range row.Strs {
		row.Strs[i] = imcu.StrCol(i).Get(pos)
	}
	if v.Invalid[pos/64]&(1<<uint(pos%64)) == 0 {
		return row, true, true
	}
	blk, slot := imcu.AddrOfRow(pos)
	addr := DeltaAddr(blk-imcu.StartBlk, slot)
	i, present := v.Seek(addr), true
	first := i
	for ; i < len(v.Delta) && v.Delta[i].Key>>16 == addr>>16; i++ {
		e := v.Delta[i]
		if e.SCN > s {
			return row, false, false
		}
		if e.Col() == ColDeleted {
			present = false
		} else if slot, str := e.Slot(); str {
			row.Strs[slot] = v.Str(imcu.StrCol(slot), e.Val)
		} else {
			row.Nums[slot] = e.Val
		}
	}
	return row, present, i > first
}

// TestDeltaModel checks the SMU's column delta against a model over random
// interleavings of commits flushed with and without their patches, in and out
// of commit order within an advancement, repeated by a replay; repopulations
// that begin, capture a snapshot and attach with commits in between; aborted
// ones; and forgotten deltas. After every step every row read through a View at
// every snapshot from the image's to the QuerySCN is the model's row at that
// snapshot, or falls through to the row store — which at the QuerySCN, where a
// standby's scans run, a minority does (a row that goes opaque stays so until an
// image is attached whose build began after, and one change in ten makes one).
func TestDeltaModel(t *testing.T) {
	var served, fell int
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &deltaModel{schema: modelSchema(), rows: make([][]modelVersion, modelBlocks*modelPerBlock)}
		clock := scn.SCN(10)
		value := func() string {
			return []string{"red", "green", "blue", "", fmt.Sprintf("new-%d", rng.Intn(1000))}[rng.Intn(5)]
		}
		for pos := range m.rows {
			row := rowstore.NewRow(m.schema)
			row.Nums[0], row.Nums[1], row.Nums[2] = int64(pos), rng.Int63n(50), rng.Int63n(5)
			row.Strs[0], row.Strs[1] = value(), value()
			m.rows[pos] = []modelVersion{{at: 5, row: row, deleted: pos == 3}} // a gap
		}
		unit := &Unit{Obj: 1, Tenant: 1, StartBlk: 0, EndBlk: modelBlocks}
		unit.Attach(m.image(clock))
		query := clock // every commit at or below it is flushed

		type flush struct {
			pos   int
			at    scn.SCN
			patch *Patch
		}
		var flushed []flush // everything ever flushed, for replays
		// advance commits a few changes and flushes them, shuffled, as one
		// QuerySCN advancement does.
		advance := func() {
			var batch []flush
			for k := rng.Intn(4) + 1; k > 0; k-- {
				pos := rng.Intn(len(m.rows))
				cur, ok := m.at(pos, clock)
				if !ok {
					continue
				}
				clock += scn.SCN(rng.Intn(3) + 1)
				next := rowstore.Row{Nums: append([]int64(nil), cur.Nums...), Strs: append([]string(nil), cur.Strs...)}
				f := flush{pos: pos, at: clock, patch: &Patch{}}
				op := rng.Intn(20)
				switch {
				case op == 0:
					f.patch.Deleted = true
				default:
					for _, c := range rng.Perm(4)[:rng.Intn(2)+1] {
						f.patch.Cols = append(f.patch.Cols, uint16(c+1))
						switch c {
						case 0:
							next.Nums[1] = rng.Int63n(50)
						case 1:
							next.Strs[0] = value()
						case 2:
							next.Nums[2] = rng.Int63n(5)
						case 3:
							next.Strs[1] = value()
						}
					}
					f.patch.Row = rowstore.Pack(next)
					if op == 1 {
						f.patch.Cols = nil // changed, unknown where
					} else if op == 2 {
						f.patch = nil // the patch-less hook
					}
				}
				m.rows[pos] = append(m.rows[pos], modelVersion{at: clock, row: next, deleted: op == 0})
				batch = append(batch, f)
			}
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			if len(flushed) > 0 && rng.Intn(15) == 0 {
				batch = append(batch, flushed[rng.Intn(len(flushed))]) // replayed redo
			}
			for _, f := range batch {
				blk, slot := rowstore.BlockNo(f.pos/modelPerBlock), []uint16{uint16(f.pos % modelPerBlock)}
				if f.patch == nil {
					unit.InvalidateRows(blk, slot)
				} else {
					unit.Invalidate(blk, slot, f.at, []Patch{*f.patch})
				}
			}
			flushed = append(flushed, batch...)
			query = clock
		}
		check := func(step int) {
			var v View
			if !unit.View(&v) {
				t.Fatalf("seed %d step %d: unit unusable", seed, step)
			}
			for s := v.IMCU.SnapSCN; s <= query; s++ {
				for pos := range m.rows {
					got, present, ok := readView(&v, pos, s)
					if !ok {
						if s == query {
							fell++
						}
						continue
					}
					if s == query {
						served++
					}
					want, there := m.at(pos, s)
					if present != there || (there && !got.Equal(want)) {
						t.Fatalf("seed %d step %d: position %d at SCN %d (image %d): %v present=%v, want %v present=%v\ndelta %v",
							seed, step, pos, s, v.IMCU.SnapSCN, got, present, want, there, v.Delta)
					}
				}
			}
		}
		var building *IMCU
		for step := 0; step < 60; step++ {
			switch op := rng.Intn(30); {
			case op < 15:
				advance()
			case op < 20 && building == nil:
				if unit.BeginRepopulate() {
					// The capture comes after BeginRepopulate, so its snapshot
					// covers what was flushed before; an advancement between the
					// two may or may not be covered too.
					s := query
					if advance(); rng.Intn(2) == 0 {
						s = query
					}
					building = m.image(s)
				}
			case op < 26 && building != nil:
				if rng.Intn(5) == 0 {
					unit.AbortRepopulate()
				} else {
					unit.Attach(building)
				}
				building = nil
			case op == 26:
				unit.ForgetDelta()
			}
			check(step)
		}
	}
	if served < 2*fell {
		t.Fatalf("at the QuerySCN %d reads served from the IMCU and the delta, %d fell through: the delta explains too little", served, fell)
	}
	t.Logf("at the QuerySCN: %d reads served, %d fell through", served, fell)
}

// BenchmarkDeltaAppend is the SMU's part of an invalidation flush that says
// what changed: one single-column patch a call, on random rows of one bench
// unit, the delta emptied when a repopulation would have replaced the image.
func BenchmarkDeltaAppend(b *testing.B) {
	f, unit := newWideFixture(b, benchUnitRows)
	perBlock := f.seg.RowsPerBlock()
	rng := rand.New(rand.NewSource(1))
	row := rowstore.NewRow(f.tbl.Schema())
	for s := range row.Strs {
		row.Strs[s] = "val_0042"
	}
	patches := [2][]Patch{
		{{Row: rowstore.Pack(row), Cols: []uint16{1}}},
		{{Row: rowstore.Pack(row), Cols: []uint16{1 + wideCols}}},
	}
	at := unit.Stats().SnapSCN
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(benchUnitRows/8) == 0 {
			unit.ForgetDelta()
			unit.smu.invalidRows, unit.smu.invalid = 0, make([]uint64, len(unit.smu.invalid))
		}
		id := rng.Intn(benchUnitRows)
		at++
		unit.Invalidate(rowstore.BlockNo(id/perBlock), []uint16{uint16(id % perBlock)}, at, patches[i&1])
	}
}
