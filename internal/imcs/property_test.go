package imcs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dbimadg/internal/rowstore"
)

// Property: RowIndexOf and AddrOfRow are inverse bijections over the captured
// rows of an IMCU with arbitrary (possibly ragged, possibly empty) blocks.
func TestRowAddressingProperty(t *testing.T) {
	schema := rowstore.MustSchema([]rowstore.Column{{Name: "v", Kind: rowstore.KindNumber}})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nBlocks := rng.Intn(6) + 1
		start := rowstore.BlockNo(rng.Intn(100))
		b := NewBuilder(1, 1, schema, 10, start, start+rowstore.BlockNo(nBlocks))
		counts := make([]int, nBlocks)
		next := int64(0)
		for i := range counts {
			counts[i] = rng.Intn(9) // 0..8 rows per block, raggedness included
			b.BeginBlock(counts[i])
			for s := 0; s < counts[i]; s++ {
				row := rowstore.NewRow(schema)
				row.Nums[0] = next
				next++
				b.AddRow(rowstore.Pack(row), true)
			}
		}
		u := b.Build()
		if u.Rows() != int(next) {
			return false
		}
		// Forward: every (block, slot) maps to the row holding its value.
		want := int64(0)
		for i, n := range counts {
			blk := start + rowstore.BlockNo(i)
			for s := 0; s < n; s++ {
				idx, ok := u.RowIndexOf(blk, uint16(s))
				if !ok || u.NumCol(0).Get(idx) != want {
					return false
				}
				// Inverse.
				gb, gs := u.AddrOfRow(idx)
				if gb != blk || gs != uint16(s) {
					return false
				}
				want++
			}
			// One past the captured count must not map.
			if _, ok := u.RowIndexOf(blk, uint16(n)); ok {
				return false
			}
		}
		// Outside the range must not map.
		if _, ok := u.RowIndexOf(start+rowstore.BlockNo(nBlocks), 0); ok {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: SMU invalidation is idempotent and monotone — re-applying any
// subset of invalidations never changes the bitmap, and the invalid count
// equals the number of distinct invalidated captured rows.
func TestSMUInvalidationProperty(t *testing.T) {
	schema := rowstore.MustSchema([]rowstore.Column{{Name: "v", Kind: rowstore.KindNumber}})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const blocks, perBlock = 4, 8
		unit := &Unit{Obj: 1, Tenant: 1, StartBlk: 0, EndBlk: blocks}
		b := NewBuilder(1, 1, schema, 10, 0, blocks)
		for i := 0; i < blocks; i++ {
			b.BeginBlock(perBlock)
			for s := 0; s < perBlock; s++ {
				b.AddRow(rowstore.Pack(rowstore.NewRow(schema)), true)
			}
		}
		unit.Attach(b.Build())
		distinct := map[[2]int]bool{}
		for i := 0; i < 40; i++ {
			blk := rowstore.BlockNo(rng.Intn(blocks))
			slot := uint16(rng.Intn(perBlock + 2)) // sometimes beyond captured
			unit.InvalidateRows(blk, []uint16{slot})
			if rng.Intn(3) == 0 { // re-apply (flush retries are idempotent)
				unit.InvalidateRows(blk, []uint16{slot})
			}
			if int(slot) < perBlock {
				distinct[[2]int{int(blk), int(slot)}] = true
			}
		}
		return unit.Stats().InvalidRows == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the store's unit lookup agrees with the ranges units were
// created with, for arbitrary chunkings.
func TestStoreCoverageProperty(t *testing.T) {
	f := func(chunks []uint8) bool {
		if len(chunks) == 0 || len(chunks) > 16 {
			return true
		}
		store := NewStore()
		var bounds []rowstore.BlockNo
		cursor := rowstore.BlockNo(0)
		for _, c := range chunks {
			size := rowstore.BlockNo(c%7) + 1
			if _, err := store.CreateUnit(1, 1, cursor, cursor+size); err != nil {
				return false
			}
			cursor += size
			bounds = append(bounds, cursor)
		}
		// Every block below the cursor maps to exactly the right unit.
		lo := rowstore.BlockNo(0)
		for _, hi := range bounds {
			for b := lo; b < hi; b++ {
				u, ok := store.UnitForBlock(1, b)
				if !ok || u.StartBlk != lo || u.EndBlk != hi {
					return false
				}
			}
			lo = hi
		}
		// Beyond the coverage there is nothing.
		if _, ok := store.UnitForBlock(1, cursor); ok {
			return false
		}
		// Overlapping creation is rejected.
		if _, err := store.CreateUnit(1, 1, 0, 1); err == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Regression: a slot captured without a visible row at the population
// snapshot (an insert whose transaction was still in flight when the builder
// read the block, or a deleted row) must come back invalid from ScanView —
// its commit may never flush an invalidation, and present=0 means the IMCU
// has no data for it, so only the row-store re-read path can serve it at
// later snapshots. The overlay is view-level only: InvalidRows keeps counting
// explicit invalidations (gap slots included), preserving the repopulation
// pressure that eventually rebuilds a gap-ridden IMCU at a covering snapshot.
func TestScanViewMarksPresenceGapsInvalid(t *testing.T) {
	schema := rowstore.MustSchema([]rowstore.Column{{Name: "v", Kind: rowstore.KindNumber}})
	const perBlock = 70 // spans a bitmap word boundary
	unit := &Unit{Obj: 1, Tenant: 1, StartBlk: 0, EndBlk: 1}
	b := NewBuilder(1, 1, schema, 10, 0, 1)
	b.BeginBlock(perBlock)
	gaps := map[int]bool{0: true, 33: true, 63: true, 64: true, perBlock - 1: true}
	for s := 0; s < perBlock; s++ {
		b.AddRow(rowstore.Pack(rowstore.NewRow(schema)), !gaps[s])
	}
	unit.Attach(b.Build())

	_, invalid, usable := unit.ScanView()
	if !usable {
		t.Fatal("unit not usable after attach")
	}
	for s := 0; s < perBlock; s++ {
		got := invalid[s/64]&(1<<(s%64)) != 0
		if got != gaps[s] {
			t.Errorf("slot %d: invalid=%v, want %v", s, got, gaps[s])
		}
	}
	if n := unit.Stats().InvalidRows; n != 0 {
		t.Errorf("presence gaps counted in InvalidRows (%d): gaps are a scan-view overlay, not stored invalidations", n)
	}
	// Explicit invalidations still count toward repopulation pressure — on
	// gap slots too (a commit filling a gap flushes one on pipelines that do
	// invalidate inserts).
	unit.InvalidateRows(0, []uint16{33, 5})
	if n := unit.Stats().InvalidRows; n != 2 {
		t.Errorf("InvalidRows = %d after invalidating a gap and a live slot, want 2", n)
	}
	_, invalid, _ = unit.ScanView()
	for _, s := range []int{0, 5, 33, 63, 64, perBlock - 1} {
		if invalid[s/64]&(1<<(s%64)) == 0 {
			t.Errorf("slot %d: not invalid in scan view after explicit invalidation", s)
		}
	}
}
