package imcs_test

import (
	"testing"
	"time"

	"dbimadg/internal/imcs"
	"dbimadg/internal/primary"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// prisnap adapts the primary cluster's snapshot to the population engine.
type prisnap struct{ c *primary.Cluster }

func (p prisnap) CaptureSnapshot() scn.SCN { return p.c.Snapshot() }

func testCluster(t *testing.T) (*primary.Cluster, *rowstore.Table) {
	t.Helper()
	c := primary.NewCluster(1, 16)
	tbl, err := c.Instance(0).CreateTable(&rowstore.TableSpec{
		Name:   "T",
		Tenant: 1,
		Columns: []rowstore.Column{
			{Name: "id", Kind: rowstore.KindNumber},
			{Name: "n1", Kind: rowstore.KindNumber},
			{Name: "c1", Kind: rowstore.KindVarchar},
		},
		IdentityCol:  0,
		PartitionCol: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, tbl
}

func insertRows(t *testing.T, c *primary.Cluster, tbl *rowstore.Table, from, to int64) {
	t.Helper()
	s := tbl.Schema()
	tx := c.Instance(0).Begin()
	for i := from; i < to; i++ {
		r := rowstore.NewRow(s)
		r.Nums[s.Col(0).Slot()] = i
		r.Nums[s.Col(1).Slot()] = i * 10
		r.Strs[s.Col(2).Slot()] = []string{"red", "green", "blue"}[i%3]
		if _, err := tx.Insert(tbl, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func newEngine(c *primary.Cluster, tbl *rowstore.Table, store *imcs.Store, cfg imcs.Config) *imcs.Engine {
	targets := func() []imcs.Target {
		return []imcs.Target{{Seg: tbl.Segments()[0], Table: tbl}}
	}
	return imcs.NewEngine(store, c.Txns(), prisnap{c}, targets, cfg)
}

func TestPopulationBuildsCorrectIMCUs(t *testing.T) {
	c, tbl := testCluster(t)
	insertRows(t, c, tbl, 0, 100)
	store := imcs.NewStore()
	eng := newEngine(c, tbl, store, imcs.Config{BlocksPerIMCU: 4, Workers: 2})
	eng.Start()
	defer eng.Stop()
	if !eng.WaitIdle(5 * time.Second) {
		t.Fatal("population did not reach idle")
	}
	seg := tbl.Segments()[0]
	units := store.Units(seg.Obj())
	if len(units) == 0 {
		t.Fatal("no units created")
	}
	total := 0
	schema := tbl.Schema()
	for _, u := range units {
		imcu, invalid, ok := u.ScanView()
		if !ok {
			t.Fatal("unit not scannable after population")
		}
		for _, w := range invalid {
			if w != 0 {
				t.Fatal("fresh IMCU has invalid rows")
			}
		}
		for i := 0; i < imcu.Rows(); i++ {
			if !imcu.Present(i) {
				continue
			}
			id := imcu.NumCol(schema.Col(0).Slot()).Get(i)
			n1 := imcu.NumCol(schema.Col(1).Slot()).Get(i)
			c1 := imcu.StrCol(schema.Col(2).Slot()).Get(i)
			if n1 != id*10 || c1 != []string{"red", "green", "blue"}[id%3] {
				t.Fatalf("row %d: id=%d n1=%d c1=%q", i, id, n1, c1)
			}
			total++
		}
	}
	if total != 100 {
		t.Fatalf("populated %d rows, want 100", total)
	}
	stats := store.Stats()
	if stats.PopulatedUnits != len(units) || stats.Rows != 100 {
		t.Fatalf("store stats: %+v", stats)
	}
}

func TestRowIndexMapping(t *testing.T) {
	c, tbl := testCluster(t)
	insertRows(t, c, tbl, 0, 50) // 16 rows/block → blocks 0..3
	store := imcs.NewStore()
	eng := newEngine(c, tbl, store, imcs.Config{BlocksPerIMCU: 8, Workers: 1})
	eng.Start()
	defer eng.Stop()
	eng.WaitIdle(5 * time.Second)
	seg := tbl.Segments()[0]
	u, ok := store.UnitForBlock(seg.Obj(), 2)
	if !ok {
		t.Fatal("no unit for block 2")
	}
	imcu, _, _ := u.ScanView()
	idx, ok := imcu.RowIndexOf(2, 5)
	if !ok || idx != 2*16+5 {
		t.Fatalf("RowIndexOf(2,5) = %d %v", idx, ok)
	}
	blk, slot := imcu.AddrOfRow(idx)
	if blk != 2 || slot != 5 {
		t.Fatalf("AddrOfRow round trip: %d,%d", blk, slot)
	}
	if _, ok := imcu.RowIndexOf(99, 0); ok {
		t.Fatal("out-of-range block mapped")
	}
	if _, ok := imcu.RowIndexOf(3, 60); ok {
		t.Fatal("beyond-captured slot mapped")
	}
}

func TestInvalidationAndRepopulation(t *testing.T) {
	c, tbl := testCluster(t)
	insertRows(t, c, tbl, 0, 64)
	store := imcs.NewStore()
	eng := newEngine(c, tbl, store, imcs.Config{BlocksPerIMCU: 8, Workers: 1, RepopThreshold: 0.3})
	eng.Start()
	defer eng.Stop()
	eng.WaitIdle(5 * time.Second)
	seg := tbl.Segments()[0]
	u := store.Units(seg.Obj())[0]

	// Invalidate a few rows (simulating commit-time invalidation).
	rid, _ := tbl.Index().Get(3)
	store.InvalidateRows(seg.Obj(), rid.DBA.Block(), []uint16{rid.Slot})
	_, invalid, ok := u.ScanView()
	if !ok {
		t.Fatal("unit unusable")
	}
	imcu, _, _ := u.ScanView()
	idx, _ := imcu.RowIndexOf(rid.DBA.Block(), rid.Slot)
	if invalid[idx/64]&(1<<(idx%64)) == 0 {
		t.Fatal("row not marked invalid")
	}
	st := u.Stats()
	if st.InvalidRows != 1 {
		t.Fatalf("InvalidRows = %d", st.InvalidRows)
	}

	// Update enough rows to cross the repop threshold, then repopulate.
	schema := tbl.Schema()
	tx := c.Instance(0).Begin()
	for i := int64(0); i < 30; i++ {
		if err := tx.UpdateByID(tbl, i, []uint16{1}, func(r *rowstore.Row) {
			r.Nums[schema.Col(1).Slot()] = -1
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 30; i++ {
		rid, _ := tbl.Index().Get(i)
		store.InvalidateRows(seg.Obj(), rid.DBA.Block(), []uint16{rid.Slot})
	}
	eng.Scan()
	if !eng.WaitIdle(5 * time.Second) {
		t.Fatal("repopulation did not finish")
	}
	if eng.Stats().UnitsRepopulated == 0 {
		t.Fatal("no unit repopulated")
	}
	// After repop the new IMCU carries the updated values and no invalidity.
	imcu2, invalid2, ok := u.ScanView()
	if !ok {
		t.Fatal("unit unusable after repop")
	}
	if imcu2.SnapSCN <= imcu.SnapSCN {
		t.Fatalf("repop snapshot %d not newer than %d", imcu2.SnapSCN, imcu.SnapSCN)
	}
	idx2, _ := imcu2.RowIndexOf(rid.DBA.Block(), rid.Slot)
	if invalid2[idx2/64]&(1<<(idx2%64)) != 0 {
		t.Fatal("repopulated IMCU still has invalid rows")
	}
	if got := imcu2.NumCol(schema.Col(1).Slot()).Get(idx2); got != -1 {
		t.Fatalf("repopulated value = %d, want -1", got)
	}
}

func TestPendingInvalidationDuringBuild(t *testing.T) {
	// Install a placeholder, invalidate while "building", then attach: the
	// buffered invalidation must land in the bitmap.
	c, tbl := testCluster(t)
	insertRows(t, c, tbl, 0, 32)
	store := imcs.NewStore()
	seg := tbl.Segments()[0]
	unit, err := store.CreateUnit(seg.Obj(), 1, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Invalidation arrives before the IMCU exists.
	unit.InvalidateRows(0, []uint16{3})
	if _, _, ok := unit.ScanView(); ok {
		t.Fatal("placeholder should not be scannable")
	}
	eng := newEngine(c, tbl, store, imcs.Config{})
	imcu := eng.BuildIMCU(imcs.Target{Seg: seg, Table: tbl}, unit)
	unit.Attach(imcu)
	_, invalid, ok := unit.ScanView()
	if !ok {
		t.Fatal("unit unusable after attach")
	}
	idx, _ := imcu.RowIndexOf(0, 3)
	if invalid[idx/64]&(1<<(idx%64)) == 0 {
		t.Fatal("pending invalidation lost on attach")
	}
}

func TestCoarseInvalidationDuringBuild(t *testing.T) {
	// A coarse invalidation that lands while a build is in flight must
	// survive Attach: the build's snapshot may predate the invalidated
	// commit, so resetting allInvalid there would let scans read stale
	// column data as fully valid (the chaos harness caught exactly this
	// after a crash-restart's coarse flush fallback).
	c, tbl := testCluster(t)
	insertRows(t, c, tbl, 0, 32)
	store := imcs.NewStore()
	seg := tbl.Segments()[0]
	eng := newEngine(c, tbl, store, imcs.Config{})

	// Placeholder phase: coarse-invalidate between CreateUnit and Attach.
	unit, err := store.CreateUnit(seg.Obj(), 1, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	imcu := eng.BuildIMCU(imcs.Target{Seg: seg, Table: tbl}, unit)
	unit.InvalidateAll()
	unit.Attach(imcu)
	if _, _, ok := unit.ScanView(); ok {
		t.Fatal("attach wiped a coarse invalidation that arrived during the initial build")
	}

	// Repopulation phase: same race against an already-populated unit.
	if !unit.BeginRepopulate() {
		t.Fatal("BeginRepopulate refused")
	}
	imcu2 := eng.BuildIMCU(imcs.Target{Seg: seg, Table: tbl}, unit)
	unit.InvalidateAll()
	unit.Attach(imcu2)
	if _, _, ok := unit.ScanView(); ok {
		t.Fatal("attach wiped a coarse invalidation that arrived during repopulation")
	}

	// A rebuild whose snapshot postdates the coarse invalidation clears it.
	if !unit.BeginRepopulate() {
		t.Fatal("second BeginRepopulate refused")
	}
	imcu3 := eng.BuildIMCU(imcs.Target{Seg: seg, Table: tbl}, unit)
	unit.Attach(imcu3)
	if _, _, ok := unit.ScanView(); !ok {
		t.Fatal("unit still coarse-invalid after a covering rebuild")
	}
}

func TestCoarseInvalidationByTenant(t *testing.T) {
	c, tbl := testCluster(t)
	insertRows(t, c, tbl, 0, 32)
	store := imcs.NewStore()
	eng := newEngine(c, tbl, store, imcs.Config{BlocksPerIMCU: 2, Workers: 1})
	eng.Start()
	defer eng.Stop()
	eng.WaitIdle(5 * time.Second)
	n := store.InvalidateTenant(1)
	if n == 0 {
		t.Fatal("no units coarse-invalidated")
	}
	for _, u := range store.Units(tbl.Segments()[0].Obj()) {
		if _, _, ok := u.ScanView(); ok {
			t.Fatal("coarse-invalidated unit still scannable")
		}
	}
	if store.InvalidateTenant(99) != 0 {
		t.Fatal("wrong tenant invalidated")
	}
	// Repopulation restores scannability.
	eng.Scan()
	eng.WaitIdle(5 * time.Second)
	for _, u := range store.Units(tbl.Segments()[0].Obj()) {
		if _, _, ok := u.ScanView(); !ok {
			t.Fatal("unit not restored by repopulation")
		}
	}
}

func TestDropObject(t *testing.T) {
	c, tbl := testCluster(t)
	insertRows(t, c, tbl, 0, 32)
	store := imcs.NewStore()
	eng := newEngine(c, tbl, store, imcs.Config{BlocksPerIMCU: 2, Workers: 1})
	eng.Start()
	defer eng.Stop()
	eng.WaitIdle(5 * time.Second)
	obj := tbl.Segments()[0].Obj()
	dropped := store.DropObject(obj)
	if dropped == 0 {
		t.Fatal("nothing dropped")
	}
	if got := store.Units(obj); len(got) != 0 {
		t.Fatalf("units remain after drop: %d", len(got))
	}
	if store.DropObject(obj) != 0 {
		t.Fatal("double drop reported units")
	}
}

func TestEdgeGrowthTriggersRepop(t *testing.T) {
	c, tbl := testCluster(t)
	insertRows(t, c, tbl, 0, 20)
	store := imcs.NewStore()
	eng := newEngine(c, tbl, store, imcs.Config{BlocksPerIMCU: 16, Workers: 1, TailThreshold: 0.2})
	eng.Start()
	defer eng.Stop()
	eng.WaitIdle(5 * time.Second)
	obj := tbl.Segments()[0].Obj()
	u := store.Units(obj)[0]
	before, _, _ := u.ScanView()
	if before.Rows() != 20 {
		t.Fatalf("initial rows = %d", before.Rows())
	}
	// Grow the segment well past the tail threshold and let heuristics fire.
	insertRows(t, c, tbl, 20, 60)
	eng.Scan()
	eng.WaitIdle(5 * time.Second)
	after, _, ok := u.ScanView()
	if !ok || after.Rows() != 60 {
		t.Fatalf("edge repop: rows = %d ok=%v, want 60", after.Rows(), ok)
	}
}

func TestUncommittedRowsAbsentFromIMCU(t *testing.T) {
	c, tbl := testCluster(t)
	insertRows(t, c, tbl, 0, 10)
	// Leave an uncommitted insert in the block.
	s := tbl.Schema()
	tx := c.Instance(0).Begin()
	r := rowstore.NewRow(s)
	r.Nums[s.Col(0).Slot()] = 999
	if _, err := tx.Insert(tbl, r); err != nil {
		t.Fatal(err)
	}
	store := imcs.NewStore()
	eng := newEngine(c, tbl, store, imcs.Config{BlocksPerIMCU: 4, Workers: 1})
	eng.Start()
	defer eng.Stop()
	eng.WaitIdle(5 * time.Second)
	obj := tbl.Segments()[0].Obj()
	present := 0
	for _, u := range store.Units(obj) {
		imcu, _, ok := u.ScanView()
		if !ok {
			continue
		}
		for i := 0; i < imcu.Rows(); i++ {
			if imcu.Present(i) {
				present++
			}
		}
	}
	if present != 10 {
		t.Fatalf("present rows = %d, want 10 (uncommitted row must be absent)", present)
	}
	_ = tx.Abort()
}

func TestMemLimitPausesPopulation(t *testing.T) {
	c, tbl := testCluster(t)
	insertRows(t, c, tbl, 0, 64)
	store := imcs.NewStore()
	eng := newEngine(c, tbl, store, imcs.Config{BlocksPerIMCU: 1, Workers: 1})
	eng.Start()
	eng.WaitIdle(5 * time.Second)
	eng.Stop()
	if store.Stats().MemBytes == 0 {
		t.Fatal("expected some populated footprint")
	}
	// A new engine with a 1-byte pool must refuse to schedule anything more.
	limited := newEngine(c, tbl, store, imcs.Config{BlocksPerIMCU: 1, Workers: 1, MemLimitBytes: 1})
	insertRows(t, c, tbl, 64, 128) // new blocks that would otherwise populate
	if n := limited.Scan(); n != 0 {
		t.Fatalf("Scan enqueued %d tasks above the memory limit", n)
	}
}

// TestScanRequeuesPlaceholders: a pass that creates more placeholders than the
// task queue holds queues the rest on a later pass; a placeholder whose task
// was dropped covers its range, so no pass creates it again, and it stayed
// unpopulated for good.
func TestScanRequeuesPlaceholders(t *testing.T) {
	c, tbl := testCluster(t)
	const blocks = 320 // one unit each, more than the queue's 256 slots
	insertRows(t, c, tbl, 0, blocks*16)
	store := imcs.NewStore()
	eng := newEngine(c, tbl, store, imcs.Config{BlocksPerIMCU: 1, Workers: 2})
	eng.Scan() // no worker runs yet: the queue fills
	if b := eng.Backlog(); b != blocks {
		t.Fatalf("backlog %d, want %d: queued tasks and unqueued placeholders", b, blocks)
	}
	eng.Start()
	defer eng.Stop()
	if !eng.WaitIdle(10 * time.Second) {
		t.Fatal("population did not reach idle")
	}
	units := store.Units(tbl.Segments()[0].Obj())
	if len(units) != blocks {
		t.Fatalf("%d units, want %d", len(units), blocks)
	}
	for _, u := range units {
		if !u.Stats().Populated {
			t.Fatalf("unit [%d,%d) unpopulated after idle", u.StartBlk, u.EndBlk)
		}
	}
}

func TestHomeMapDeterministicAndBalanced(t *testing.T) {
	h := imcs.HomeMap{Instances: 2}
	counts := [2]int{}
	for blk := rowstore.BlockNo(0); blk < 1024; blk += 16 {
		a := h.HomeOf(7, blk)
		b := h.HomeOf(7, blk)
		if a != b {
			t.Fatal("home assignment not deterministic")
		}
		counts[a]++
	}
	if counts[0] < 16 || counts[1] < 16 {
		t.Fatalf("home map unbalanced: %v", counts)
	}
	single := imcs.HomeMap{Instances: 1}
	if single.HomeOf(7, 0) != 0 {
		t.Fatal("single-instance map must return 0")
	}
}

// TestRepopulationSlots: stale units are admitted to repopulation half of the
// workers at a time, the stalest first; the rest wait for a slot.
func TestRepopulationSlots(t *testing.T) {
	c, tbl := testCluster(t)
	insertRows(t, c, tbl, 0, 16*4*4) // 16 rows per block, 4 blocks per unit: 4 units
	store := imcs.NewStore()
	cfg := imcs.Config{BlocksPerIMCU: 4, Workers: 2, RepopThreshold: 0.1, Interval: time.Hour}
	eng := newEngine(c, tbl, store, cfg)
	eng.Start()
	if !eng.WaitIdle(5 * time.Second) {
		t.Fatal("population did not finish")
	}
	eng.Stop() // workers gone: what the next passes admit stays queued
	seg := tbl.Segments()[0]
	units := store.Units(seg.Obj())
	if len(units) != 4 {
		t.Fatalf("units = %d, want 4", len(units))
	}
	// Unit i gets 8+4i invalid rows: all past the threshold, the last stalest.
	for i, u := range units {
		for k := 0; k < 8+4*i; k++ {
			store.InvalidateRows(seg.Obj(), u.StartBlk+rowstore.BlockNo(k/16), []uint16{uint16(k % 16)})
		}
	}
	if n := eng.Scan(); n != 1 {
		t.Fatalf("first pass admitted %d repopulations, want 1 (half of 2 workers)", n)
	}
	if n := eng.Scan(); n != 0 {
		t.Fatalf("second pass admitted %d more with the slot taken", n)
	}
	for i, u := range units {
		if got, want := u.Stats().Repopulating, i == 3; got != want {
			t.Fatalf("unit %d repopulating = %v, want %v (stalest first)", i, got, want)
		}
	}
}
