package scanengine_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dbimadg/internal/imcs"
	"dbimadg/internal/primary"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scanengine/scantest"
	"dbimadg/internal/scn"
)

type prisnap struct{ c *primary.Cluster }

func (p prisnap) CaptureSnapshot() scn.SCN { return p.c.Snapshot() }

type fixture struct {
	c     *primary.Cluster
	tbl   *rowstore.Table
	store *imcs.Store
	eng   *imcs.Engine
	// fill gives row i's n1 and c1 values.
	fill func(i int64) (n1 int64, c1 string)
}

// colors used by the c1 column.
var colors = []string{"red", "green", "blue", "amber"}

func newFixture(t *testing.T, rows int, populate bool) *fixture {
	t.Helper()
	blocksPerIMCU := 0
	if populate {
		blocksPerIMCU = 8
	}
	return newFixtureFill(t, rows, blocksPerIMCU, func(i int64) (int64, string) {
		return i % 100, colors[i%int64(len(colors))]
	})
}

// newFixtureFill builds the three-column table T (id, n1, c1) with rows rows
// of 32 to a block, row i's n1 and c1 from fill, and — when blocksPerIMCU is
// positive — populates it in units of that many blocks.
func newFixtureFill(t testing.TB, rows, blocksPerIMCU int, fill func(i int64) (int64, string)) *fixture {
	t.Helper()
	c := primary.NewCluster(1, 32)
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
	f := &fixture{c: c, tbl: tbl, store: imcs.NewStore(), fill: fill}
	f.insert(t, 0, int64(rows))
	if blocksPerIMCU > 0 {
		// No scheduler tick in a test's lifetime: WaitIdle's and Scan's own
		// passes schedule every build, so none starts while a test is still
		// invalidating rows.
		f.eng = imcs.NewEngine(f.store, c.Txns(), prisnap{c}, func() []imcs.Target {
			return []imcs.Target{{Seg: tbl.Segments()[0], Table: tbl}}
		}, imcs.Config{BlocksPerIMCU: blocksPerIMCU, Workers: 2, Interval: time.Hour})
		f.eng.Start()
		t.Cleanup(f.eng.Stop)
		if !f.eng.WaitIdle(5 * time.Second) {
			t.Fatal("population did not settle")
		}
	}
	return f
}

func (f *fixture) insert(t testing.TB, from, to int64) {
	t.Helper()
	s := f.tbl.Schema()
	tx := f.c.Instance(0).Begin()
	for i := from; i < to; i++ {
		r := rowstore.NewRow(s)
		r.Nums[s.Col(0).Slot()] = i
		r.Nums[s.Col(1).Slot()], r.Strs[s.Col(2).Slot()] = f.fill(i)
		if _, err := tx.Insert(f.tbl, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func (f *fixture) exec() *scanengine.Executor {
	return scanengine.NewExecutor(f.c.Txns(), f.store)
}

func (f *fixture) execNoIMCS() *scanengine.Executor {
	return scanengine.NewExecutor(f.c.Txns())
}

// ids extracts the id column in result order; callers set OrderByRowID so no
// re-sorting is needed.
func ids(res *scanengine.Result, s *rowstore.Schema) []int64 {
	out := make([]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r.Num(s, 0))
	}
	return out
}

func TestIMCSScanMatchesRowStoreScan(t *testing.T) {
	f := newFixture(t, 500, true)
	snap := f.c.Snapshot()
	q := &scanengine.Query{Table: f.tbl, Filters: []scanengine.Filter{scanengine.EqNum(1, 42)}, OrderByRowID: true}
	imcsRes, err := f.exec().Run(q, snap)
	if err != nil {
		t.Fatal(err)
	}
	rowRes, err := f.execNoIMCS().Run(q, snap)
	if err != nil {
		t.Fatal(err)
	}
	if imcsRes.FromIMCS == 0 {
		t.Fatal("IMCS path unused despite population")
	}
	if rowRes.FromIMCS != 0 {
		t.Fatal("baseline executor touched the IMCS")
	}
	a, b := ids(imcsRes, f.tbl.Schema()), ids(rowRes, f.tbl.Schema())
	if len(a) != len(b) || len(a) != 5 { // ids 42,142,242,342,442
		t.Fatalf("result sizes: imcs=%d rowstore=%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("result mismatch: %v vs %v", a, b)
		}
	}
}

func TestVarcharFilter(t *testing.T) {
	f := newFixture(t, 400, true)
	snap := f.c.Snapshot()
	res, err := f.exec().Run(&scanengine.Query{
		Table:   f.tbl,
		Filters: []scanengine.Filter{scanengine.EqStr(2, "green")},
	}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 100 {
		t.Fatalf("green rows = %d, want 100", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Str(f.tbl.Schema(), 2) != "green" {
			t.Fatalf("non-matching row leaked: %q", r.Str(f.tbl.Schema(), 2))
		}
	}
	// A value absent from every dictionary matches nothing.
	res, _ = f.exec().Run(&scanengine.Query{
		Table:   f.tbl,
		Filters: []scanengine.Filter{scanengine.EqStr(2, "chartreuse")},
	}, snap)
	if len(res.Rows) != 0 {
		t.Fatal("absent dictionary value matched rows")
	}
}

func TestAllOperators(t *testing.T) {
	f := newFixture(t, 200, true)
	snap := f.c.Snapshot()
	n1 := func(op scanengine.CmpOp, v int64) int {
		res, err := f.exec().Run(&scanengine.Query{
			Table:   f.tbl,
			Filters: []scanengine.Filter{{Col: 1, Op: op, Num: v}},
		}, snap)
		if err != nil {
			t.Fatal(err)
		}
		// Cross-check against the row-store path.
		base, _ := f.execNoIMCS().Run(&scanengine.Query{
			Table:   f.tbl,
			Filters: []scanengine.Filter{{Col: 1, Op: op, Num: v}},
		}, snap)
		if len(res.Rows) != len(base.Rows) {
			t.Fatalf("op %v: imcs=%d rowstore=%d", op, len(res.Rows), len(base.Rows))
		}
		return len(res.Rows)
	}
	if n1(scanengine.EQ, 50) != 2 { // n1 = i%100; 200 rows → ids 50,150
		t.Fatal("EQ count")
	}
	if n1(scanengine.LT, 10) != 20 {
		t.Fatal("LT count")
	}
	if n1(scanengine.GE, 90) != 20 {
		t.Fatal("GE count")
	}
	if n1(scanengine.NE, 0) != 198 {
		t.Fatal("NE count")
	}
	for _, op := range []scanengine.CmpOp{scanengine.EQ, scanengine.NE, scanengine.LT, scanengine.LE, scanengine.GT, scanengine.GE} {
		res, _ := f.exec().Run(&scanengine.Query{
			Table:   f.tbl,
			Filters: []scanengine.Filter{{Col: 2, Op: op, Str: "green"}},
		}, snap)
		base, _ := f.execNoIMCS().Run(&scanengine.Query{
			Table:   f.tbl,
			Filters: []scanengine.Filter{{Col: 2, Op: op, Str: "green"}},
		}, snap)
		if len(res.Rows) != len(base.Rows) {
			t.Fatalf("varchar op %v: imcs=%d rowstore=%d", op, len(res.Rows), len(base.Rows))
		}
	}
}

func TestUpdatedRowsServedFromRowStore(t *testing.T) {
	f := newFixture(t, 300, true)
	s := f.tbl.Schema()
	// Update a few rows after population and invalidate (as the DBIM
	// transaction manager would).
	tx := f.c.Instance(0).Begin()
	for _, id := range []int64{10, 20, 30} {
		if err := tx.UpdateByID(f.tbl, id, []uint16{1}, func(r *rowstore.Row) {
			r.Nums[s.Col(1).Slot()] = 7777
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	seg := f.tbl.Segments()[0]
	for _, id := range []int64{10, 20, 30} {
		rid, _ := f.tbl.Index().Get(id)
		f.store.InvalidateRows(seg.Obj(), rid.DBA.Block(), []uint16{rid.Slot})
	}
	snap := f.c.Snapshot()
	res, err := f.exec().Run(&scanengine.Query{
		Table:   f.tbl,
		Filters: []scanengine.Filter{scanengine.EqNum(1, 7777)},
	}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("updated rows found = %d, want 3", len(res.Rows))
	}
	if res.FromRowStore != 3 {
		t.Fatalf("updated rows served from IMCS?! fromRowStore=%d", res.FromRowStore)
	}
	// And the old values must NOT be found (stale IMCU data suppressed).
	res, _ = f.exec().Run(&scanengine.Query{
		Table:   f.tbl,
		Filters: []scanengine.Filter{scanengine.EqNum(0, 10), scanengine.EqNum(1, 10)},
	}, snap)
	if len(res.Rows) != 0 {
		t.Fatal("stale IMCU value leaked through invalidation")
	}
}

func TestTailRowsServedFromRowStore(t *testing.T) {
	f := newFixture(t, 100, true)
	// Insert after population: edge rows live only in the row store.
	f.insert(t, 100, 130)
	snap := f.c.Snapshot()
	res, err := f.exec().Run(&scanengine.Query{Table: f.tbl}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 130 {
		t.Fatalf("total rows = %d, want 130", len(res.Rows))
	}
	if res.FromIMCS != 100 || res.FromRowStore != 30 {
		t.Fatalf("path split = %d IMCS / %d rowstore, want 100/30", res.FromIMCS, res.FromRowStore)
	}
}

func TestSnapshotOlderThanIMCUFallsBack(t *testing.T) {
	f := newFixture(t, 100, false)
	oldSnap := f.c.Snapshot()
	f.insert(t, 100, 200)
	// Populate now (snapshot newer than oldSnap).
	f.eng = imcs.NewEngine(f.store, f.c.Txns(), prisnap{f.c}, func() []imcs.Target {
		return []imcs.Target{{Seg: f.tbl.Segments()[0], Table: f.tbl}}
	}, imcs.Config{BlocksPerIMCU: 8, Workers: 1})
	f.eng.Start()
	defer f.eng.Stop()
	f.eng.WaitIdle(5 * time.Second)

	res, err := f.exec().Run(&scanengine.Query{Table: f.tbl}, oldSnap)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 100 {
		t.Fatalf("rows at old snapshot = %d, want 100", len(res.Rows))
	}
	if res.FromIMCS != 0 {
		t.Fatal("IMCU served a snapshot older than its population SCN")
	}
}

func TestStorageIndexPruning(t *testing.T) {
	f := newFixture(t, 640, true) // several IMCUs, id ascending → disjoint ranges
	snap := f.c.Snapshot()
	res, err := f.exec().Run(&scanengine.Query{
		Table:   f.tbl,
		Filters: []scanengine.Filter{scanengine.EqNum(0, 5)}, // id=5 lives in the first IMCU
	}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.UnitsPruned == 0 {
		t.Fatal("storage indexes pruned nothing for a point query on ascending ids")
	}
}

func TestAggregates(t *testing.T) {
	f := newFixture(t, 100, true)
	snap := f.c.Snapshot()
	run := func(agg scanengine.AggKind, col int, filters ...scanengine.Filter) *scanengine.Result {
		res, err := f.exec().Run(&scanengine.Query{
			Table: f.tbl, Filters: filters, Aggs: []scanengine.AggSpec{{Kind: agg, Col: col}},
		}, snap)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(scanengine.AggCount, 0); res.Count != 100 {
		t.Fatalf("COUNT(*) = %d", res.Count)
	}
	// SUM(id) over all rows = 99*100/2.
	if res := run(scanengine.AggSum, 0); res.AggVals[0] != 4950 {
		t.Fatalf("SUM(id) = %d", res.AggVals[0])
	}
	if res := run(scanengine.AggMin, 0); res.AggVals[0] != 0 {
		t.Fatalf("MIN(id) = %d", res.AggVals[0])
	}
	if res := run(scanengine.AggMax, 0); res.AggVals[0] != 99 {
		t.Fatalf("MAX(id) = %d", res.AggVals[0])
	}
	// Filtered aggregate, cross-checked against the row-store path.
	res := run(scanengine.AggSum, 0, scanengine.EqStr(2, "red"))
	base, _ := f.execNoIMCS().Run(&scanengine.Query{
		Table: f.tbl, Filters: []scanengine.Filter{scanengine.EqStr(2, "red")},
		Aggs: []scanengine.AggSpec{{Kind: scanengine.AggSum, Col: 0}},
	}, snap)
	if res.AggVals[0] != base.AggVals[0] || res.Count != base.Count {
		t.Fatalf("filtered SUM: imcs=%d/%d rowstore=%d/%d", res.AggVals[0], res.Count, base.AggVals[0], base.Count)
	}
	// Aggregate on a varchar column is rejected.
	if _, err := f.exec().Run(&scanengine.Query{Table: f.tbl, Aggs: []scanengine.AggSpec{{Kind: scanengine.AggSum, Col: 2}}}, snap); err == nil {
		t.Fatal("SUM over varchar accepted")
	}
}

func TestProjection(t *testing.T) {
	f := newFixture(t, 50, true)
	snap := f.c.Snapshot()
	res, err := f.exec().Run(&scanengine.Query{
		Table:   f.tbl,
		Filters: []scanengine.Filter{scanengine.EqNum(0, 7)},
		Project: []int{0, 2},
	}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	s := f.tbl.Schema()
	r := res.Rows[0]
	if r.Num(s, 0) != 7 || r.Str(s, 2) != colors[7%int64(len(colors))] {
		t.Fatalf("projected values wrong: %+v", r)
	}
	if r.Num(s, 1) != 0 { // n1 not projected → zero value
		t.Fatal("unprojected column materialized")
	}
}

func TestPartitionPruning(t *testing.T) {
	c := primary.NewCluster(1, 16)
	tbl, err := c.Instance(0).CreateTable(&rowstore.TableSpec{
		Name:   "SALES",
		Tenant: 1,
		Columns: []rowstore.Column{
			{Name: "id", Kind: rowstore.KindNumber},
			{Name: "month", Kind: rowstore.KindNumber},
		},
		IdentityCol:  0,
		PartitionCol: 1,
		Partitions: []rowstore.PartitionSpec{
			{Name: "H1", Lo: 1, Hi: 7},
			{Name: "H2", Lo: 7, Hi: 13},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Schema()
	tx := c.Instance(0).Begin()
	for i := int64(0); i < 120; i++ {
		r := rowstore.NewRow(s)
		r.Nums[0] = i
		r.Nums[1] = i%12 + 1
		if _, err := tx.Insert(tbl, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	ex := scanengine.NewExecutor(c.Txns())
	res, err := ex.Run(&scanengine.Query{
		Table:   tbl,
		Filters: []scanengine.Filter{scanengine.EqNum(1, 3)},
	}, c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("month=3 rows = %d, want 10", len(res.Rows))
	}
	// Range predicate across the partition boundary.
	res, _ = ex.Run(&scanengine.Query{
		Table:   tbl,
		Filters: []scanengine.Filter{{Col: 1, Op: scanengine.GE, Num: 11}},
	}, c.Snapshot())
	if len(res.Rows) != 20 {
		t.Fatalf("month>=11 rows = %d, want 20", len(res.Rows))
	}
}

func TestParallelScanMatchesSerial(t *testing.T) {
	f := newFixture(t, 2000, true)
	scantest.Diff(t, scantest.Options{NewExec: f.exec, Snap: f.c.Snapshot()},
		scantest.Case{Name: "blue-ordered", Query: func() *scanengine.Query {
			return &scanengine.Query{
				Table: f.tbl, Filters: []scanengine.Filter{scanengine.EqStr(2, "blue")}, OrderByRowID: true,
			}
		}})
}

// TestHybridScanEquivalenceRandomized is the core §II.B invariant: after any
// mix of updates/inserts with invalidation, a hybrid IMCS scan equals a pure
// row-store CR scan at the same snapshot.
func TestHybridScanEquivalenceRandomized(t *testing.T) {
	f := newFixture(t, 400, true)
	s := f.tbl.Schema()
	seg := f.tbl.Segments()[0]
	rng := rand.New(rand.NewSource(7))
	nextID := int64(400)
	for round := 0; round < 20; round++ {
		tx := f.c.Instance(0).Begin()
		var touched []int64
		for op := 0; op < 20; op++ {
			if rng.Intn(3) == 0 {
				r := rowstore.NewRow(s)
				r.Nums[s.Col(0).Slot()] = nextID
				r.Nums[s.Col(1).Slot()] = rng.Int63n(100)
				r.Strs[s.Col(2).Slot()] = colors[rng.Intn(len(colors))]
				if _, err := tx.Insert(f.tbl, r); err != nil {
					t.Fatal(err)
				}
				nextID++
			} else {
				id := rng.Int63n(400)
				err := tx.UpdateByID(f.tbl, id, []uint16{1}, func(r *rowstore.Row) {
					r.Nums[s.Col(1).Slot()] = rng.Int63n(100)
				})
				if err != nil {
					t.Fatal(err)
				}
				touched = append(touched, id)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, id := range touched {
			rid, _ := f.tbl.Index().Get(id)
			f.store.InvalidateRows(seg.Obj(), rid.DBA.Block(), []uint16{rid.Slot})
		}
		snap := f.c.Snapshot()
		for _, filters := range [][]scanengine.Filter{
			nil,
			{scanengine.EqNum(1, rng.Int63n(100))},
			{scanengine.EqStr(2, colors[rng.Intn(len(colors))])},
		} {
			q := &scanengine.Query{Table: f.tbl, Filters: filters, OrderByRowID: true}
			hybrid, err := f.exec().Run(q, snap)
			if err != nil {
				t.Fatal(err)
			}
			base, err := f.execNoIMCS().Run(q, snap)
			if err != nil {
				t.Fatal(err)
			}
			a, b := rowsKey(hybrid, s), rowsKey(base, s)
			if a != b {
				t.Fatalf("round %d filters %v: hybrid != rowstore\n%s\nvs\n%s", round, filters, a, b)
			}
		}
	}
}

// rowsKey canonicalizes a result for comparison; rows arrive in RowID order
// (OrderByRowID), so no re-sorting is needed.
func rowsKey(res *scanengine.Result, s *rowstore.Schema) string {
	out := ""
	for _, r := range res.Rows {
		out += fmt.Sprintf("%d:%d:%s;", r.Num(s, 0), r.Num(s, 1), r.Str(s, 2))
	}
	return out
}

func TestQueryValidation(t *testing.T) {
	f := newFixture(t, 10, false)
	if _, err := f.exec().Run(&scanengine.Query{}, 1); err == nil {
		t.Fatal("nil table accepted")
	}
	if _, err := f.exec().Run(&scanengine.Query{
		Table: f.tbl, Filters: []scanengine.Filter{{Col: 99}},
	}, 1); err == nil {
		t.Fatal("out-of-range filter column accepted")
	}
}
