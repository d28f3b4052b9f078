package scanengine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dbimadg/internal/imcs"
	"dbimadg/internal/primary"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scanengine/scantest"
	"dbimadg/internal/scn"
	"dbimadg/internal/txn"
	"dbimadg/internal/workload"
)

// Tests, guards and microbenchmarks of the row-store serving path over a unit
// of the bench table: 7 143 rows of workload.WideTableSpec in 128-row blocks,
// some share of them updated since population — each by its own transaction,
// half in n1 and half in c1, as the bench's OLTP client does — and so marked
// invalid in the SMU.

const benchUnitRows = 7143

// newBenchUnit loads and populates the unit, then updates and invalidates pct
// percent of its rows — saying what changed, as a standby's flush does, when
// patched. Every varchar value is its own allocation, as on a standby, where
// redo apply decodes each.
func newBenchUnit(tb testing.TB, pct int, patched bool) *fixture {
	tb.Helper()
	c := primary.NewCluster(1, 128)
	tbl, err := c.Instance(0).CreateTable(workload.WideTableSpec("C101", 1))
	if err != nil {
		tb.Fatal(err)
	}
	f := &fixture{c: c, tbl: tbl, store: imcs.NewStore()}
	s := tbl.Schema()
	rng := rand.New(rand.NewSource(11))
	tx := c.Instance(0).Begin()
	for id := int64(0); id < benchUnitRows; id++ {
		r := workload.FillRow(s, id, rng)
		for i := range r.Strs {
			r.Strs[i] = strings.Clone(r.Strs[i])
		}
		if _, err := tx.Insert(tbl, r); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	seg := tbl.Segments()[0]
	f.eng = imcs.NewEngine(f.store, c.Txns(), prisnap{c}, func() []imcs.Target {
		return []imcs.Target{{Seg: seg, Table: tbl}}
	}, imcs.Config{BlocksPerIMCU: 56, Workers: 1})
	f.eng.Start()
	if !f.eng.WaitIdle(10 * time.Second) {
		tb.Fatal("population did not settle")
	}
	f.eng.Stop() // what changes below stays invalid
	n1, c1 := s.ColIndex("n1"), s.ColIndex("c1")
	for _, id := range rng.Perm(benchUnitRows)[:benchUnitRows*pct/100] {
		tx := c.Instance(0).Begin()
		col, v := n1, rng.Int63n(workload.NumDomain)
		if id%2 == 0 {
			col = c1
		}
		if err := tx.UpdateByID(tbl, int64(id), []uint16{uint16(col)}, func(r *rowstore.Row) {
			if col == n1 {
				r.Nums[s.Col(n1).Slot()] = v
			} else {
				r.Strs[s.Col(c1).Slot()] = fmt.Sprintf("val_%04d", v)
			}
		}); err != nil {
			tb.Fatal(err)
		}
		at, err := tx.Commit()
		if err != nil {
			tb.Fatal(err)
		}
		rid, _ := tbl.Index().Get(int64(id))
		var patches []imcs.Patch
		if patched {
			after, _ := seg.Block(rid.DBA.Block()).LatestImage(rid.Slot, c.Txns())
			patches = []imcs.Patch{{Row: after, Cols: []uint16{uint16(col)}}}
		}
		f.store.Invalidate(seg.Obj(), rid.DBA.Block(), []uint16{rid.Slot}, at, patches)
	}
	return f
}

// benchMix returns the bench's query classes over the fixture's table, serial:
// Q1 (n1 = v), AGG (four aggregates under n1 < v) and GRP (by c1).
func benchMix(f *fixture) map[string]*scanengine.Query {
	s := f.tbl.Schema()
	n1, n2, n3, c1 := s.ColIndex("n1"), s.ColIndex("n2"), s.ColIndex("n3"), s.ColIndex("c1")
	return map[string]*scanengine.Query{
		"q1": {Table: f.tbl, Parallel: 1, Filters: []scanengine.Filter{scanengine.EqNum(n1, 42)}},
		"agg": {Table: f.tbl, Parallel: 1,
			Filters: []scanengine.Filter{{Col: n1, Op: scanengine.LT, Num: 500}},
			Aggs: []scanengine.AggSpec{{Kind: scanengine.AggCount}, {Kind: scanengine.AggSum, Col: n2},
				{Kind: scanengine.AggMin, Col: n3}, {Kind: scanengine.AggMax, Col: n3}}},
		"grp": {Table: f.tbl, Parallel: 1, GroupBy: []int{c1},
			Aggs: []scanengine.AggSpec{{Kind: scanengine.AggCount}, {Kind: scanengine.AggSum, Col: n1}}},
	}
}

// BenchmarkScanInvalid times the bench's query classes over one unit with 1, 6
// and 25 % of its rows invalid; rows_rowstore/op is the number that took the
// row-store path. The -delta runs are over the same unit with the invalid rows
// explained by its column delta: rows_delta/op is how many it served, and the
// time per invalid row is the difference to the 1pct run over the difference in
// rows.
func BenchmarkScanInvalid(b *testing.B) {
	for _, patched := range []bool{false, true} {
		for _, pct := range []int{1, 6, 25} {
			f := newBenchUnit(b, pct, patched)
			ex, snap := f.exec(), f.c.Snapshot()
			for _, class := range []string{"q1", "agg", "grp"} {
				q := benchMix(f)[class]
				name := fmt.Sprintf("%s/%dpct", class, pct)
				if patched {
					name += "-delta"
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					var res *scanengine.Result
					for i := 0; i < b.N; i++ {
						var err error
						if res, err = ex.Run(q, snap); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(res.FromRowStore), "rows_rowstore/op")
					b.ReportMetric(float64(res.FromDelta), "rows_delta/op")
				})
			}
		}
	}
}

// rowPathShapes is the differential suite's shape matrix with the filters also
// as predicates, so that every point's rows by serving path are checked, plus
// the single-key groupings whose row images translate to the unit's code
// space one way each (dictionary code, value − min).
func rowPathShapes(tbl *rowstore.Table) []scantest.Case {
	all := func(rowstore.Image) bool { return true }
	preds := map[string]func(rowstore.Image) bool{
		"full-ordered":         all,
		"filter":               func(r rowstore.Image) bool { return r.Str(0) == "blue" },
		"filter-range-project": func(r rowstore.Image) bool { return r.Num(1) >= 40 },
		"multi-agg":            all,
		"filtered-agg":         func(r rowstore.Image) bool { return r.Str(0) == "red" },
		"groupby":              all,
	}
	cases := shapes(tbl)
	for i := range cases {
		cases[i].Match = preds[cases[i].Name]
	}
	aggs := []scanengine.AggSpec{{Kind: scanengine.AggCount}, {Kind: scanengine.AggSum, Col: 1}, {Kind: scanengine.AggMax, Col: 0}}
	return append(cases,
		scantest.Case{Name: "point", Match: func(r rowstore.Image) bool { return r.Num(1) == 42 },
			Query: func() *scanengine.Query {
				return &scanengine.Query{Table: tbl, Filters: []scanengine.Filter{scanengine.EqNum(1, 42)}, OrderByRowID: true}
			}},
		scantest.Case{Name: "groupby-varchar", Match: all,
			Query: func() *scanengine.Query { return &scanengine.Query{Table: tbl, Aggs: aggs, GroupBy: []int{2}} }},
		scantest.Case{Name: "groupby-number-filtered", Match: func(r rowstore.Image) bool { return r.Str(0) != "green" },
			Query: func() *scanengine.Query {
				return &scanengine.Query{Table: tbl, Aggs: aggs, GroupBy: []int{1},
					Filters: []scanengine.Filter{{Col: 2, Op: scanengine.NE, Str: "green"}}}
			}},
	)
}

// TestDifferentialRowPath sweeps every query class at every granule ×
// parallelism over populated stores left stale, with 0, 1, 6, 25 and 100 % of
// their rows changed since population — and with everything else the
// row-store serving path can meet: version chains three deep, keys moved to
// values no dictionary holds, deleted rows, versions of an aborted
// transaction, the uncommitted updates and inserts of a writer still in
// flight, tail rows behind the last unit's captured slots and blocks no unit
// covers — at the newest snapshot and at one older than the last commits. Each
// result must equal the serial scan of the row store alone, byte for byte, and
// serve every row from the path its SMU state prescribes.
//
// The sweep runs three times: with invalidations that say nothing (every
// invalid row opaque), with each commit's invalidations saying what it changed
// (the rows explained by the units' deltas, up to their bound, at the newest
// snapshot and newer than the older one), and with those deltas forgotten by
// every other unit before the scans.
func TestDifferentialRowPath(t *testing.T) {
	for _, mode := range []string{"opaque", "delta", "dropped"} {
		for _, pct := range []int{0, 1, 6, 25, 100} {
			t.Run(fmt.Sprintf("%s/%dpct", mode, pct), func(t *testing.T) { differentialRowPath(t, pct, mode) })
		}
	}
}

func differentialRowPath(t *testing.T, pct int, mode string) {
	const rows = 1600
	{
		{
			f := newFixture(t, rows, true)
			f.eng.Stop() // what changes below stays unpopulated
			s := f.tbl.Schema()
			seg := f.tbl.Segments()[0]
			n1, c1 := s.Col(1).Slot(), s.Col(2).Slot()
			// invalidate flushes the rows a transaction committed at SCN at
			// changed: patch-less, or with their after-images and the columns
			// update declares.
			invalidate := func(at scn.SCN, deleted bool, ids ...int64) {
				for _, id := range ids {
					if rid, ok := f.tbl.Index().Get(id); ok {
						var patches []imcs.Patch
						if after, _ := seg.Block(rid.DBA.Block()).LatestImage(rid.Slot, f.c.Txns()); mode != "opaque" {
							patches = []imcs.Patch{{Row: after, Cols: []uint16{1, 2}, Deleted: deleted}}
						}
						f.store.Invalidate(seg.Obj(), rid.DBA.Block(), []uint16{rid.Slot}, at, patches)
					}
				}
			}
			update := func(tx *txn.Txn, id, round int64) {
				if err := tx.UpdateByID(f.tbl, id, []uint16{1, 2}, func(r *rowstore.Row) {
					r.Nums[n1] = (id*7 + round) % 130 // in and out of the units' 0..99
					switch (id + round) % 3 {
					case 0: // key untouched
					case 1:
						r.Strs[c1] = colors[(id+round)%4]
					default:
						r.Strs[c1] = fmt.Sprintf("moved-%d", id%7) // in no dictionary
					}
				}); err != nil {
					t.Fatal(err)
				}
			}
			changed := rand.New(rand.NewSource(int64(pct))).Perm(rows)[:rows*pct/100]
			var snaps []scn.SCN
			// Three rounds over the changed rows, each its own commit: chains three
			// deep, and a snapshot between the rounds that is older than the newest
			// commit of every changed row.
			for round := int64(0); round < 3; round++ {
				tx := f.c.Instance(0).Begin()
				for _, id := range changed {
					update(tx, int64(id), round)
				}
				at, err := tx.Commit()
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range changed {
					invalidate(at, false, int64(id))
				}
				if round == 1 {
					snaps = append(snaps, f.c.Snapshot())
				}
			}
			// Deleted rows; an aborted transaction's versions, some of them on rows
			// the SMU marks invalid anyway; tail rows and blocks past the units.
			tx := f.c.Instance(0).Begin()
			var deleted []int64
			for id := int64(5); id < rows; id += 97 {
				deleted = append(deleted, id)
			}
			for _, id := range deleted {
				if err := tx.DeleteByID(f.tbl, id); err != nil {
					t.Fatal(err)
				}
			}
			at, err := tx.Commit()
			if err != nil {
				t.Fatal(err)
			}
			invalidate(at, true, deleted...)
			tx = f.c.Instance(0).Begin()
			for id := int64(11); id < rows; id += 83 {
				if _, ok := f.tbl.Index().Get(id); ok {
					update(tx, id, 9)
				}
			}
			if err := tx.Abort(); err != nil {
				t.Fatal(err)
			}
			f.insert(t, rows, rows+300)
			// A writer still in flight at every scan: updates of rows nobody else
			// touched and inserts that occupy tail slots.
			open := f.c.Instance(0).Begin()
			for id := int64(17); id < rows; id += 101 {
				if _, ok := f.tbl.Index().Get(id); ok {
					update(open, id, 5)
				}
			}
			for id := int64(rows + 300); id < rows+320; id++ {
				r := rowstore.NewRow(s)
				r.Nums[0], r.Nums[n1], r.Strs[c1] = id, id%100, "in-flight"
				if _, err := open.Insert(f.tbl, r); err != nil {
					t.Fatal(err)
				}
			}
			defer open.Abort()
			snaps = append(snaps, f.c.Snapshot())
			if mode == "dropped" {
				for i, u := range f.store.Units(seg.Obj()) {
					if i%2 == 0 {
						u.ForgetDelta()
					}
				}
			}

			for _, snap := range snaps {
				n := scantest.Diff(t, scantest.Options{
					NewExec: f.exec, Reference: f.execNoIMCS, Store: f.store, View: f.c.Txns(),
					Snap: snap, Parallel: []int{1, 2, 8}, MorselRows: []int{0, 1, 255, 257},
				}, rowPathShapes(f.tbl)...)
				if n != len(rowPathShapes(f.tbl))*12 {
					t.Fatalf("sweep at %d ran %d points", snap, n)
				}
				res, err := f.exec().Run(&scanengine.Query{Table: f.tbl}, snap)
				if err != nil {
					t.Fatal(err)
				}
				newest := snap == snaps[len(snaps)-1] // the older snapshot predates the inserts
				if newest && (res.FromTail == 0 || res.FromRowStore == res.FromInvalid+res.FromTail) {
					t.Fatalf("paths at %d: %+v", snap, scantest.PathsOf(res))
				}
				if pct == 100 && res.FromIMCS != res.FromDelta {
					t.Fatalf("%d rows from the columns alone of a fully invalid store", res.FromIMCS-res.FromDelta)
				}
				// What the deltas serve: nothing when no flush said what changed
				// or every changed row has a newer commit than the snapshot; the
				// changed rows otherwise, as far as the deltas' bound lets them.
				if served := res.FromDelta > 0; served != (mode != "opaque" && newest && pct > 0) {
					t.Fatalf("%s store at %d (newest: %v): %d rows from the deltas", mode, snap, newest, res.FromDelta)
				}
			}
		}
	}
}

// countingView counts transaction-table lookups.
type countingView struct {
	rowstore.TxnView
	lookups atomic.Int64
}

func (v *countingView) Lookup(id scn.TxnID) (rowstore.TxnStatus, scn.SCN) {
	v.lookups.Add(1)
	return v.TxnView.Lookup(id)
}

// TestInvalidScanLookups counts what the commit-SCN hint saves: the first scan
// over freshly updated rows asks the transaction table once per version it
// walks — one per invalid row here, each holding the update's version over a
// version population already resolved — and every scan after it, at the same
// snapshot or a later one, asks nothing.
func TestInvalidScanLookups(t *testing.T) {
	f := newBenchUnit(t, 6, false)
	view := &countingView{TxnView: f.c.Txns()}
	ex := scanengine.NewExecutor(view, f.store)
	snap := f.c.Snapshot()
	q := &scanengine.Query{Table: f.tbl, Parallel: 1}
	res, err := ex.Run(q, snap)
	if err != nil {
		t.Fatal(err)
	}
	invalid := int64(benchUnitRows * 6 / 100)
	if res.FromInvalid != invalid {
		t.Fatalf("%d rows from the invalid path, want %d", res.FromInvalid, invalid)
	}
	if got := view.lookups.Load(); got != invalid {
		t.Fatalf("first scan of %d invalid rows: %d transaction-table lookups, want one per version walked", invalid, got)
	}
	// A row inserted behind the unit's captured slots moves the snapshot on. Its
	// version is the one nobody has read: whichever scan meets it first resolves
	// it — at the old snapshot too, where the commit is too new to be visible —
	// and no scan after that asks anything.
	tx := f.c.Instance(0).Begin()
	if _, err := tx.Insert(f.tbl, workload.FillRow(f.tbl.Schema(), benchUnitRows, rand.New(rand.NewSource(1)))); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i, at := range []scn.SCN{snap, f.c.Snapshot(), snap} {
		view.lookups.Store(0)
		res, err := ex.Run(q, at)
		if err != nil {
			t.Fatal(err)
		}
		if res.FromInvalid != invalid || (res.FromTail == 1) != (at > snap) {
			t.Fatalf("scan at %d: %d invalid and %d tail rows", at, res.FromInvalid, res.FromTail)
		}
		if got, want := view.lookups.Load(), int64(1-min(i, 1)); got != want {
			t.Fatalf("scan %d of the same invalid rows, at %d: %d transaction-table lookups, want %d", i+2, at, got, want)
		}
	}
}

// TestAllocsPerRunInvalidScan guards the bench's query classes over a unit with
// 6 % of its rows invalid: in the steady state the row-store serving path
// allocates nothing per row and nothing per block — the same objects as over a
// unit with 1 %.
func TestAllocsPerRunInvalidScan(t *testing.T) {
	cost := func(pct int) map[string]float64 {
		f := newBenchUnit(t, pct, false)
		ex, snap := f.exec(), f.c.Snapshot()
		out := map[string]float64{}
		for class, q := range benchMix(f) {
			objects, _ := runCost(t, func() {
				if _, err := ex.Run(q, snap); err != nil {
					t.Fatal(err)
				}
			})
			out[class] = objects
		}
		return out
	}
	few, many := cost(1), cost(6)
	for class := range many {
		t.Logf("%s: %.0f allocs at 1 %% invalid, %.0f at 6 %%", class, few[class], many[class])
		if many[class] > few[class]+3 { // one batch of result rows: a number slab, a string slab, the strings' bytes
			t.Errorf("%s: %.0f allocs per run at 6 %% invalid rows, %.0f at 1 %%: the row path allocates per row or per block",
				class, many[class], few[class])
		}
	}
}

// TestAllocsPerRunGroupByInvalid guards the group tables' sizing: GRP over a
// store with 6 % invalid rows — half of them with a key other than the IMCU's,
// so bound for the by-value table, and met before any flush — allocates what
// it does over a clean store, plus a constant: the by-value table is the
// worker's scratch, and a clean store never touches it.
func TestAllocsPerRunGroupByInvalid(t *testing.T) {
	cost := func(pct int) (objects, bytes float64, byValue int) {
		f := newBenchUnit(t, pct, false)
		ex, snap, q := f.exec(), f.c.Snapshot(), benchMix(f)["grp"]
		byValue, err := ex.GroupsByValue(q, snap)
		if err != nil {
			t.Fatal(err)
		}
		objects, bytes = runCost(t, func() {
			if res, err := ex.Run(q, snap); err != nil || res.GroupCount < workload.StrDomain*9/10 {
				t.Fatalf("groups=%v err=%v", res, err)
			}
		})
		return objects, bytes, byValue
	}
	cleanObjs, cleanBytes, cleanByValue := cost(0)
	objs, bytes, byValue := cost(6)
	t.Logf("clean: %.0f allocs, %.0f bytes, %d groups by value; 6 %% invalid: %.0f allocs, %.0f bytes, %d groups by value",
		cleanObjs, cleanBytes, cleanByValue, objs, bytes, byValue)
	if cleanByValue != 0 || byValue == 0 {
		t.Errorf("%d groups of a clean store and %d of one with invalid rows went through the by-value table, want 0 and some",
			cleanByValue, byValue)
	}
	// The constant: the invalid-window morsels of one unit.
	if objs > cleanObjs+6 || bytes > cleanBytes+4096 {
		t.Errorf("GRP over 6 %% invalid rows: %.0f allocs / %.0f bytes, over a clean store %.0f / %.0f: want the same plus a constant",
			objs, bytes, cleanObjs, cleanBytes)
	}
}

// TestDeltaScanTouchesNoBlock: over a unit whose every invalid row the column
// delta explains, no query class latches a block for them or asks the
// transaction table anything — not on the first scan either: the IMCU and the
// delta serve all. (The one block every scan of this unit latches is its last,
// which has room for tail rows.)
func TestDeltaScanTouchesNoBlock(t *testing.T) {
	const tailBlocks = 1
	f := newBenchUnit(t, 6, true)
	view := &countingView{TxnView: f.c.Txns()}
	ex := scanengine.NewExecutor(view, f.store)
	snap := f.c.Snapshot()
	queries := benchMix(f)
	queries["full"] = &scanengine.Query{Table: f.tbl, Parallel: 1}
	for class, q := range queries {
		res, err := ex.Run(q, snap)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowBlocks != tailBlocks || res.FromRowStore != 0 || view.lookups.Load() != 0 {
			t.Errorf("%s: %d blocks latched, %d rows from the row store, %d transaction-table lookups; want none",
				class, res.RowBlocks, res.FromRowStore, view.lookups.Load())
		}
		if invalid := int64(benchUnitRows * 6 / 100); class == "full" && (res.FromDelta != invalid || res.FromIMCS != benchUnitRows) {
			t.Errorf("full scan: %d of %d rows from the delta, %d from the column store in all", res.FromDelta, invalid, res.FromIMCS)
		}
	}
	// The same rows the row store holds, whichever way they are read.
	scantest.Diff(t, scantest.Options{
		NewExec: func() *scanengine.Executor { return scanengine.NewExecutor(f.c.Txns(), f.store) }, Reference: f.execNoIMCS,
		Snap: snap, Parallel: []int{1, 2}, MorselRows: []int{0, 100},
	}, scantest.Case{Name: "q1", Query: func() *scanengine.Query { q := *benchMix(f)["q1"]; q.OrderByRowID = true; return &q }},
		scantest.Case{Name: "q2", Query: func() *scanengine.Query {
			return &scanengine.Query{Table: f.tbl, OrderByRowID: true, Filters: []scanengine.Filter{scanengine.EqStr(f.tbl.Schema().ColIndex("c1"), "val_0042")}}
		}},
		scantest.Case{Name: "agg", Query: func() *scanengine.Query { q := *benchMix(f)["agg"]; return &q }},
		scantest.Case{Name: "grp", Query: func() *scanengine.Query { q := *benchMix(f)["grp"]; return &q }})
}

// TestAllocsPerRunDeltaScan guards the delta-served path as
// TestAllocsPerRunInvalidScan guards the row-store one: over a unit with 6 % of
// its rows explained by the delta the query classes allocate what they do over
// one with 1 % — the view's copy of the delta comes out of pooled plan memory,
// the batch out of the worker's scratch.
func TestAllocsPerRunDeltaScan(t *testing.T) {
	cost := func(pct int) map[string]float64 {
		f := newBenchUnit(t, pct, true)
		ex, snap := f.exec(), f.c.Snapshot()
		out := map[string]float64{}
		for class, q := range benchMix(f) {
			if res, err := ex.Run(q, snap); err != nil || res.RowBlocks > 1 {
				t.Fatalf("%s: err=%v, %d blocks latched", class, err, res.RowBlocks)
			}
			out[class], _ = runCost(t, func() {
				if _, err := ex.Run(q, snap); err != nil {
					t.Fatal(err)
				}
			})
		}
		return out
	}
	few, many := cost(1), cost(6)
	for class := range many {
		t.Logf("%s: %.0f allocs at 1 %% explained, %.0f at 6 %%", class, few[class], many[class])
		if many[class] > few[class]+3 { // one batch of result rows, as on the row path
			t.Errorf("%s: %.0f allocs per run at 6 %% delta-served rows, %.0f at 1 %%", class, many[class], few[class])
		}
	}
}
