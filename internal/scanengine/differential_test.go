package scanengine_test

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scanengine/scantest"
)

// shapes returns the full query-shape matrix the differential suite runs:
// every executor code path that parallel merge could corrupt — filtered
// materialization, deterministic ordering, single and multi aggregates,
// grouped aggregation over one and two keys, projection.
func shapes(tbl *rowstore.Table) []scantest.Case {
	return []scantest.Case{
		{Name: "full-ordered", Query: func() *scanengine.Query {
			return &scanengine.Query{Table: tbl, OrderByRowID: true}
		}},
		{Name: "filter", Query: func() *scanengine.Query {
			return &scanengine.Query{Table: tbl,
				Filters: []scanengine.Filter{scanengine.EqStr(2, "blue")}, OrderByRowID: true}
		}},
		{Name: "filter-range-project", Query: func() *scanengine.Query {
			return &scanengine.Query{Table: tbl,
				Filters:      []scanengine.Filter{{Col: 1, Op: scanengine.GE, Num: 40}},
				Project:      []int{0, 2},
				OrderByRowID: true}
		}},
		{Name: "multi-agg", Query: func() *scanengine.Query {
			return &scanengine.Query{Table: tbl, Aggs: []scanengine.AggSpec{
				{Kind: scanengine.AggCount},
				{Kind: scanengine.AggSum, Col: 1},
				{Kind: scanengine.AggMin, Col: 0},
				{Kind: scanengine.AggMax, Col: 0},
			}}
		}},
		{Name: "filtered-agg", Query: func() *scanengine.Query {
			return &scanengine.Query{Table: tbl,
				Filters: []scanengine.Filter{scanengine.EqStr(2, "red")},
				Aggs:    []scanengine.AggSpec{{Kind: scanengine.AggSum, Col: 1}}}
		}},
		{Name: "groupby", Query: func() *scanengine.Query {
			return &scanengine.Query{Table: tbl,
				Aggs: []scanengine.AggSpec{
					{Kind: scanengine.AggCount},
					{Kind: scanengine.AggSum, Col: 0},
					{Kind: scanengine.AggMin, Col: 0},
					{Kind: scanengine.AggMax, Col: 0},
				},
				GroupBy: []int{2, 1}}
		}},
	}
}

// TestDifferentialSuite is the core serial-vs-parallel contract: every query
// shape, at parallel 1/2/8/GOMAXPROCS, returns a byte-identical result.
func TestDifferentialSuite(t *testing.T) {
	f := newFixture(t, 2000, true)
	n := scantest.Diff(t, scantest.Options{NewExec: f.exec, Snap: f.c.Snapshot()}, shapes(f.tbl)...)
	if n < len(shapes(f.tbl))*4 {
		t.Fatalf("differential sweep ran only %d points", n)
	}
}

// TestDifferentialRowStoreFallback repeats the suite with every populated
// unit forced onto the snapshot-fallback path: rows are mutated and
// repopulated at a higher SCN, then the sweep queries at the pre-mutation
// snapshot, so parallel workers must agree while serving everything from the
// row store.
func TestDifferentialRowStoreFallback(t *testing.T) {
	f := newFixture(t, 1200, true)
	old := f.c.Snapshot()
	s := f.tbl.Schema()
	seg := f.tbl.Segments()[0]
	tx := f.c.Instance(0).Begin()
	for id := int64(0); id < 1200; id += 2 {
		if err := tx.UpdateByID(f.tbl, id, []uint16{1}, func(r *rowstore.Row) {
			r.Nums[s.Col(1).Slot()] += 1000
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 1200; id += 2 {
		rid, _ := f.tbl.Index().Get(id)
		f.store.InvalidateRows(seg.Obj(), rid.DBA.Block(), []uint16{rid.Slot})
	}
	// Half the rows are invalid in every unit — above the repop threshold, so
	// the engine rebuilds each IMCU at a snapshot past `old`.
	f.eng.Scan()
	if !f.eng.WaitIdle(5 * time.Second) {
		t.Fatal("repopulation did not settle")
	}
	_, prof, err := f.exec().RunProfiled(&scanengine.Query{Table: f.tbl}, old)
	if err != nil {
		t.Fatal(err)
	}
	if prof.UnitsFallback == 0 {
		t.Fatalf("expected snapshot fallbacks at pre-repop snapshot; profile: %+v", prof)
	}
	scantest.Diff(t, scantest.Options{NewExec: f.exec, Snap: old}, shapes(f.tbl)...)
}

// TestDifferentialMidScanInvalidations runs the sweep while a background
// goroutine keeps invalidating random rows: Consistent Read at the fixed
// snapshot must hide the churn, so every point still matches the serial
// baseline taken before the churn began.
func TestDifferentialMidScanInvalidations(t *testing.T) {
	f := newFixture(t, 1500, true)
	snap := f.c.Snapshot()
	seg := f.tbl.Segments()[0]
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := rng.Int63n(1500)
			rid, ok := f.tbl.Index().Get(id)
			if ok {
				f.store.InvalidateRows(seg.Obj(), rid.DBA.Block(), []uint16{rid.Slot})
			}
		}
	}()
	scantest.Diff(t, scantest.Options{
		NewExec:    f.exec,
		Snap:       snap,
		Parallel:   []int{1, 2, 8, runtime.GOMAXPROCS(0)},
		MorselRows: []int{0, 64},
	}, shapes(f.tbl)...)
	close(stop)
	wg.Wait()
}

// TestDifferentialAfterMerges runs the sweep over units that repopulation has
// merged twice — updates to values old and new to the dictionaries, deletes,
// and inserts past the captured rows in between — and checks every shape
// against the row store as well: a merged image must serve what a fresh one
// would.
func TestDifferentialAfterMerges(t *testing.T) {
	f := newFixture(t, 1200, true)
	s := f.tbl.Schema()
	seg := f.tbl.Segments()[0]
	units := int64(len(f.store.Units(seg.Obj())))
	for round := int64(1); round <= 2; round++ {
		tx := f.c.Instance(0).Begin()
		var touched []int64
		for id := round; id < 1200; id += 5 {
			err := tx.UpdateByID(f.tbl, id, []uint16{1, 2}, func(r *rowstore.Row) {
				r.Nums[s.Col(1).Slot()] += 7 * round
				r.Strs[s.Col(2).Slot()] = []string{"blue", "teal", "zinc"}[int64(id)%3]
			})
			if errors.Is(err, rowstore.ErrRowDeleted) {
				continue // in the round before
			}
			if err != nil {
				t.Fatal(err)
			}
			touched = append(touched, id)
		}
		for id := 100 * round; id < 1200; id += 211 {
			rid, _ := f.tbl.Index().Get(id)
			if err := tx.DeleteByID(f.tbl, id); err != nil {
				t.Fatal(err)
			}
			f.store.InvalidateRows(seg.Obj(), rid.DBA.Block(), []uint16{rid.Slot})
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, id := range touched {
			rid, _ := f.tbl.Index().Get(id)
			f.store.InvalidateRows(seg.Obj(), rid.DBA.Block(), []uint16{rid.Slot})
		}
		f.insert(t, 1200+10*(round-1), 1200+10*round) // tail rows of the last unit
		f.eng.Scan()
		if !f.eng.WaitIdle(5 * time.Second) {
			t.Fatal("repopulation did not settle")
		}
		if got := f.eng.Stats().UnitsMerged; got != units*round {
			t.Fatalf("round %d: %d units merged so far, want %d", round, got, units*round)
		}
	}
	snap := f.c.Snapshot()
	scantest.Diff(t, scantest.Options{
		NewExec:    f.exec,
		Snap:       snap,
		MorselRows: []int{0, 1, 255, 257},
	}, shapes(f.tbl)...)
	for _, c := range shapes(f.tbl) {
		hybrid, err := f.exec().Run(c.Query(), snap)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := f.execNoIMCS().Run(c.Query(), snap)
		if err != nil {
			t.Fatal(err)
		}
		if hybrid.FromIMCS == 0 {
			t.Fatalf("%s: merged units served nothing", c.Name)
		}
		if got, want := scantest.Canonical(hybrid, s), scantest.Canonical(rows, s); got != want {
			t.Fatalf("%s over twice-merged units differs from the row store:\n%s\nwant:\n%s", c.Name, got, want)
		}
	}
}
