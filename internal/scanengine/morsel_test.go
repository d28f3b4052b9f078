package scanengine_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scanengine/scantest"
)

// fixtureUnitRows is the IMCU row capacity under newFixture's geometry:
// 32 rows/block × 8 blocks/IMCU.
const fixtureUnitRows = 256

// boundaryGranules sweeps the awkward morsel sizes: a single row, one row
// either side of the unit capacity, exactly the unit, and spans larger than a
// unit — every off-by-one the window-clipping scan code could get wrong.
func boundaryGranules() []int {
	return []int{1, fixtureUnitRows - 1, fixtureUnitRows, fixtureUnitRows + 1, 3 * fixtureUnitRows, 10_000}
}

// TestMorselBoundarySweep is the property-style boundary test: at every
// granule and parallelism, results stay byte-identical, the profile's four
// serving paths partition ResultRows exactly, and the prune verdicts are
// granule-independent (pruning is per unit, decided at plan time, so slicing
// a unit into more morsels must never change how often it is pruned).
func TestMorselBoundarySweep(t *testing.T) {
	f := newFixture(t, 2000, true)

	// Dirty some rows so the invalid and tail paths carry rows too.
	s := f.tbl.Schema()
	seg := f.tbl.Segments()[0]
	tx := f.c.Instance(0).Begin()
	for id := int64(0); id < 2000; id += 97 {
		if err := tx.UpdateByID(f.tbl, id, []uint16{1}, func(r *rowstore.Row) {
			r.Nums[s.Col(1).Slot()] += 500
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 2000; id += 97 {
		rid, _ := f.tbl.Index().Get(id)
		f.store.InvalidateRows(seg.Obj(), rid.DBA.Block(), []uint16{rid.Slot})
	}
	f.insert(t, 2000, 2100) // tail rows past the populated ranges
	snap := f.c.Snapshot()

	// A selective point filter on the identity column: min-max storage
	// indexes prune all but one unit, so the sweep also covers pruned units'
	// invalid/tail morsels.
	pruney := func() *scanengine.Query {
		return &scanengine.Query{Table: f.tbl,
			Filters: []scanengine.Filter{scanengine.EqNum(0, 1234)}, OrderByRowID: true}
	}
	scantest.Diff(t, scantest.Options{
		NewExec:    f.exec,
		Snap:       snap,
		MorselRows: boundaryGranules(),
	}, append(shapes(f.tbl), scantest.Case{Name: "point-prune", Query: pruney})...)

	// Profile invariants per granule point.
	var pruneBase int64 = -1
	for _, g := range boundaryGranules() {
		for _, par := range []int{1, 4} {
			ex := f.exec()
			ex.MorselRows = g
			res, prof, err := ex.RunProfiled(&scanengine.Query{Table: f.tbl, Parallel: par}, snap)
			if err != nil {
				t.Fatal(err)
			}
			sum := prof.RowsIMCS + prof.RowsInvalid + prof.RowsTail + prof.RowsRowStore
			if prof.ResultRows != sum {
				t.Fatalf("morsel=%d parallel=%d: paths do not partition the result: rows=%d imcs=%d invalid=%d tail=%d rowstore=%d",
					g, par, prof.ResultRows, prof.RowsIMCS, prof.RowsInvalid, prof.RowsTail, prof.RowsRowStore)
			}
			if prof.ResultRows != int64(len(res.Rows)) {
				t.Fatalf("morsel=%d parallel=%d: profile rows %d != result rows %d", g, par, prof.ResultRows, len(res.Rows))
			}
			_, pp, err := ex.RunProfiled(pruney(), snap)
			if err != nil {
				t.Fatal(err)
			}
			if pruneBase < 0 {
				pruneBase = pp.UnitsPruned
				if pruneBase == 0 {
					t.Fatalf("point filter pruned no units; profile: %+v", pp)
				}
			} else if pp.UnitsPruned != pruneBase {
				t.Fatalf("morsel=%d parallel=%d: prune count %d != baseline %d — unit verdicts must be granule-independent",
					g, par, pp.UnitsPruned, pruneBase)
			}
		}
	}
}

// TestMorselCountsReported asserts the executor reports its scheduling work:
// a single-row granule over a 2000-row table must split into at least one
// morsel per populated unit, and Explain's predicted morsel count and
// parallelism must match what a run at the same snapshot executes — for a
// query that sets its parallelism and for one that leaves it to the
// executor's default.
func TestMorselCountsReported(t *testing.T) {
	f := newFixture(t, 2000, true)
	snap := f.c.Snapshot()
	for _, c := range []struct {
		name                 string
		parallel, defaultPar int
	}{{"query-parallel", 4, 0}, {"executor-default", 0, 4}} {
		ex := f.exec()
		ex.MorselRows, ex.DefaultParallel = 64, c.defaultPar
		q := &scanengine.Query{Table: f.tbl, Parallel: c.parallel}
		res, prof, err := ex.RunProfiled(q, snap)
		if err != nil {
			t.Fatal(err)
		}
		if res.Morsels < 2000/64 {
			t.Fatalf("%s: Morsels = %d, want >= %d", c.name, res.Morsels, 2000/64)
		}
		if prof.Morsels != res.Morsels {
			t.Fatalf("%s: profile morsels %d != result morsels %d", c.name, prof.Morsels, res.Morsels)
		}
		plan, err := ex.Explain(q, snap)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Morsels != res.Morsels {
			t.Fatalf("%s: Explain predicted %d morsels, run executed %d", c.name, plan.Morsels, res.Morsels)
		}
		if plan.Parallel != prof.Parallel || prof.Parallel != 4 {
			t.Fatalf("%s: Explain predicted parallel=%d, run used %d, want 4", c.name, plan.Parallel, prof.Parallel)
		}
		if plan.MorselRows != 64 || prof.MorselRows != 64 {
			t.Fatalf("%s: granule not surfaced: explain=%d run=%d", c.name, plan.MorselRows, prof.MorselRows)
		}
	}
}

// TestWorkerClampUsesAllWorkers guards the Parallel-vs-task clamp fix: with
// fewer units than requested workers, the morsel split must still let every
// worker run (workers clamp against morsels, not against units).
func TestWorkerClampUsesAllWorkers(t *testing.T) {
	f := newFixture(t, 512, true) // 2 units at 256 rows/unit
	snap := f.c.Snapshot()
	ex := f.exec()
	ex.MorselRows = 32 // 16 scan morsels across 2 units
	res, prof, err := ex.RunProfiled(&scanengine.Query{Table: f.tbl, Parallel: 8}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 512 {
		t.Fatalf("rows = %d, want 512", len(res.Rows))
	}
	if prof.Parallel != 8 {
		t.Fatalf("effective parallelism %d, want 8 (must not clamp to the 2 units)", prof.Parallel)
	}
	if len(prof.Workers) != 8 {
		t.Fatalf("worker profiles = %d, want 8", len(prof.Workers))
	}
}

// TestStealPathStress hammers the steal path: tiny morsels, all-core worker
// counts, and concurrent invalidation + repopulation while scans run. Run
// under -race this is the steal-path data-race probe in the verify matrix.
func TestStealPathStress(t *testing.T) {
	f := newFixture(t, 4000, true)
	seg := f.tbl.Segments()[0]
	snap := f.c.Snapshot()
	want := -1

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		rng := rand.New(rand.NewSource(5))
		for {
			select {
			case <-stop:
				return
			default:
			}
			id := rng.Int63n(4000)
			if rid, ok := f.tbl.Index().Get(id); ok {
				f.store.InvalidateRows(seg.Obj(), rid.DBA.Block(), []uint16{rid.Slot})
			}
			if rng.Intn(64) == 0 {
				f.eng.Scan() // trigger repopulation passes mid-scan
			}
		}
	}()

	var scans sync.WaitGroup
	workers := max(4, runtime.GOMAXPROCS(0))
	var stolen int64
	var mu sync.Mutex
	for w := 0; w < workers; w++ {
		scans.Add(1)
		go func(w int) {
			defer scans.Done()
			ex := f.exec()
			ex.MorselRows = 16 // 250 morsels: plenty to steal
			for i := 0; i < 30; i++ {
				res, err := ex.Run(&scanengine.Query{
					Table:    f.tbl,
					Aggs:     []scanengine.AggSpec{{Kind: scanengine.AggCount}},
					Parallel: workers,
				}, snap)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if want < 0 {
					want = int(res.Count)
				} else if int(res.Count) != want {
					t.Errorf("scan %d/%d: count %d != first count %d", w, i, res.Count, want)
				}
				stolen += res.Steals
				mu.Unlock()
			}
		}(w)
	}
	scans.Wait()
	close(stop)
	churn.Wait()
	if t.Failed() {
		return
	}
	// On a multi-core host some of the 250-morsel scans must have stolen;
	// with GOMAXPROCS=1 workers run one at a time and owners drain their own
	// deques, so zero steals is legitimate there.
	if runtime.GOMAXPROCS(0) > 1 && stolen == 0 {
		t.Error("no morsel was ever stolen across the stress run")
	}
	if !f.eng.WaitIdle(10 * time.Second) {
		t.Fatal("population did not settle after stress")
	}
}
