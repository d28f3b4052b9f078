package scanengine_test

import (
	"fmt"
	"runtime"
	"testing"

	"dbimadg/internal/imcs"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scanengine/scantest"
	"dbimadg/internal/testutil"
)

// Tests of the slab-based group operator: the direct- and map-indexed forms
// of the unit-local table, its survival across the morsels of a unit, and
// row-store rows meeting IMCU rows in the same groups.

var groupAggs = []scanengine.AggSpec{
	{Kind: scanengine.AggCount},
	{Kind: scanengine.AggSum, Col: 0},
	{Kind: scanengine.AggMin, Col: 1},
	{Kind: scanengine.AggMax, Col: 0},
}

// checkGroups runs a grouped query at every parallelism × granule (morsel
// boundaries at 1, just inside, on and far past a 256-row unit) against its
// serial self, and the hybrid result against the pure row-store one. It
// returns the hybrid result.
func checkGroups(t *testing.T, f *fixture, name string, groupBy ...int) *scanengine.Result {
	t.Helper()
	query := func() *scanengine.Query {
		return &scanengine.Query{Table: f.tbl, Aggs: groupAggs, GroupBy: groupBy}
	}
	snap := f.c.Snapshot()
	scantest.Diff(t, scantest.Options{
		NewExec:    f.exec,
		Snap:       snap,
		Parallel:   []int{1, 2, 8},
		MorselRows: []int{1, 255, 256, 4096},
	}, scantest.Case{Name: name, Query: query})
	hybrid, err := f.exec().Run(query(), snap)
	if err != nil {
		t.Fatal(err)
	}
	base, err := f.execNoIMCS().Run(query(), snap)
	if err != nil {
		t.Fatal(err)
	}
	s := f.tbl.Schema()
	if a, b := scantest.Canonical(hybrid, s), scantest.Canonical(base, s); a != b {
		t.Fatalf("%s: hybrid != row store\n%s\nvs\n%s", name, a, b)
	}
	return hybrid
}

func TestGroupSlabCardinalities(t *testing.T) {
	cases := []struct {
		name    string
		rows    int
		blocks  int // per IMCU, 32 rows each
		fill    func(i int64) (int64, string)
		groupBy []int
		groups  int64
	}{
		{"varchar-one-group", 1000, 8,
			func(i int64) (int64, string) { return i % 7, "only" }, []int{2}, 1},
		// 2 048-row units whose dictionaries hold all 1 000 values: direct.
		{"varchar-1000-groups", 5000, 64,
			func(i int64) (int64, string) { return i % 7, fmt.Sprintf("v%04d", i*7%1000) }, []int{2}, 1000},
		// 1 000 codes × a 2 048-wide id range is past the direct bound: map.
		{"varchar-x-id-map-indexed", 5000, 64,
			func(i int64) (int64, string) { return i % 7, fmt.Sprintf("v%04d", i*7%1000) }, []int{2, 0}, 5000},
		// 4 codes × 100 values: a direct composite.
		{"varchar-x-number", 3000, 8,
			func(i int64) (int64, string) { return i % 100, colors[i%4] }, []int{2, 1}, 100},
		// Bit-packed NUMBER key whose code origin is negative.
		{"number-negative-min", 3000, 8,
			func(i int64) (int64, string) { return i*13%100 - 50, "x" }, []int{1}, 100},
		// Run-encoded NUMBER key with a negative origin: the run-level path.
		{"number-negative-runs", 3000, 8,
			func(i int64) (int64, string) { return i/500 - 3, "x" }, []int{1}, 6},
		// NUMBER key too wide for direct indexing: map-indexed, both paths.
		{"number-wide-range", 3000, 8,
			func(i int64) (int64, string) { return (i%50 - 25) * 1e12, "x" }, []int{1}, 50},
		{"number-wide-runs", 3000, 8,
			func(i int64) (int64, string) { return (i/500 - 3) * 1e12, "x" }, []int{1}, 6},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newFixtureFill(t, c.rows, c.blocks, c.fill)
			res := checkGroups(t, f, c.name, c.groupBy...)
			if res.GroupCount != c.groups || res.Count != int64(c.rows) || res.FromIMCS != int64(c.rows) {
				t.Fatalf("groups=%d rows=%d fromIMCS=%d, want %d groups over %d IMCS rows",
					res.GroupCount, res.Count, res.FromIMCS, c.groups, c.rows)
			}
		})
	}
}

// TestGroupSlabHybridPaths folds invalidated, tail and plain row-store rows
// into groups the IMCU path also feeds, and into groups only they have —
// whichever path a worker meets first.
func TestGroupSlabHybridPaths(t *testing.T) {
	f := newFixture(t, 3000, true)
	f.eng.Stop() // what changes below stays unpopulated
	s := f.tbl.Schema()
	seg := f.tbl.Segments()[0]
	tx := f.c.Instance(0).Begin()
	var touched []int64
	for id := int64(0); id < 3000; id += 37 {
		// Every other update moves the row to a group no IMCU holds.
		c1 := colors[(id+1)%4]
		if id%2 == 0 {
			c1 = fmt.Sprintf("updated-%d", id%5)
		}
		if err := tx.UpdateByID(f.tbl, id, []uint16{1, 2}, func(r *rowstore.Row) {
			r.Nums[s.Col(1).Slot()] = 100 + id%3
			r.Strs[s.Col(2).Slot()] = c1
		}); err != nil {
			t.Fatal(err)
		}
		touched = append(touched, id)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, id := range touched {
		rid, _ := f.tbl.Index().Get(id)
		f.store.InvalidateRows(seg.Obj(), rid.DBA.Block(), []uint16{rid.Slot})
	}
	// The last unit's tail, then blocks no unit covers: old groups and a new
	// one.
	f.fill = func(i int64) (int64, string) {
		if i%3 == 0 {
			return i % 100, "tail-only"
		}
		return i % 100, colors[i%4]
	}
	f.insert(t, 3000, 3300)

	for _, groupBy := range [][]int{{2}, {2, 1}, {1}} {
		res := checkGroups(t, f, fmt.Sprint("hybrid-", groupBy), groupBy...)
		if res.FromIMCS == 0 || res.FromInvalid == 0 || res.FromTail == 0 ||
			res.FromRowStore == res.FromInvalid+res.FromTail {
			t.Fatalf("paths not all exercised: imcs=%d invalid=%d tail=%d rowstore=%d",
				res.FromIMCS, res.FromInvalid, res.FromTail, res.FromRowStore)
		}
	}
}

// TestGroupSlabEmptyDictionaryUnit scans a unit that captured no row at all —
// its dictionaries are empty and its key ranges degenerate — so every group
// arrives from the tail path.
func TestGroupSlabEmptyDictionaryUnit(t *testing.T) {
	f := newFixture(t, 200, false)
	seg := f.tbl.Segments()[0]
	end := rowstore.BlockNo(seg.BlockCount())
	unit, err := f.store.CreateUnit(seg.Obj(), seg.Tenant(), 0, end)
	if err != nil {
		t.Fatal(err)
	}
	unit.Attach(imcs.NewBuilder(seg.Obj(), seg.Tenant(), f.tbl.Schema(), 0, 0, end).Build())
	res := checkGroups(t, f, "empty-unit", 2, 1)
	if res.FromTail != 200 || res.UnitsScanned != 0 || res.GroupCount != 100 {
		t.Fatalf("tail=%d scanned=%d groups=%d, want all 200 rows from the tail of an unscanned unit",
			res.FromTail, res.UnitsScanned, res.GroupCount)
	}
}

// runCost returns the heap objects and bytes one call of fn allocates in the
// steady state (after warm-up calls that fill the scratch pool).
func runCost(t *testing.T, fn func()) (objects, bytes float64) {
	t.Helper()
	if testutil.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const runs = 20
	objects = testing.AllocsPerRun(runs, fn)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return objects, float64(m1.TotalAlloc-m0.TotalAlloc) / runs
}

// TestAllocsPerRunGroupBy guards the bench mix's GRP shape (one dictionary
// key, 1 000 groups): what a grouped scan allocates depends on its plan and
// its result, not on how many rows it folds.
func TestAllocsPerRunGroupBy(t *testing.T) {
	cost := func(rows, parallel int) float64 {
		f := newFixtureFill(t, rows, 64, func(i int64) (int64, string) {
			return i * 31 % 1000, fmt.Sprintf("v%04d", i*7%1000)
		})
		ex, snap := f.exec(), f.c.Snapshot()
		q := &scanengine.Query{Table: f.tbl, Parallel: parallel, GroupBy: []int{2},
			Aggs: []scanengine.AggSpec{{Kind: scanengine.AggCount}, {Kind: scanengine.AggSum, Col: 1}}}
		objects, _ := runCost(t, func() {
			res, err := ex.Run(q, snap)
			if err != nil || res.GroupCount != 1000 {
				t.Fatalf("groups=%v err=%v", res, err)
			}
		})
		// Over a clean store every key arrives in a unit's sorted dictionary:
		// the merge places it, and nothing is ever hashed.
		if byValue, err := ex.GroupsByValue(q, snap); err != nil || byValue != 0 {
			t.Errorf("%d rows, parallel %d: %d groups inserted into the by-value table (err %v), want 0", rows, parallel, byValue, err)
		}
		return objects
	}
	for _, parallel := range []int{1, 2} {
		if parallel > runtime.GOMAXPROCS(0) {
			break // the scratch pool retains GOMAXPROCS scratches
		}
		// 2 and 16 units of 2 048 rows. Planning allocates a few objects per
		// unit and morsel; the scan itself must add none per row.
		small, large := cost(4096, parallel), cost(32768, parallel)
		t.Logf("parallel=%d: %.0f allocs at 4 096 rows, %.0f at 32 768", parallel, small, large)
		// A second worker brings its own operator, group table and goroutine,
		// and merging it grows worker 0's table past its own units' groups.
		if limit := float64(64 * parallel); small > limit {
			t.Errorf("parallel=%d: %.0f allocs for a two-unit grouped scan, want <= %.0f", parallel, small, limit)
		}
		// Growth per unit is held to planning's only for one worker: with two,
		// how the units split between them, and so how often worker 0's table
		// grows at the merge, is the scheduler's choice (4.1-4.4 on a loaded box).
		if perUnit := (large - small) / 14; parallel == 1 && perUnit > 4 {
			t.Errorf("allocations grow by %.1f per added unit (%.0f -> %.0f), want planning's <= 4",
				perUnit, small, large)
		}
	}
}

// TestAllocsPerRunSparseKey guards a NUMBER key with ten values spread over a
// 54 001-wide range: the global table is sized by the groups a unit held,
// never by the range its direct-indexed local table spans.
func TestAllocsPerRunSparseKey(t *testing.T) {
	f := newFixtureFill(t, 8192, 64, func(i int64) (int64, string) { return i * 7 % 10 * 6000, "x" })
	ex, snap := f.exec(), f.c.Snapshot()
	q := &scanengine.Query{Table: f.tbl, Parallel: 1, GroupBy: []int{1},
		Aggs: []scanengine.AggSpec{{Kind: scanengine.AggCount}, {Kind: scanengine.AggSum, Col: 0}}}
	objects, bytes := runCost(t, func() {
		if res, err := ex.Run(q, snap); err != nil || res.GroupCount != 10 {
			t.Fatalf("groups=%v err=%v", res, err)
		}
	})
	t.Logf("%.0f allocs, %.0f bytes per run", objects, bytes)
	if bytes >= 8192 {
		t.Errorf("%.0f bytes per run for ten groups, want < 8192", bytes)
	}
}

// TestAllocsPerRunScratchReuse guards Q1 and AGG: after warm-up no worker
// allocates its scratch again — its two 8 KB decode windows alone would
// exceed the byte bound.
func TestAllocsPerRunScratchReuse(t *testing.T) {
	f := newFixtureFill(t, 8192, 64, func(i int64) (int64, string) {
		return i * 31 % 1000, fmt.Sprintf("v%04d", i*7%1000)
	})
	snap := f.c.Snapshot()
	for _, parallel := range []int{1, 2} {
		if parallel > runtime.GOMAXPROCS(0) {
			break // the scratch pool retains GOMAXPROCS scratches
		}
		ex := f.exec()
		q1 := &scanengine.Query{Table: f.tbl, Parallel: parallel,
			Filters: []scanengine.Filter{scanengine.EqNum(1, 42)}}
		agg := &scanengine.Query{Table: f.tbl, Parallel: parallel,
			Filters: []scanengine.Filter{{Col: 1, Op: scanengine.LT, Num: 500}},
			Aggs: []scanengine.AggSpec{{Kind: scanengine.AggCount}, {Kind: scanengine.AggSum, Col: 0},
				{Kind: scanengine.AggMin, Col: 1}, {Kind: scanengine.AggMax, Col: 1}}}
		for name, q := range map[string]*scanengine.Query{"q1": q1, "agg": agg} {
			objects, bytes := runCost(t, func() {
				if _, err := ex.Run(q, snap); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s parallel=%d: %.0f allocs, %.0f bytes per run", name, parallel, objects, bytes)
			if bytes >= 16384 {
				t.Errorf("%s parallel=%d: %.0f bytes per run, want < 16384 (no scratch allocated)",
					name, parallel, bytes)
			}
		}
	}
}
