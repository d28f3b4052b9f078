package scanengine_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scanengine/scantest"
)

// groupKey canonicalizes a GroupedResult for comparison. Groups arrive in
// deterministic key order, so no re-sorting is needed.
func groupKey(g *scanengine.GroupedResult) string {
	out := ""
	for _, row := range g.Groups {
		for _, k := range row.Keys {
			out += k.String() + ","
		}
		out += "="
		for _, v := range row.Vals {
			out += fmt.Sprintf("%d,", v)
		}
		out += ";"
	}
	return out
}

// refGroups computes the expected grouped aggregate from a plain row scan.
func refGroups(t *testing.T, f *fixture, filters []scanengine.Filter) map[string][3]int64 {
	t.Helper()
	s := f.tbl.Schema()
	res, err := f.execNoIMCS().Run(&scanengine.Query{Table: f.tbl, Filters: filters}, f.c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][3]int64{} // color -> count, sum(n1), max(n1)
	for _, r := range res.Rows {
		k := r.Str(s, 2)
		v := out[k]
		v[0]++
		v[1] += r.Num(s, 1)
		if v[0] == 1 || r.Num(s, 1) > v[2] {
			v[2] = r.Num(s, 1)
		}
		out[k] = v
	}
	return out
}

func TestGroupByVarcharKey(t *testing.T) {
	f := newFixture(t, 500, true)
	snap := f.c.Snapshot()
	q := &scanengine.Query{
		Table: f.tbl,
		Aggs: []scanengine.AggSpec{
			{Kind: scanengine.AggCount},
			{Kind: scanengine.AggSum, Col: 1},
			{Kind: scanengine.AggMax, Col: 1},
		},
		GroupBy: []int{2},
	}
	res, err := f.exec().Run(q, snap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Grouped == nil {
		t.Fatal("no grouped result")
	}
	g := res.Grouped
	if len(g.KeyCols) != 1 || g.KeyCols[0] != "c1" {
		t.Fatalf("key cols: %v", g.KeyCols)
	}
	want := []string{"COUNT(*)", "SUM(n1)", "MAX(n1)"}
	for i, l := range want {
		if g.AggCols[i] != l {
			t.Fatalf("agg cols: %v, want %v", g.AggCols, want)
		}
	}
	ref := refGroups(t, f, nil)
	if len(g.Groups) != len(ref) {
		t.Fatalf("groups = %d, want %d", len(g.Groups), len(ref))
	}
	var total int64
	for _, row := range g.Groups {
		k := row.Keys[0].Str
		exp, ok := ref[k]
		if !ok {
			t.Fatalf("unexpected group %q", k)
		}
		if row.Vals[0] != exp[0] || row.Vals[1] != exp[1] || row.Vals[2] != exp[2] {
			t.Fatalf("group %q = %v, want %v", k, row.Vals, exp)
		}
		total += row.Count
	}
	// Result.Count is the aggregated input cardinality — the profile
	// partition invariant holds for grouped scans too.
	if res.Count != 500 || total != 500 {
		t.Fatalf("input cardinality: Count=%d sum(groups)=%d", res.Count, total)
	}
	if res.GroupCount != int64(len(g.Groups)) {
		t.Fatalf("GroupCount=%d groups=%d", res.GroupCount, len(g.Groups))
	}
	// Groups must be sorted by key.
	for i := 1; i < len(g.Groups); i++ {
		if g.Groups[i-1].Keys[0].Str >= g.Groups[i].Keys[0].Str {
			t.Fatalf("groups not in key order: %q then %q",
				g.Groups[i-1].Keys[0].Str, g.Groups[i].Keys[0].Str)
		}
	}
}

func TestGroupByNumberKeyAndFilter(t *testing.T) {
	f := newFixture(t, 400, true)
	snap := f.c.Snapshot()
	// n1 = id % 100; group by n1 restricted to n1 < 5 → 5 groups of 4 rows.
	res, err := f.exec().Run(&scanengine.Query{
		Table:   f.tbl,
		Filters: []scanengine.Filter{{Col: 1, Op: scanengine.LT, Num: 5}},
		Aggs: []scanengine.AggSpec{
			{Kind: scanengine.AggCount},
			{Kind: scanengine.AggSum, Col: 0},
			{Kind: scanengine.AggMin, Col: 0},
		},
		GroupBy: []int{1},
	}, snap)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Grouped
	if len(g.Groups) != 5 {
		t.Fatalf("groups = %d, want 5", len(g.Groups))
	}
	for i, row := range g.Groups {
		n1 := int64(i)
		if row.Keys[0].Num != n1 {
			t.Fatalf("group %d key = %d", i, row.Keys[0].Num)
		}
		// ids n1, n1+100, n1+200, n1+300.
		wantSum := 4*n1 + 600
		if row.Vals[0] != 4 || row.Vals[1] != wantSum || row.Vals[2] != n1 {
			t.Fatalf("group %d vals = %v, want [4 %d %d]", i, row.Vals, wantSum, n1)
		}
	}
}

// TestGroupByHybridMatchesRowStore runs randomized mutations (updates
// invalidating IMCU rows, inserts growing tails) and checks the hybrid
// grouped aggregate equals the pure row-store one at every snapshot.
func TestGroupByHybridMatchesRowStore(t *testing.T) {
	f := newFixture(t, 400, true)
	s := f.tbl.Schema()
	seg := f.tbl.Segments()[0]
	rng := rand.New(rand.NewSource(11))
	nextID := int64(400)
	q := func() *scanengine.Query {
		return &scanengine.Query{
			Table: f.tbl,
			Aggs: []scanengine.AggSpec{
				{Kind: scanengine.AggCount},
				{Kind: scanengine.AggSum, Col: 1},
			},
			GroupBy: []int{2},
		}
	}
	for round := 0; round < 15; round++ {
		tx := f.c.Instance(0).Begin()
		var touched []int64
		for op := 0; op < 15; op++ {
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
				err := tx.UpdateByID(f.tbl, id, []uint16{1, 2}, func(r *rowstore.Row) {
					r.Nums[s.Col(1).Slot()] = rng.Int63n(100)
					r.Strs[s.Col(2).Slot()] = colors[rng.Intn(len(colors))]
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
		hybrid, err := f.exec().Run(q(), snap)
		if err != nil {
			t.Fatal(err)
		}
		base, err := f.execNoIMCS().Run(q(), snap)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := groupKey(hybrid.Grouped), groupKey(base.Grouped); a != b {
			t.Fatalf("round %d: hybrid groups != rowstore groups\n%s\nvs\n%s", round, a, b)
		}
		if hybrid.FromIMCS == 0 {
			t.Fatal("hybrid grouped scan never used the IMCS")
		}
	}
}

func TestGroupByParallelDeterministic(t *testing.T) {
	f := newFixture(t, 3000, true)
	scantest.Diff(t, scantest.Options{
		NewExec:  f.exec,
		Snap:     f.c.Snapshot(),
		Parallel: []int{1, 2, 4, 8},
	}, scantest.Case{Name: "groupby-two-keys", Query: func() *scanengine.Query {
		return &scanengine.Query{
			Table: f.tbl,
			Aggs: []scanengine.AggSpec{
				{Kind: scanengine.AggCount},
				{Kind: scanengine.AggSum, Col: 0},
				{Kind: scanengine.AggMin, Col: 0},
				{Kind: scanengine.AggMax, Col: 0},
			},
			GroupBy: []int{2, 1},
		}
	}})
}

func TestMultiAggregateSinglePass(t *testing.T) {
	f := newFixture(t, 600, true)
	snap := f.c.Snapshot()
	multi, err := f.exec().Run(&scanengine.Query{
		Table: f.tbl,
		Aggs: []scanengine.AggSpec{
			{Kind: scanengine.AggCount},
			{Kind: scanengine.AggSum, Col: 1},
			{Kind: scanengine.AggMin, Col: 1},
			{Kind: scanengine.AggMax, Col: 1},
		},
	}, snap)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the legacy one-aggregate-per-scan queries.
	legacy := make([]*scanengine.Result, 4)
	for i, kind := range []scanengine.AggKind{scanengine.AggCount, scanengine.AggSum, scanengine.AggMin, scanengine.AggMax} {
		r, err := f.exec().Run(&scanengine.Query{Table: f.tbl, Aggs: []scanengine.AggSpec{{Kind: kind, Col: 1}}}, snap)
		if err != nil {
			t.Fatal(err)
		}
		legacy[i] = r
	}
	if multi.AggVals[0] != legacy[0].Count ||
		multi.AggVals[1] != legacy[1].Sum ||
		multi.AggVals[2] != legacy[2].Min ||
		multi.AggVals[3] != legacy[3].Max {
		t.Fatalf("multi-agg %v vs legacy count=%d sum=%d min=%d max=%d",
			multi.AggVals, legacy[0].Count, legacy[1].Sum, legacy[2].Min, legacy[3].Max)
	}
	// Legacy compatibility fields carry the first spec of each kind.
	if multi.Sum != legacy[1].Sum || multi.Min != legacy[2].Min || multi.Max != legacy[3].Max {
		t.Fatalf("legacy fields: sum=%d min=%d max=%d", multi.Sum, multi.Min, multi.Max)
	}
	// Four aggregates over one column still cost a single kernel fold per
	// batch: the fold count equals the aggregated input rows, not 4×.
	if got := multi.RowsEncoded + multi.RowsDecoded; got != multi.FromIMCS {
		t.Fatalf("agg folds = %d, want %d (one fold per IMCS row)", got, multi.FromIMCS)
	}
}

func TestCountOnlyAggFoldsEncoded(t *testing.T) {
	f := newFixture(t, 500, true)
	snap := f.c.Snapshot()
	res, err := f.exec().Run(&scanengine.Query{Table: f.tbl, Aggs: []scanengine.AggSpec{{Kind: scanengine.AggCount}}}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 500 {
		t.Fatalf("count = %d", res.Count)
	}
	// A COUNT fold never decodes values: every IMCS-served row is an
	// encoded-space fold.
	if res.RowsEncoded != res.FromIMCS || res.RowsDecoded != 0 {
		t.Fatalf("encoded=%d decoded=%d fromIMCS=%d", res.RowsEncoded, res.RowsDecoded, res.FromIMCS)
	}
}

func TestGroupByValidation(t *testing.T) {
	f := newFixture(t, 10, false)
	snap := f.c.Snapshot()
	cases := []struct {
		q    *scanengine.Query
		want string
	}{
		{&scanengine.Query{Table: f.tbl, GroupBy: []int{2}}, "GROUP BY requires at least one aggregate"},
		{&scanengine.Query{Table: f.tbl, GroupBy: []int{9},
			Aggs: []scanengine.AggSpec{{Kind: scanengine.AggCount}}}, "out of range"},
		{&scanengine.Query{Table: f.tbl, GroupBy: []int{0, 1, 2, 0, 1},
			Aggs: []scanengine.AggSpec{{Kind: scanengine.AggCount}}}, "at most"},
		{&scanengine.Query{Table: f.tbl,
			Aggs: []scanengine.AggSpec{{Kind: scanengine.AggSum, Col: 2}}}, "NUMBER column"},
		{&scanengine.Query{Table: f.tbl,
			Aggs: []scanengine.AggSpec{{Kind: scanengine.AggNone}}}, "aggregate kind"},
	}
	for i, c := range cases {
		_, err := f.exec().Run(c.q, snap)
		if err == nil {
			t.Fatalf("case %d: no error", i)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("case %d: error %q missing %q", i, err, c.want)
		}
	}
}
