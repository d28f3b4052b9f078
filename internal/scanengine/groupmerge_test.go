package scanengine_test

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dbimadg/internal/imcs"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
)

// renderGroups prints a grouped result exactly as it lists its groups.
func renderGroups(g *scanengine.GroupedResult) string {
	var b strings.Builder
	for _, row := range g.Groups {
		for _, k := range row.Keys {
			fmt.Fprintf(&b, "%q/%d/%v ", k.Str, k.Num, k.IsStr)
		}
		fmt.Fprintf(&b, "-> %v x%d\n", row.Vals, row.Count)
	}
	return b.String()
}

// sortedReference is the GROUP BY the merge replaced, kept here as the
// reference: every row visible at snap read from the row store, hashed into
// groups by the rendering of its key, the groups sorted by key at the end.
// Aggregates are groupAggs.
func sortedReference(t *testing.T, f *fixture, groupBy []int) string {
	t.Helper()
	s := f.tbl.Schema()
	all, err := f.execNoIMCS().Run(&scanengine.Query{Table: f.tbl}, f.c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	type group struct {
		keys                []scanengine.GroupValue
		count, sum, mn, max int64
	}
	byKey := map[string]*group{}
	for _, r := range all.Rows {
		var keys []scanengine.GroupValue
		for _, ci := range groupBy {
			if s.Col(ci).Kind == rowstore.KindVarchar {
				keys = append(keys, scanengine.GroupValue{Str: r.Str(s, ci), IsStr: true})
			} else {
				keys = append(keys, scanengine.GroupValue{Num: r.Num(s, ci)})
			}
		}
		id, n1 := r.Num(s, 0), r.Num(s, 1)
		g := byKey[fmt.Sprint(keys)]
		if g == nil {
			g = &group{keys: keys, sum: 0, mn: n1, max: id}
			byKey[fmt.Sprint(keys)] = g
		}
		g.count++
		g.sum += id
		g.mn, g.max = min(g.mn, n1), max(g.max, id)
	}
	groups := make([]*group, 0, len(byKey))
	for _, g := range byKey {
		groups = append(groups, g)
	}
	slices.SortFunc(groups, func(a, b *group) int {
		for j := range a.keys {
			if c := cmp.Or(strings.Compare(a.keys[j].Str, b.keys[j].Str), cmp.Compare(a.keys[j].Num, b.keys[j].Num)); c != 0 {
				return c
			}
		}
		return 0
	})
	ref := &scanengine.GroupedResult{}
	for _, g := range groups {
		ref.Groups = append(ref.Groups, scanengine.GroupRow{Keys: g.keys, Vals: []int64{g.count, g.sum, g.mn, g.max}, Count: g.count})
	}
	return renderGroups(ref)
}

// TestGroupMergeEqualsSort runs grouped scans whose units' key sets relate to
// each other in every way the merge distinguishes, with keys that reach the
// operator by merge and by value, at Parallel 1, 2 and 4 and with morsels
// small enough to split a unit across workers, and wants each result
// byte-identical to the hash-then-sort reference.
func TestGroupMergeEqualsSort(t *testing.T) {
	const unitRows = 8 * 32
	dicts := map[string]func(i int64) (int64, string){
		// Every unit holds the same 64 values: every flush after a worker's
		// first folds in place.
		"identical": func(i int64) (int64, string) { return i % 9, fmt.Sprintf("v%03d", i%64) },
		// A unit shares half its values with the one before it.
		"overlapping": func(i int64) (int64, string) { return i%9 - 4, fmt.Sprintf("v%03d", i/unitRows*20+i%40) },
		// No two units share a value: every flush only inserts.
		"disjoint": func(i int64) (int64, string) { return i / unitRows * 100, fmt.Sprintf("u%d-%02d", i/unitRows, i%16) },
		// Keys whose range per unit is past maxDirectSlots: every row by value.
		"wide": func(i int64) (int64, string) { return i * 1_000_003 % 7_000_000_000, fmt.Sprintf("v%03d", i%64) },
	}
	for name, fill := range dicts {
		t.Run(name, func(t *testing.T) {
			f := newFixtureFill(t, 5*unitRows-40, 8, fill)
			f.eng.Stop() // what changes below stays unpopulated
			s := f.tbl.Schema()
			seg := f.tbl.Segments()[0]
			// Invalid rows: keys unchanged, changed to a value the unit holds,
			// and to one nothing else holds.
			tx := f.c.Instance(0).Begin()
			var touched []int64
			for id := int64(3); id < 5*unitRows-40; id += 29 {
				n1, c1 := fill(id)
				switch id % 3 {
				case 1:
					n1, c1 = fill(id + 1)
				case 2:
					n1, c1 = n1+1_000_000_007, "zz-new-"+c1
				}
				if err := tx.UpdateByID(f.tbl, id, []uint16{1, 2}, func(r *rowstore.Row) {
					r.Nums[s.Col(1).Slot()], r.Strs[s.Col(2).Slot()] = n1, c1
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
			// The last unit's tail, a unit that captured no row at all (its
			// dictionaries empty: every row of its blocks is a tail row), and
			// blocks no unit covers.
			covered := rowstore.BlockNo(seg.BlockCount()+7) / 8 * 8 // units are cut eight blocks apart
			f.insert(t, 5*unitRows-40, 6*unitRows+100)
			unit, err := f.store.CreateUnit(seg.Obj(), seg.Tenant(), covered, covered+4)
			if err != nil {
				t.Fatal(err)
			}
			unit.Attach(imcs.NewBuilder(seg.Obj(), seg.Tenant(), s, 0, covered, covered+4).Build())

			for _, groupBy := range [][]int{{2}, {1}, {2, 1}, {1, 2}} {
				want := sortedReference(t, f, groupBy)
				for _, parallel := range []int{1, 2, 4} {
					for _, morselRows := range []int{0, 100} {
						ex := f.exec()
						ex.MorselRows = morselRows
						q := &scanengine.Query{Table: f.tbl, Aggs: groupAggs, GroupBy: groupBy, Parallel: parallel}
						res, err := ex.Run(q, f.c.Snapshot())
						if err != nil {
							t.Fatal(err)
						}
						if got := renderGroups(res.Grouped); got != want {
							t.Fatalf("group by %v parallel %d morsels of %d:\n%s\nwant\n%s", groupBy, parallel, morselRows, got, want)
						}
						if res.FromIMCS == 0 || res.FromInvalid == 0 || res.FromTail == 0 || res.FromRowStore == res.FromInvalid+res.FromTail {
							t.Fatalf("paths not all exercised: imcs=%d invalid=%d tail=%d rowstore=%d",
								res.FromIMCS, res.FromInvalid, res.FromTail, res.FromRowStore)
						}
					}
				}
			}
		})
	}
}
