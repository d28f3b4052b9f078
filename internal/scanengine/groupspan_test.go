package scanengine

import (
	"math"
	"testing"

	"dbimadg/internal/imcs"
	"dbimadg/internal/rowstore"
)

// TestKeySpans checks which form of the unit-local group table an IMCU's key
// ranges select: the direct index while their product fits maxDirectSlots,
// the map past it — without the product or a NUMBER range wrapping.
func TestKeySpans(t *testing.T) {
	schema, err := rowstore.NewSchema([]rowstore.Column{
		{Name: "a", Kind: rowstore.KindNumber},
		{Name: "b", Kind: rowstore.KindNumber},
		{Name: "s", Kind: rowstore.KindVarchar},
	})
	if err != nil {
		t.Fatal(err)
	}
	build := func(a, b []int64, s []string) *imcs.IMCU {
		bld := imcs.NewBuilder(1, 1, schema, 0, 0, 1)
		bld.BeginBlock(len(a))
		for i := range a {
			row := rowstore.NewRow(schema)
			row.Nums[0], row.Nums[1], row.Strs[0] = a[i], b[i], s[i]
			bld.AddRow(rowstore.Pack(row), true)
		}
		return bld.Build()
	}
	plan := func(cols ...int) *queryPlan {
		p, err := planQuery(&Query{GroupBy: cols, Aggs: []AggSpec{{Kind: AggCount}}}, schema)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	imcu := build(
		[]int64{-5, 0, 4},
		[]int64{math.MinInt64, 0, math.MaxInt64},
		[]string{"x", "y", "x"},
	)
	cases := []struct {
		name   string
		cols   []int
		origin lkey
		span   lkey
		slots  int
	}{
		{"dictionary", []int{2}, lkey{}, lkey{2}, 2},
		{"negative-origin", []int{0}, lkey{-5}, lkey{10}, 10},
		{"composite", []int{2, 0}, lkey{0, -5}, lkey{2, 10}, 20},
		{"full-int64-range", []int{1}, lkey{math.MinInt64}, lkey{maxDirectSlots + 1}, maxDirectSlots + 1},
		{"product-past-bound", []int{0, 1, 1, 1}, lkey{-5, math.MinInt64, math.MinInt64, math.MinInt64},
			lkey{10, maxDirectSlots + 1, maxDirectSlots + 1, maxDirectSlots + 1}, maxDirectSlots + 1},
	}
	for _, c := range cases {
		origin, span, slots := plan(c.cols...).keySpans(imcu)
		if origin != c.origin || span != c.span || slots != c.slots {
			t.Errorf("%s: origin=%v span=%v slots=%d, want %v %v %d", c.name, origin, span, slots, c.origin, c.span, c.slots)
		}
	}
	// A unit that captured nothing has empty dictionaries: no slot at all.
	if _, _, slots := plan(2, 0).keySpans(build(nil, nil, nil)); slots != 0 {
		t.Errorf("empty unit: slots=%d, want 0", slots)
	}
}
