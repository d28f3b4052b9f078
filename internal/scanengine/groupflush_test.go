package scanengine

import (
	"fmt"
	"testing"

	"dbimadg/internal/imcs"
	"dbimadg/internal/rowstore"
)

// BenchmarkGroupFlush times folding a unit's 1 000 touched groups into a table
// that already holds another unit's 1 000: the same keys (every flush after
// the first of the bench's GRP), or 1 000 keys that interleave with them. The
// time is per flush of the second unit.
func BenchmarkGroupFlush(b *testing.B) {
	schema, err := rowstore.NewSchema([]rowstore.Column{
		{Name: "n", Kind: rowstore.KindNumber},
		{Name: "s", Kind: rowstore.KindVarchar},
	})
	if err != nil {
		b.Fatal(err)
	}
	const groups = 1000
	build := func(offset int) *imcs.IMCU {
		bld := imcs.NewBuilder(1, 1, schema, 0, 0, 1)
		bld.BeginBlock(groups)
		for i := 0; i < groups; i++ {
			row := rowstore.NewRow(schema)
			row.Nums[0], row.Strs[0] = int64(i), fmt.Sprintf("val_%05d", 2*i+offset)
			bld.AddRow(rowstore.Pack(row), true)
		}
		return bld.Build()
	}
	first := build(0)
	plan, err := planQuery(&Query{GroupBy: []int{1}, Aggs: []AggSpec{{Kind: AggCount}, {Kind: AggSum, Col: 0}}}, schema)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		second *imcs.IMCU
		total  int
	}{{"same-dict", build(0), groups}, {"new-keys", build(1), 2 * groups}} {
		b.Run(c.name, func(b *testing.B) {
			scratch := getScratch()
			defer putScratch(scratch)
			touchAll := func(o *groupOp, imcu *imcs.IMCU) {
				o.beginUnit(imcu)
				for s := 0; s < groups; s++ {
					o.loc.count[s] = 1
					o.loc.touch(s)
				}
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				o := newGroupOp(plan, schema, scratch)
				touchAll(o, first)
				touchAll(o, c.second) // flushes the first unit
				b.StartTimer()
				o.flush()
				if len(o.g.count) != c.total {
					b.Fatalf("%d groups, want %d", len(o.g.count), c.total)
				}
			}
		})
	}
}
