package experiments

import (
	"fmt"

	"dbimadg"
	"dbimadg/internal/obs"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/service"
)

// GroupByResult measures the batch execution pipeline's grouped-aggregate
// path on the standby: GROUP BY over a reporting table whose group key is
// run-encoded (think time buckets or region codes — long stretches of one
// value), served by the column store (encoding-aware run-level folds) vs the
// pure row-store fallback, plus one four-aggregate scan vs two separate
// single-aggregate scans of the same column.
type GroupByResult struct {
	Groups int

	IMCS     obs.HistogramSnapshot
	RowStore obs.HistogramSnapshot

	SinglePass obs.HistogramSnapshot
	TwoScans   obs.HistogramSnapshot

	// RowsEncoded/RowsDecoded are the profile totals of one grouped IMCS
	// scan: how many aggregate folds stayed in encoded space.
	RowsEncoded int64
	RowsDecoded int64
}

// RunGroupBy runs the grouped-aggregation comparison on one deployment: the
// standby serves the same grouped query at its published QuerySCN through
// both executors, so the latency gap is purely the execution pipeline.
func RunGroupBy(p Params) (*GroupByResult, error) {
	p = p.WithDefaults()
	c, _, err := open(p, dbimadg.Config{}, "")
	if err != nil {
		return nil, err
	}
	defer c.Close()

	// The grouped workload gets its own table: key g arrives in long runs of
	// one value (64 groups), so the standby's encoder picks RLE and the
	// grouped scan can fold whole runs; v is a plain bit-packed measure.
	const groupDomain = 64
	gTbl, err := c.CreateTable(&rowstore.TableSpec{
		Name: "G101", Tenant: tenant,
		Columns: []rowstore.Column{
			{Name: "id", Kind: rowstore.KindNumber},
			{Name: "g", Kind: rowstore.KindNumber},
			{Name: "v", Kind: rowstore.KindNumber},
		},
		IdentityCol: 0, PartitionCol: -1,
	})
	if err != nil {
		return nil, err
	}
	if err := c.AlterInMemory(tenant, "G101", "", rowstore.InMemoryAttr{
		Enabled: true, Service: service.StandbyOnly,
	}); err != nil {
		return nil, err
	}
	runLen := int64(p.Rows / groupDomain)
	if runLen < 1 {
		runLen = 1
	}
	s := gTbl.Schema()
	const batch = 512
	for lo := 0; lo < p.Rows; lo += batch {
		tx := c.Primary().Instance(0).Begin()
		for id := int64(lo); id < int64(lo+batch) && id < int64(p.Rows); id++ {
			row := rowstore.NewRow(s)
			row.Nums[s.Col(0).Slot()] = id
			row.Nums[s.Col(1).Slot()] = (id / runLen) % groupDomain
			// The measure repeats in short runs (like bucketed sensor or
			// price data), so it run-length-encodes and SUM/MIN/MAX fold at
			// run level — encoded-space aggregation end to end.
			row.Nums[s.Col(2).Slot()] = (id / 8) % 997
			if _, err := tx.Insert(gTbl, row); err != nil {
				return nil, err
			}
		}
		if _, err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	if err := ready(c); err != nil {
		return nil, err
	}
	sTbl, err := c.StandbyTable(tenant, "G101")
	if err != nil {
		return nil, err
	}
	g, v := 1, 2
	groupQ := func() *scanengine.Query {
		return &scanengine.Query{
			Table: sTbl,
			Aggs: []scanengine.AggSpec{
				{Kind: scanengine.AggCount},
				{Kind: scanengine.AggSum, Col: v},
			},
			GroupBy:  []int{g},
			Parallel: p.ScanParallel,
		}
	}

	sby := c.StandbyMaster()
	hybrid := scanengine.NewExecutor(sby.Txns(), sby.Store())
	hybrid.Obs = sby.ScanStats()
	pure := scanengine.NewExecutor(sby.Txns())

	res := &GroupByResult{}
	settle()

	// One profiled run records the encoded/decoded fold split and the group
	// cardinality the comparison below re-measures.
	r0, prof, err := hybrid.RunProfiled(groupQ(), sby.QuerySCN())
	if err != nil {
		return nil, err
	}
	res.Groups = len(r0.Grouped.Groups)
	res.RowsEncoded, res.RowsDecoded = prof.RowsEncoded, prof.RowsDecoded

	measure := func(ex *scanengine.Executor, q func() *scanengine.Query) (obs.HistogramSnapshot, error) {
		return sample(p.shortPhase(), func() error {
			_, err := ex.Run(q(), sby.QuerySCN())
			return err
		})
	}
	if res.IMCS, err = measure(hybrid, groupQ); err != nil {
		return nil, fmt.Errorf("grouped IMCS scan: %w", err)
	}
	if res.RowStore, err = measure(pure, groupQ); err != nil {
		return nil, fmt.Errorf("grouped row-store scan: %w", err)
	}

	multiQ := func() *scanengine.Query {
		return &scanengine.Query{
			Table: sTbl,
			Aggs: []scanengine.AggSpec{
				{Kind: scanengine.AggCount},
				{Kind: scanengine.AggSum, Col: v},
				{Kind: scanengine.AggMin, Col: v},
				{Kind: scanengine.AggMax, Col: v},
			},
			Parallel: p.ScanParallel,
		}
	}
	if res.SinglePass, err = measure(hybrid, multiQ); err != nil {
		return nil, fmt.Errorf("single-pass multi-aggregate: %w", err)
	}
	// Two separate scans per sample: the cost the multi-aggregate
	// accumulator saves.
	if res.TwoScans, err = sample(p.shortPhase(), func() error {
		for _, kind := range []scanengine.AggKind{scanengine.AggSum, scanengine.AggMax} {
			q := &scanengine.Query{Table: sTbl, Aggs: []scanengine.AggSpec{{Kind: kind, Col: v}}, Parallel: p.ScanParallel}
			if _, err := hybrid.Run(q, sby.QuerySCN()); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, fmt.Errorf("two-scan multi-aggregate: %w", err)
	}
	p.emit(c, "grouped aggregation")
	return res, nil
}

// Speedup returns the grouped IMCS-vs-rowstore median speedup.
func (r *GroupByResult) Speedup() float64 { return median(r.RowStore) / median(r.IMCS) }

// String renders the comparison.
func (r *GroupByResult) String() string {
	header := []string{"metric", "row store", "IMCS", "speedup"}
	var rows [][]string
	for _, st := range stats {
		rows = append(rows, speedupRow("GROUP BY "+st.name, st.of(r.RowStore), st.of(r.IMCS)))
	}
	rows = append(rows, speedupRow("4-agg two scans vs one pass", median(r.TwoScans), median(r.SinglePass)))
	out := fmt.Sprintf("GROUP BY g / multi-aggregate on standby — %d groups (samples: %d rowstore, %d imcs)\n",
		r.Groups, r.RowStore.Count, r.IMCS.Count)
	out += table(header, rows)
	out += fmt.Sprintf("encoded-space aggregate folds: %d encoded vs %d decoded per grouped scan\n",
		r.RowsEncoded, r.RowsDecoded)
	return out
}
