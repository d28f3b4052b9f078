package experiments

import (
	"fmt"

	"dbimadg"
	"dbimadg/internal/obs"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/service"
)

// MorselScalePoint is one worker count of the scan-scaling sweep.
type MorselScalePoint struct {
	Workers int
	Latency obs.HistogramSnapshot
	// Speedup is the serial median over this point's median.
	Speedup float64
	// MorselsPerScan / StealsPerScan average the scheduler's granule count
	// and off-affinity executions per query.
	MorselsPerScan float64
	StealsPerScan  float64
}

// MorselResult measures the morsel-driven work-stealing scan executor on the
// standby: the grouped-aggregate latency at increasing intra-query
// parallelism over one populated column store. What scans cost redo apply is
// measured by the end-to-end benchmark's htap_saturated workload.
type MorselResult struct {
	MorselRows int
	Points     []MorselScalePoint
}

// RunMorsel runs the scan-scaling sweep.
func RunMorsel(p Params) (*MorselResult, error) {
	p = p.WithDefaults()
	c, tbl, err := open(p, dbimadg.Config{}, service.StandbyOnly)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := load(c, tbl, p.Rows, p.Seed); err != nil {
		return nil, err
	}
	sTbl, err := c.StandbyTable(tenant, tableName)
	if err != nil {
		return nil, err
	}
	s := sTbl.Schema()
	groupCol := s.ColIndex("c1")
	sumCol := s.ColIndex("n1")
	mkQuery := func(par int) *scanengine.Query {
		return &scanengine.Query{
			Table: sTbl,
			Aggs: []scanengine.AggSpec{
				{Kind: scanengine.AggCount},
				{Kind: scanengine.AggSum, Col: sumCol},
			},
			GroupBy:  []int{groupCol},
			Parallel: par,
		}
	}
	sby := c.StandbyMaster()
	ex := scanengine.NewExecutor(sby.Txns(), sby.Store())
	ex.Obs = sby.ScanStats()
	morselRows, _ := sby.ScanTuning()

	res := &MorselResult{MorselRows: morselRows}
	settle()
	for _, w := range []int{1, 2, 4, p.ScanParallel} {
		var morsels, steals, scans int64
		lat, err := sample(p.shortPhase(), func() error {
			r, err := ex.Run(mkQuery(w), sby.QuerySCN())
			if err != nil {
				return err
			}
			morsels += r.Morsels
			steals += r.Steals
			scans++
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: scaling scan at %d workers: %w", w, err)
		}
		pt := MorselScalePoint{
			Workers:        w,
			Latency:        lat,
			Speedup:        1,
			MorselsPerScan: float64(morsels) / float64(scans),
			StealsPerScan:  float64(steals) / float64(scans),
		}
		if len(res.Points) > 0 {
			pt.Speedup = median(res.Points[0].Latency) / median(lat)
		}
		res.Points = append(res.Points, pt)
	}
	p.emit(c, "morsel scaling")
	return res, nil
}

// String renders the scaling sweep.
func (r *MorselResult) String() string {
	var rows [][]string
	for _, pt := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", pt.Workers),
			fmtSec(median(pt.Latency)),
			fmtSec(pt.Latency.Quantile(0.95)),
			fmt.Sprintf("%.2fx", pt.Speedup),
			fmt.Sprintf("%.1f", pt.MorselsPerScan),
			fmt.Sprintf("%.1f", pt.StealsPerScan),
		})
	}
	out := fmt.Sprintf("Morsel-parallel GROUP BY scaling (morsel granule %d rows)\n", r.MorselRows)
	out += table([]string{"workers", "median", "p95", "speedup", "morsels/scan", "steals/scan"}, rows)
	return out
}
