package experiments

import (
	"fmt"

	"dbimadg/internal/obs"
	"dbimadg/internal/service"
	"dbimadg/internal/workload"
)

// SpeedupResult reproduces Figs. 9 and 10: median/average/95th-percentile
// response times of Q1 and Q2 on the standby database, without and with
// DBIM-on-ADG, under OLTP on the primary.
type SpeedupResult struct {
	Name string
	Mix  workload.Mix

	WithoutQ1 obs.HistogramSnapshot
	WithoutQ2 obs.HistogramSnapshot
	WithQ1    obs.HistogramSnapshot
	WithQ2    obs.HistogramSnapshot

	// Achieved throughput of the mixed workload in each phase; the paper
	// notes the 4000 ops/s target "cannot be sustained without DBIM" because
	// the same threads issue DML and the (slow) scans.
	WithoutOps float64
	WithOps    float64
}

// runSpeedup runs the without/with comparison for a mix: standby scans
// through the row store alone, then through the column store.
func runSpeedup(name string, p Params, mix workload.Mix) (*SpeedupResult, error) {
	p = p.WithDefaults()
	res := &SpeedupResult{Name: name, Mix: mix}
	without, _, err := p.run(phase{name: "without DBIM", mix: mix, standby: true})
	if err != nil {
		return nil, fmt.Errorf("%s (without DBIM): %w", name, err)
	}
	res.WithoutQ1, res.WithoutQ2, res.WithoutOps = without.Q1, without.Q2, without.AchievedOps
	with, _, err := p.run(phase{name: "with DBIM", inmem: service.StandbyOnly, mix: mix, standby: true, imcs: true})
	if err != nil {
		return nil, fmt.Errorf("%s (with DBIM): %w", name, err)
	}
	res.WithQ1, res.WithQ2, res.WithOps = with.Q1, with.Q2, with.AchievedOps
	return res, nil
}

// RunFig9 reproduces Fig. 9: the update-only workload (70% updates, 29%
// index fetches on the primary; 1% standby scans), comparing Q1/Q2 response
// times on the standby without and with DBIM-on-ADG. The paper reports
// ~100x.
func RunFig9(p Params) (*SpeedupResult, error) {
	return runSpeedup("Fig 9 (update-only)", p, workload.UpdateOnly)
}

// RunFig10 reproduces Fig. 10: the update+insert workload (25% inserts, 40%
// updates, 34% fetches, 1% standby scans). Inserts grow the table past the
// populated IMCUs, so scans pay an edge row-store component and the paper's
// speedup drops to ~10x.
func RunFig10(p Params) (*SpeedupResult, error) {
	return runSpeedup("Fig 10 (update+insert)", p, workload.UpdateInsert)
}

// SpeedupQ1Median returns the Q1 median speedup (the figure's headline).
func (r *SpeedupResult) SpeedupQ1Median() float64 { return median(r.WithoutQ1) / median(r.WithQ1) }

// SpeedupQ2Median returns the Q2 median speedup.
func (r *SpeedupResult) SpeedupQ2Median() float64 { return median(r.WithoutQ2) / median(r.WithQ2) }

// String renders the figure's bar values as a table.
func (r *SpeedupResult) String() string {
	header := []string{"metric", "without DBIM-on-ADG", "with DBIM-on-ADG", "speedup"}
	var rows [][]string
	for _, q := range []struct {
		name          string
		without, with obs.HistogramSnapshot
	}{{"Q1", r.WithoutQ1, r.WithQ1}, {"Q2", r.WithoutQ2, r.WithQ2}} {
		for _, st := range stats {
			rows = append(rows, speedupRow(q.name+" "+st.name, st.of(q.without), st.of(q.with)))
		}
	}
	out := fmt.Sprintf("%s — Q1/Q2 on standby (samples: %d/%d without, %d/%d with)\n",
		r.Name, r.WithoutQ1.Count, r.WithoutQ2.Count, r.WithQ1.Count, r.WithQ2.Count)
	out += table(header, rows)
	out += fmt.Sprintf("achieved throughput: %.0f ops/s without, %.0f ops/s with (target backpressure, §IV.A)\n",
		r.WithoutOps, r.WithOps)
	return out
}
