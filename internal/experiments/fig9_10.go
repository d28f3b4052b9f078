package experiments

import (
	"fmt"
	"time"

	"dbimadg/internal/metrics"
	"dbimadg/internal/service"
	"dbimadg/internal/workload"
)

// SpeedupResult reproduces Figs. 9 and 10: median/average/95th-percentile
// response times of Q1 and Q2 on the standby database, without and with
// DBIM-on-ADG, under OLTP on the primary.
type SpeedupResult struct {
	Name string
	Mix  workload.Mix

	WithoutQ1 metrics.LatencySummary
	WithoutQ2 metrics.LatencySummary
	WithQ1    metrics.LatencySummary
	WithQ2    metrics.LatencySummary

	// Achieved throughput of the mixed workload in each phase; the paper
	// notes the 4000 ops/s target "cannot be sustained without DBIM" because
	// the same threads issue DML and the (slow) scans.
	WithoutOps float64
	WithOps    float64

	StandbyStats string
}

// runScanSide loads the table, syncs the standby, and runs the mix with
// standby scans either through the IMCS or through the row store.
func runScanSide(p Params, mix workload.Mix, useIMCS bool) (*workload.Report, string, error) {
	svc := ""
	phase := "without DBIM"
	if useIMCS {
		svc = service.StandbyOnly
		phase = "with DBIM"
	}
	d, err := openDeployment(p, 1, svc)
	if err != nil {
		return nil, "", err
	}
	defer d.close()
	// Let the create-table/INMEMORY markers replicate before resolving the
	// standby catalog.
	if err := d.catchUp(60 * time.Second); err != nil {
		return nil, "", err
	}
	drv, err := d.driver(p, mix, true, useIMCS)
	if err != nil {
		return nil, "", err
	}
	if err := drv.Load(p.Rows); err != nil {
		return nil, "", err
	}
	if err := d.catchUp(60 * time.Second); err != nil {
		return nil, "", err
	}
	if useIMCS {
		if err := d.waitPopulated(120 * time.Second); err != nil {
			return nil, "", err
		}
	}
	settle()
	rep, err := drv.Run(p.Duration)
	if err != nil {
		return nil, "", err
	}
	// Keep version chains bounded, as a production deployment would.
	d.pri.Vacuum(d.sby.QuerySCN())
	d.emitSnapshot(p, phase)
	stats := d.sby.Obs().Snapshot().String()
	return rep, stats, nil
}

// runSpeedup runs the without/with comparison for a mix.
func runSpeedup(name string, p Params, mix workload.Mix) (*SpeedupResult, error) {
	p = p.WithDefaults()
	res := &SpeedupResult{Name: name, Mix: mix}
	without, _, err := runScanSide(p, mix, false)
	if err != nil {
		return nil, fmt.Errorf("%s (without DBIM): %w", name, err)
	}
	res.WithoutQ1, res.WithoutQ2, res.WithoutOps = without.Q1, without.Q2, without.AchievedOps
	with, stats, err := runScanSide(p, mix, true)
	if err != nil {
		return nil, fmt.Errorf("%s (with DBIM): %w", name, err)
	}
	res.WithQ1, res.WithQ2, res.WithOps = with.Q1, with.Q2, with.AchievedOps
	res.StandbyStats = stats
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
func (r *SpeedupResult) SpeedupQ1Median() float64 {
	return metrics.Speedup(r.WithoutQ1.Median, r.WithQ1.Median)
}

// SpeedupQ2Median returns the Q2 median speedup.
func (r *SpeedupResult) SpeedupQ2Median() float64 {
	return metrics.Speedup(r.WithoutQ2.Median, r.WithQ2.Median)
}

// String renders the figure's bar values as a table.
func (r *SpeedupResult) String() string {
	header := []string{"metric", "without DBIM-on-ADG", "with DBIM-on-ADG", "speedup"}
	rows := [][]string{
		speedupRow("Q1 median", r.WithoutQ1, r.WithQ1, func(s metrics.LatencySummary) time.Duration { return s.Median }),
		speedupRow("Q1 average", r.WithoutQ1, r.WithQ1, func(s metrics.LatencySummary) time.Duration { return s.Avg }),
		speedupRow("Q1 p95", r.WithoutQ1, r.WithQ1, func(s metrics.LatencySummary) time.Duration { return s.P95 }),
		speedupRow("Q2 median", r.WithoutQ2, r.WithQ2, func(s metrics.LatencySummary) time.Duration { return s.Median }),
		speedupRow("Q2 average", r.WithoutQ2, r.WithQ2, func(s metrics.LatencySummary) time.Duration { return s.Avg }),
		speedupRow("Q2 p95", r.WithoutQ2, r.WithQ2, func(s metrics.LatencySummary) time.Duration { return s.P95 }),
	}
	out := fmt.Sprintf("%s — Q1/Q2 on standby (samples: %d/%d without, %d/%d with)\n",
		r.Name, r.WithoutQ1.Count, r.WithoutQ2.Count, r.WithQ1.Count, r.WithQ2.Count)
	out += table(header, rows)
	out += fmt.Sprintf("achieved throughput: %.0f ops/s without, %.0f ops/s with (target backpressure, §IV.A)\n",
		r.WithoutOps, r.WithOps)
	return out
}
