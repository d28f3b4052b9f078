package experiments

import (
	"fmt"
	"time"

	"dbimadg/internal/metrics"
	"dbimadg/internal/service"
	"dbimadg/internal/workload"
)

// Table2Result reproduces Table 2: response time of Q1 under the scan-only
// workload (25% full-table scans, 75% index fetches, no DML), run once
// against the primary and once against the standby — both with DBIM enabled.
// The paper's point is that the two sides perform equally well, so scans of
// DML-quiet data offload transparently.
type Table2Result struct {
	Primary metrics.LatencySummary
	Standby metrics.LatencySummary
	// Q2 is measured as well (the paper's table shows Q1 only).
	PrimaryQ2 metrics.LatencySummary
	StandbyQ2 metrics.LatencySummary
}

// RunTable2 runs the scan-only comparison.
func RunTable2(p Params) (*Table2Result, error) {
	p = p.WithDefaults()
	res := &Table2Result{}
	for _, side := range []string{"primary", "standby"} {
		d, err := openDeployment(p, 1, service.PrimaryAndStandby)
		if err != nil {
			return nil, err
		}
		if err := d.catchUp(60 * time.Second); err != nil {
			d.close()
			return nil, err
		}
		drv, err := d.driver(p, workload.ScanOnly, side == "standby", true)
		if err != nil {
			d.close()
			return nil, err
		}
		if err := drv.Load(p.Rows); err != nil {
			d.close()
			return nil, err
		}
		if err := d.catchUp(60 * time.Second); err != nil {
			d.close()
			return nil, err
		}
		if err := d.waitPopulated(120 * time.Second); err != nil {
			d.close()
			return nil, err
		}
		settle()
		rep, err := drv.Run(p.Duration)
		d.emitSnapshot(p, "scans on "+side)
		d.close()
		if err != nil {
			return nil, err
		}
		if side == "primary" {
			res.Primary, res.PrimaryQ2 = rep.Q1, rep.Q2
		} else {
			res.Standby, res.StandbyQ2 = rep.Q1, rep.Q2
		}
	}
	return res, nil
}

// Ratio returns standby/primary median response time (1.0 = identical, the
// paper's finding).
func (r *Table2Result) Ratio() float64 {
	return metrics.Speedup(r.Standby.Median, r.Primary.Median)
}

// String renders the paper's Table 2 rows.
func (r *Table2Result) String() string {
	header := []string{"", "Median", "Average", "95th percentile"}
	rows := [][]string{
		{"Primary", fmtDur(r.Primary.Median), fmtDur(r.Primary.Avg), fmtDur(r.Primary.P95)},
		{"Standby", fmtDur(r.Standby.Median), fmtDur(r.Standby.Avg), fmtDur(r.Standby.P95)},
	}
	out := "Table 2 — Q1 response time, scan-only workload, DBIM on both sides\n"
	out += table(header, rows)
	out += fmt.Sprintf("standby/primary median ratio: %.2f (paper: ~1.01)\n", r.Ratio())
	return out
}
