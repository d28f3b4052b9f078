package experiments

import (
	"fmt"

	"dbimadg/internal/obs"
	"dbimadg/internal/service"
	"dbimadg/internal/workload"
)

// Table2Result reproduces Table 2: response time of Q1 under the scan-only
// workload (25% full-table scans, 75% index fetches, no DML), run once
// against the primary and once against the standby — both with DBIM enabled.
// The paper's point is that the two sides perform equally well, so scans of
// DML-quiet data offload transparently.
type Table2Result struct {
	Primary obs.HistogramSnapshot
	Standby obs.HistogramSnapshot
	// Q2 is measured as well (the paper's table shows Q1 only).
	PrimaryQ2 obs.HistogramSnapshot
	StandbyQ2 obs.HistogramSnapshot
}

// RunTable2 runs the scan-only comparison.
func RunTable2(p Params) (*Table2Result, error) {
	p = p.WithDefaults()
	ph := phase{name: "scans on primary", inmem: service.PrimaryAndStandby, mix: workload.ScanOnly, imcs: true}
	pri, _, err := p.run(ph)
	if err != nil {
		return nil, err
	}
	ph.name, ph.standby = "scans on standby", true
	sby, _, err := p.run(ph)
	if err != nil {
		return nil, err
	}
	return &Table2Result{Primary: pri.Q1, Standby: sby.Q1, PrimaryQ2: pri.Q2, StandbyQ2: sby.Q2}, nil
}

// Ratio returns standby/primary median response time (1.0 = identical, the
// paper's finding).
func (r *Table2Result) Ratio() float64 { return median(r.Standby) / median(r.Primary) }

// String renders the paper's Table 2 rows.
func (r *Table2Result) String() string {
	header := []string{"", "Median", "Average", "95th percentile"}
	var rows [][]string
	for _, side := range []struct {
		name string
		q1   obs.HistogramSnapshot
	}{{"Primary", r.Primary}, {"Standby", r.Standby}} {
		row := []string{side.name}
		for _, st := range stats {
			row = append(row, fmtSec(st.of(side.q1)))
		}
		rows = append(rows, row)
	}
	out := "Table 2 — Q1 response time, scan-only workload, DBIM on both sides\n"
	out += table(header, rows)
	out += fmt.Sprintf("standby/primary median ratio: %.2f (paper: ~1.01)\n", r.Ratio())
	return out
}
