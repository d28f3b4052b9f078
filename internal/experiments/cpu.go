package experiments

import (
	"fmt"
	"runtime"

	"dbimadg/internal/service"
	"dbimadg/internal/workload"
)

// CPUResult reproduces the CPU-shift observations of §IV.A-B: offloading the
// scans to the standby moves scan CPU off the primary. CPU usage is
// approximated by attributing each operation's wall time to the side that
// executed it (DML and fetches to the primary; scans to the configured scan
// side), normalized by elapsed time x cores. With the scans on the primary
// the standby only applies redo, which this does not measure.
type CPUResult struct {
	Cores int

	// Scans on the primary: primary CPU (DML + scans).
	OnPrimaryPriPct float64

	// Scans offloaded to the standby:
	OffloadPriPct float64 // primary CPU (DML only)
	OffloadSbyPct float64 // standby CPU (scans)
}

// RunCPU runs the update-only workload twice — scans on the primary, scans on
// the standby — with DBIM enabled on both sides, and reports the utilization
// split.
func RunCPU(p Params) (*CPUResult, error) {
	p = p.WithDefaults()
	res := &CPUResult{Cores: runtime.NumCPU()}
	// pct attributes a run's DML and scan busy time as a share of its wall
	// time across all cores.
	pct := func(ph phase) (dml, scan float64, err error) {
		rep, drv, err := p.run(ph)
		if err != nil {
			return 0, 0, err
		}
		denom := float64(rep.Duration) * float64(res.Cores) / 100
		return float64(drv.DMLBusy()) / denom, float64(drv.ScanBusy()) / denom, nil
	}
	ph := phase{name: "scans on primary", inmem: service.PrimaryAndStandby, mix: workload.UpdateOnly, imcs: true}
	dml, scan, err := pct(ph)
	if err != nil {
		return nil, err
	}
	res.OnPrimaryPriPct = dml + scan
	ph.name, ph.standby = "scans offloaded", true
	if res.OffloadPriPct, res.OffloadSbyPct, err = pct(ph); err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the CPU table.
func (r *CPUResult) String() string {
	header := []string{"configuration", "primary CPU %", "standby CPU %"}
	rows := [][]string{
		{"scans on primary", fmt.Sprintf("%.1f", r.OnPrimaryPriPct), "-"},
		{"scans offloaded to standby", fmt.Sprintf("%.1f", r.OffloadPriPct), fmt.Sprintf("%.1f", r.OffloadSbyPct)},
	}
	out := fmt.Sprintf("CPU shift (update-only workload, %d cores) — §IV.A/IV.B\n", r.Cores)
	out += table(header, rows)
	out += "paper: primary 11.7%→4.7% when scans offload; standby rises correspondingly\n"
	return out
}
