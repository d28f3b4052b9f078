package experiments

import (
	"fmt"
	"runtime"
	"time"

	"dbimadg/internal/service"
	"dbimadg/internal/workload"
)

// CPUResult reproduces the CPU-shift observations of §IV.A-B: offloading the
// scans to the standby moves scan CPU off the primary. CPU usage is
// approximated by attributing each operation's wall time to the side that
// executed it (DML and fetches to the primary; scans to the configured scan
// side), normalized by elapsed time x cores.
type CPUResult struct {
	Cores int

	// Scans on the primary:
	OnPrimaryPriPct float64 // primary CPU (DML + scans)
	OnPrimarySbyPct float64 // standby CPU (≈0: apply only, unmeasured here)

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
	for _, offload := range []bool{false, true} {
		d, err := openDeployment(p, 1, service.PrimaryAndStandby)
		if err != nil {
			return nil, err
		}
		if err := d.catchUp(60 * time.Second); err != nil {
			d.close()
			return nil, err
		}
		drv, err := d.driver(p, workload.UpdateOnly, offload, true)
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
		if offload {
			d.emitSnapshot(p, "scans offloaded")
		} else {
			d.emitSnapshot(p, "scans on primary")
		}
		d.close()
		if err != nil {
			return nil, err
		}
		wall := rep.Duration
		denom := float64(wall) * float64(res.Cores)
		dmlPct := 100 * float64(drv.DMLBusy()) / denom
		scanPct := 100 * float64(drv.ScanBusy()) / denom
		if offload {
			res.OffloadPriPct = dmlPct
			res.OffloadSbyPct = scanPct
		} else {
			res.OnPrimaryPriPct = dmlPct + scanPct
			res.OnPrimarySbyPct = 0
		}
	}
	return res, nil
}

// String renders the CPU table.
func (r *CPUResult) String() string {
	header := []string{"configuration", "primary CPU %", "standby CPU %"}
	rows := [][]string{
		{"scans on primary", fmt.Sprintf("%.1f", r.OnPrimaryPriPct), fmt.Sprintf("%.1f", r.OnPrimarySbyPct)},
		{"scans offloaded to standby", fmt.Sprintf("%.1f", r.OffloadPriPct), fmt.Sprintf("%.1f", r.OffloadSbyPct)},
	}
	out := fmt.Sprintf("CPU shift (update-only workload, %d cores) — §IV.A/IV.B\n", r.Cores)
	out += table(header, rows)
	out += "paper: primary 11.7%→4.7% when scans offload; standby rises correspondingly\n"
	return out
}
