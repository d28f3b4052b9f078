package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/service"
	"dbimadg/internal/standby"
	"dbimadg/internal/transport"
	"dbimadg/internal/workload"
)

// CheckpointResult measures the checkpoint subsystem's cold-restart payoff:
// a standby restart that restores the newest IMCS snapshot and replays only
// redo past its checkpoint SCN, against the same restart forced onto the full
// rebuild path (no snapshot available — every IMCU repopulates from the row
// store). Both phases run the identical Instance.Restart code and both
// include the redo catch-up of a post-checkpoint churn burst, so the numbers
// are end-to-end cold starts, not just population timings.
type CheckpointResult struct {
	Rows int

	// SnapshotBytes/Units/SCN/Took describe the checkpoint file the restore
	// phase started from.
	SnapshotBytes int64
	SnapshotUnits int
	SnapshotSCN   uint64
	SnapshotTook  time.Duration

	// ColdRestart is restart-to-serving with no snapshot: redo resume at the
	// stopped watermark plus a full IMCS rebuild from the row store.
	ColdRestart time.Duration
	// RestoreRestart is restart-to-serving via the snapshot: restore, then
	// replay the churn redo past the checkpoint SCN.
	RestoreRestart time.Duration
	// RestoredUnits is how many IMCUs the restore installed without touching
	// the row store.
	RestoredUnits int64
}

// Speedup is the cold-restart ratio (the acceptance bar is >= 10x).
func (r *CheckpointResult) Speedup() float64 {
	if r.RestoreRestart <= 0 {
		return 0
	}
	return float64(r.ColdRestart) / float64(r.RestoreRestart)
}

// String renders the comparison table.
func (r *CheckpointResult) String() string {
	header := []string{"restart path", "time to serving", "speedup"}
	rows := [][]string{
		{"full rebuild (no snapshot)", fmtDur(r.ColdRestart), "1.0x"},
		{"snapshot + redo catch-up", fmtDur(r.RestoreRestart), fmt.Sprintf("%.1fx", r.Speedup())},
	}
	out := fmt.Sprintf("Checkpoint cold restart — %d rows, snapshot %d units / %.1f KB at SCN %d (written in %v, %d units restored)\n",
		r.Rows, r.SnapshotUnits, float64(r.SnapshotBytes)/1024, r.SnapshotSCN,
		r.SnapshotTook.Round(time.Microsecond), r.RestoredUnits)
	return out + table(header, rows)
}

// RunCheckpoint runs the cold-restart comparison: load, populate, checkpoint,
// churn, then time Instance.Restart twice — once restoring the snapshot and
// once with the snapshot directory emptied so the restart falls back to the
// full rebuild.
func RunCheckpoint(p Params) (*CheckpointResult, error) {
	p = p.WithDefaults()
	dir, err := os.MkdirTemp("", "dbimadg-ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	d, err := openDeployment(p, 1, service.StandbyOnly, func(c *standby.Config) {
		c.SnapshotDir = dir
		// The phases checkpoint manually at known points; keep the background
		// cadence out of the measurement.
		c.SnapshotInterval = time.Hour
	})
	if err != nil {
		return nil, err
	}
	defer d.close()
	if err := d.catchUp(60 * time.Second); err != nil {
		return nil, err
	}
	drv, err := d.driver(p, workload.UpdateOnly, false, false)
	if err != nil {
		return nil, err
	}
	if err := drv.Load(p.Rows); err != nil {
		return nil, err
	}
	if err := d.catchUp(60 * time.Second); err != nil {
		return nil, err
	}
	if err := d.waitPopulated(120 * time.Second); err != nil {
		return nil, err
	}
	settle()

	master := d.sby
	res := &CheckpointResult{Rows: p.Rows}
	baseline := master.Store().Stats().PopulatedUnits
	rng := rand.New(rand.NewSource(p.Seed))

	// churn commits a burst of updates the restarted standby must catch up on
	// (redo past the checkpoint SCN in the restore phase).
	churn := func() error {
		inst := d.pri.Instance(0)
		schema := d.tbl.Schema()
		n1 := schema.ColIndex("n1")
		for k := 0; k < p.Rows/100+1; k++ {
			tx := inst.Begin()
			id := rng.Int63n(int64(p.Rows))
			v := rng.Int63n(workload.NumDomain)
			if err := tx.UpdateByID(d.tbl, id, []uint16{uint16(n1)}, func(r *rowstore.Row) {
				r.Nums[schema.Col(n1).Slot()] = v
			}); err != nil {
				_ = tx.Abort()
				return err
			}
			if _, err := tx.Commit(); err != nil {
				return err
			}
		}
		return nil
	}

	// restart times one Instance.Restart to serving: redo caught up to the
	// primary's frontier and the column store back at its baseline coverage.
	restart := func() (time.Duration, error) {
		var streams []*redo.Stream
		for _, inst := range d.pri.Instances() {
			streams = append(streams, inst.Stream())
		}
		start := time.Now()
		if err := master.Restart(transport.NewInProc(streams...)); err != nil {
			return 0, err
		}
		if !master.WaitForSCN(d.pri.Snapshot(), 120*time.Second) {
			return 0, fmt.Errorf("experiments: restarted standby never caught up")
		}
		deadline := time.Now().Add(120 * time.Second)
		for master.Store().Stats().PopulatedUnits < baseline {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("experiments: store never reached %d units after restart", baseline)
			}
			time.Sleep(200 * time.Microsecond)
		}
		return time.Since(start), nil
	}

	// Phase 1 — full rebuild: empty the snapshot directory so Restart falls
	// back, then churn and restart.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		os.Remove(filepath.Join(dir, e.Name()))
	}
	if err := churn(); err != nil {
		return nil, err
	}
	if res.ColdRestart, err = restart(); err != nil {
		return nil, err
	}

	// Phase 2 — snapshot restore: checkpoint the settled store, churn past it,
	// restart.
	if err := d.waitPopulated(120 * time.Second); err != nil {
		return nil, err
	}
	ckptStart := time.Now()
	meta, err := master.CheckpointNow()
	if err != nil {
		return nil, err
	}
	res.SnapshotTook = time.Since(ckptStart)
	res.SnapshotBytes = meta.Bytes
	res.SnapshotUnits = meta.Units
	res.SnapshotSCN = uint64(meta.SCN)
	if err := churn(); err != nil {
		return nil, err
	}
	if res.RestoreRestart, err = restart(); err != nil {
		return nil, err
	}
	res.RestoredUnits = master.Store().UnitsRestored()
	if res.RestoredUnits == 0 {
		return nil, fmt.Errorf("experiments: restore phase fell back to a full rebuild")
	}
	return res, nil
}
