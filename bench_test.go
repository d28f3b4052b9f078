// Benchmarks of what no other harness measures: the broker's warm failover
// against a cold repopulation, and the checkpoint subsystem's cold restart.
// The paper's figures and tables are regenerated by cmd/adgbench
// (internal/experiments); the end-to-end trajectory is bench/ with
// cmd/trajectory.
package dbimadg_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"dbimadg"
	"dbimadg/internal/imcs"
	"dbimadg/internal/redo"
	"dbimadg/internal/scn"
	"dbimadg/internal/transport"
	"dbimadg/internal/workload"
)

// loadRows commits rows [from, to) of the wide table in batches of 512.
func loadRows(b *testing.B, c *dbimadg.Cluster, tbl *dbimadg.Table, from, to int64) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	sess := c.PrimarySession(0)
	s := tbl.Schema()
	const batch = 512
	for lo := from; lo < to; lo += batch {
		tx, err := sess.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for id := lo; id < lo+batch && id < to; id++ {
			if _, err := tx.Insert(tbl, workload.FillRow(s, id, rng)); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailover measures the broker's whole failover (terminal recovery,
// transport teardown, rollback, open with the column store retained WARM)
// against the cost the warm promotion avoids: rebuilding the store from
// scratch on the promoted node. Each iteration deploys, loads and syncs a
// fresh pair, fails it over, then cold-populates a second store over the same
// database. promote-ms vs coldrepop-ms is the paper's role-transition payoff.
func BenchmarkFailover(b *testing.B) {
	const rows = 8000
	var promote, coldRepop time.Duration
	for i := 0; i < b.N; i++ {
		c, err := dbimadg.Open(dbimadg.Config{
			CheckpointInterval: time.Millisecond,
			PopulationInterval: 2 * time.Millisecond,
			BlocksPerIMCU:      16,
		})
		if err != nil {
			b.Fatal(err)
		}
		tbl, err := c.Primary().Instance(0).CreateTable(workload.WideTableSpec("C101", 1))
		if err != nil {
			b.Fatal(err)
		}
		if err := c.AlterInMemory(1, "C101", "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly}); err != nil {
			b.Fatal(err)
		}
		loadRows(b, c, tbl, 0, rows)
		if !c.WaitStandbyCaughtUp(60*time.Second) || !c.WaitPopulated(60*time.Second) {
			b.Fatal("fixture sync failed")
		}

		res, err := c.Failover()
		if err != nil {
			b.Fatal(err)
		}
		if res.WarmUnits == 0 {
			b.Fatal("promotion was not warm")
		}
		promote += res.Elapsed

		// The ablation: what promotion would cost if the store were dropped and
		// repopulated cold on the promoted node.
		master := c.PromotedMaster()
		pri := c.Primary()
		coldStore := imcs.NewStore()
		coldEng := imcs.NewEngine(coldStore, pri.Txns(), benchSnapshotter{pri.Snapshot},
			func() []imcs.Target {
				var out []imcs.Target
				for _, tbl := range master.DB().Tables() {
					for _, part := range tbl.Partitions() {
						if part.InMemory().Enabled {
							out = append(out, imcs.Target{Seg: part.Seg, Table: tbl})
						}
					}
				}
				return out
			}, imcs.Config{BlocksPerIMCU: 16, Interval: time.Millisecond})
		start := time.Now()
		coldEng.Start()
		if !coldEng.WaitIdle(120 * time.Second) {
			b.Fatal("cold repopulation did not settle")
		}
		coldRepop += time.Since(start)
		coldEng.Stop()
		c.Close()
	}
	b.ReportMetric(promote.Seconds()*1e3/float64(b.N), "promote-ms")
	b.ReportMetric(coldRepop.Seconds()*1e3/float64(b.N), "coldrepop-ms")
}

// benchSnapshotter adapts a snapshot func to imcs.Snapshotter.
type benchSnapshotter struct{ f func() scn.SCN }

func (s benchSnapshotter) CaptureSnapshot() scn.SCN { return s.f() }

// BenchmarkCheckpointRestart measures the checkpoint subsystem's cold-restart
// payoff at the evaluation scale (300k rows): a standby Restart that restores
// the newest snapshot and replays only redo past its checkpoint SCN
// (restore-ms), against the identical Restart with the snapshot directory
// emptied so it falls back to a full row-store rebuild (coldrebuild-ms). Both
// timings include the redo catch-up of a post-checkpoint churn burst and run
// to the same populated-unit coverage. apply-ckpt-ratio-pct is churn-and-sync
// wall time with a concurrent checkpoint loop as a percentage of the
// undisturbed baseline — the COW capture's interference with live apply.
func BenchmarkCheckpointRestart(b *testing.B) {
	const rows = 300000
	dir := b.TempDir()
	c, err := dbimadg.Open(dbimadg.Config{
		CheckpointInterval: time.Millisecond,
		PopulationInterval: 2 * time.Millisecond,
		BlocksPerIMCU:      16,
		SnapshotDir:        dir,
		// The benchmark checkpoints manually at measured points; keep the
		// background cadence out of the timings.
		SnapshotInterval: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	tbl, err := c.Primary().Instance(0).CreateTable(workload.WideTableSpec("C101", 1))
	if err != nil {
		b.Fatal(err)
	}
	if err := c.AlterInMemory(1, "C101", "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly}); err != nil {
		b.Fatal(err)
	}
	loadRows(b, c, tbl, 0, rows)
	if !c.WaitStandbyCaughtUp(120*time.Second) || !c.WaitPopulated(120*time.Second) {
		b.Fatal("fixture sync failed")
	}

	master := c.StandbyMaster()
	baseline := master.Store().Stats().PopulatedUnits
	rng := rand.New(rand.NewSource(11))
	s := tbl.Schema()
	n1 := s.ColIndex("n1")

	// churn commits a burst of single-row updates the restarted standby must
	// catch up on (redo past the checkpoint SCN in the restore phase).
	churn := func() {
		sess := c.PrimarySession(0)
		for k := 0; k < rows/200; k++ {
			tx, err := sess.Begin()
			if err != nil {
				b.Fatal(err)
			}
			id := rng.Int63n(rows)
			_ = tx.UpdateByID(tbl, id, []uint16{uint16(n1)}, func(r *dbimadg.Row) {
				r.Nums[s.Col(n1).Slot()] = rng.Int63n(workload.NumDomain)
			})
			if _, err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}

	// restart times one Instance.Restart to serving: redo caught up to the
	// primary's frontier and the store back at its baseline coverage. The
	// explicit GC levels the collector debt left by the preceding load/churn
	// so both restart paths start from the same heap state.
	restart := func() time.Duration {
		var streams []*redo.Stream
		for _, inst := range c.Primary().Instances() {
			streams = append(streams, inst.Stream())
		}
		runtime.GC()
		start := time.Now()
		if err := master.Restart(transport.NewInProc(streams...)); err != nil {
			b.Fatal(err)
		}
		if !master.WaitForSCN(c.Primary().Snapshot(), 120*time.Second) {
			b.Fatal("restarted standby never caught up")
		}
		deadline := time.Now().Add(120 * time.Second)
		for master.Store().Stats().PopulatedUnits < baseline {
			if time.Now().After(deadline) {
				b.Fatal("store never regained baseline coverage after restart")
			}
			time.Sleep(200 * time.Microsecond)
		}
		return time.Since(start)
	}

	var cold, restore time.Duration
	var snapBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Full-rebuild phase: empty the snapshot directory so Restart falls
		// back, then churn and restart.
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			os.Remove(filepath.Join(dir, e.Name()))
		}
		churn()
		cold += restart()
		if !c.WaitPopulated(120 * time.Second) {
			b.Fatal("rebuild did not settle")
		}

		// Restore phase: checkpoint the settled store, churn past it, restart.
		meta, err := c.CheckpointNow()
		if err != nil {
			b.Fatal(err)
		}
		snapBytes += meta.Bytes
		churn()
		restore += restart()
		if master.Store().UnitsRestored() == 0 {
			b.Fatal("restore phase fell back to a full rebuild")
		}
	}
	b.StopTimer()

	// Apply interference: a paced DML stream (the paper's arrival model —
	// apply keeps up with OLTP arriving at a fixed rate, it does not saturate
	// the CPU) timed with one checkpoint in flight vs undisturbed. The COW
	// capture must not stall apply: the ratio shows whether commits queue up
	// behind the snapshot (they would under a stop-the-world capture).
	sync := func() time.Duration {
		tick := time.NewTicker(4 * time.Millisecond)
		defer tick.Stop()
		start := time.Now()
		sess := c.PrimarySession(0)
		for k := 0; k < 1000; k++ {
			<-tick.C
			tx, err := sess.Begin()
			if err != nil {
				b.Fatal(err)
			}
			id := rng.Int63n(rows)
			_ = tx.UpdateByID(tbl, id, []uint16{uint16(n1)}, func(r *dbimadg.Row) {
				r.Nums[s.Col(n1).Slot()] = rng.Int63n(workload.NumDomain)
			})
			if _, err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
		if !c.WaitStandbyCaughtUp(120 * time.Second) {
			b.Fatal("standby lagging during interference measurement")
		}
		return time.Since(start)
	}
	sync() // warm-up: steady-state journal/commit-table before comparing
	base := sync()
	ckptDone := make(chan error, 1)
	go func() {
		_, err := c.CheckpointNow()
		ckptDone <- err
	}()
	loaded := sync()
	if err := <-ckptDone; err != nil {
		b.Fatal(err)
	}

	b.ReportMetric(restore.Seconds()*1e3/float64(b.N), "restore-ms")
	b.ReportMetric(cold.Seconds()*1e3/float64(b.N), "coldrebuild-ms")
	b.ReportMetric(float64(snapBytes)/float64(b.N), "snapshot-bytes")
	b.ReportMetric(float64(loaded)/float64(base)*100, "apply-ckpt-ratio-pct")
}
