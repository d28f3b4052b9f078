// Benchmarks regenerating the paper's evaluation (§IV), one per table and
// figure, plus ablations of the DBIM-on-ADG design choices called out in
// DESIGN.md. The adgbench command runs the full closed-loop experiments with
// live OLTP; these benchmarks isolate the steady-state costs so `go test
// -bench` gives stable, comparable numbers.
package dbimadg_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"dbimadg"
	"dbimadg/internal/core"
	"dbimadg/internal/experiments"
	"dbimadg/internal/imcs"
	"dbimadg/internal/obs"
	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
	"dbimadg/internal/transport"
	"dbimadg/internal/workload"
)

// benchRows sizes the benchmark fixtures (the paper uses 6M; this keeps
// go test -bench runs minutes, not hours — ratios are what matter).
const benchRows = 40000

// fixture is a deployed cluster with the wide table loaded and synced.
type fixture struct {
	c    *dbimadg.Cluster
	tbl  *dbimadg.Table
	sTbl *dbimadg.Table
}

var (
	fixtures   = map[string]*fixture{}
	fixtureMu  sync.Mutex
	fixtureRNG = rand.New(rand.NewSource(42))
)

// getFixture builds (once per config) a deployment with the wide table
// loaded. service selects IMCS placement ("" = no DBIM). churn applies a
// burst of updates after population so scans pay the SMU-reconcile cost, and
// tail additionally inserts rows after population (the Fig. 10 edge effect).
func getFixture(b *testing.B, key, service string, churn, tail bool) *fixture {
	b.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if f, ok := fixtures[key]; ok {
		return f
	}
	c, err := dbimadg.Open(dbimadg.Config{
		CheckpointInterval: time.Millisecond,
		PopulationInterval: 2 * time.Millisecond,
		BlocksPerIMCU:      16,
	})
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.WideTableSpec("C101", 1)
	tbl, err := c.Primary().Instance(0).CreateTable(spec)
	if err != nil {
		b.Fatal(err)
	}
	if service != "" {
		if err := c.AlterInMemory(1, "C101", "", dbimadg.InMemoryAttr{Enabled: true, Service: service}); err != nil {
			b.Fatal(err)
		}
	}
	loadRows(b, c, tbl, 0, benchRows)
	if !c.WaitStandbyCaughtUp(120 * time.Second) {
		b.Fatal("standby lagging during fixture build")
	}
	if service != "" && !c.WaitPopulated(120*time.Second) {
		b.Fatal("population did not settle")
	}
	if churn {
		// Update 2% of rows (n1 and c1), then let invalidations flush.
		sess := c.PrimarySession(0)
		s := tbl.Schema()
		n1, c1 := s.ColIndex("n1"), s.ColIndex("c1")
		tx, _ := sess.Begin()
		for k := 0; k < benchRows/50; k++ {
			id := fixtureRNG.Int63n(benchRows)
			_ = tx.UpdateByID(tbl, id, []uint16{uint16(n1)}, func(r *dbimadg.Row) {
				r.Nums[s.Col(n1).Slot()] = fixtureRNG.Int63n(workload.NumDomain)
			})
			id = fixtureRNG.Int63n(benchRows)
			_ = tx.UpdateByID(tbl, id, []uint16{uint16(c1)}, func(r *dbimadg.Row) {
				r.Strs[s.Col(c1).Slot()] = fmt.Sprintf("val_%04d", fixtureRNG.Int63n(workload.StrDomain))
			})
		}
		if _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		if !c.WaitStandbyCaughtUp(60 * time.Second) {
			b.Fatal("standby lagging after churn")
		}
	}
	if tail {
		// Insert 10% more rows after population: the edge-IMCU effect.
		loadRows(b, c, tbl, benchRows, benchRows+benchRows/10)
		if !c.WaitStandbyCaughtUp(60 * time.Second) {
			b.Fatal("standby lagging after tail inserts")
		}
	}
	sTbl, err := c.StandbyTable(1, "C101")
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{c: c, tbl: tbl, sTbl: sTbl}
	fixtures[key] = f
	return f
}

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

// runQ1 executes the paper's Q1 (SELECT * WHERE n1 = :v) b.N times.
func runQ1(b *testing.B, sess *dbimadg.Session, tbl *dbimadg.Table) {
	n1 := tbl.Schema().ColIndex("n1")
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.Query(&dbimadg.Query{
			Table:   tbl,
			Filters: []dbimadg.Filter{dbimadg.EqNum(n1, rng.Int63n(workload.NumDomain))},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// runQ2 executes Q2 (SELECT * WHERE c1 = :v) b.N times.
func runQ2(b *testing.B, sess *dbimadg.Session, tbl *dbimadg.Table) {
	c1 := tbl.Schema().ColIndex("c1")
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sess.Query(&dbimadg.Query{
			Table:   tbl,
			Filters: []dbimadg.Filter{dbimadg.EqStr(c1, fmt.Sprintf("val_%04d", rng.Int63n(workload.StrDomain)))},
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// --- Fig. 9: update-only workload, standby scans with vs without DBIM ------

func BenchmarkFig9_Q1_StandbyRowStore(b *testing.B) {
	f := getFixture(b, "nodbim-churn", "", true, false)
	runQ1(b, f.c.StandbySession(), f.sTbl)
}

func BenchmarkFig9_Q1_StandbyIMCS(b *testing.B) {
	f := getFixture(b, "standby-churn", dbimadg.ServiceStandbyOnly, true, false)
	runQ1(b, f.c.StandbySession(), f.sTbl)
}

func BenchmarkFig9_Q2_StandbyRowStore(b *testing.B) {
	f := getFixture(b, "nodbim-churn", "", true, false)
	runQ2(b, f.c.StandbySession(), f.sTbl)
}

func BenchmarkFig9_Q2_StandbyIMCS(b *testing.B) {
	f := getFixture(b, "standby-churn", dbimadg.ServiceStandbyOnly, true, false)
	runQ2(b, f.c.StandbySession(), f.sTbl)
}

// --- Fig. 10: update+insert workload (edge-IMCU tail rows) ------------------

func BenchmarkFig10_Q1_StandbyRowStore(b *testing.B) {
	f := getFixture(b, "nodbim-tail", "", true, true)
	runQ1(b, f.c.StandbySession(), f.sTbl)
}

func BenchmarkFig10_Q1_StandbyIMCS(b *testing.B) {
	f := getFixture(b, "standby-tail", dbimadg.ServiceStandbyOnly, true, true)
	runQ1(b, f.c.StandbySession(), f.sTbl)
}

func BenchmarkFig10_Q2_StandbyIMCS(b *testing.B) {
	f := getFixture(b, "standby-tail", dbimadg.ServiceStandbyOnly, true, true)
	runQ2(b, f.c.StandbySession(), f.sTbl)
}

// --- Table 2: scan-only workload, primary vs standby with DBIM both ---------

func BenchmarkTable2_Q1_Primary(b *testing.B) {
	f := getFixture(b, "both-clean", dbimadg.ServicePrimaryAndStandby, false, false)
	runQ1(b, f.c.PrimarySession(0), f.tbl)
}

func BenchmarkTable2_Q1_Standby(b *testing.B) {
	f := getFixture(b, "both-clean", dbimadg.ServicePrimaryAndStandby, false, false)
	runQ1(b, f.c.StandbySession(), f.sTbl)
}

// --- Fig. 11: redo apply throughput with DBIM-on-ADG enabled ----------------

// benchmarkRedoApply measures end-to-end replication of b.N update
// transactions (generate redo, ship, parallel apply, mine, flush, advance
// QuerySCN) with the given flush mode and watchdog interval (0 = default
// production interval, negative = background evaluation disabled).
func benchmarkRedoApply(b *testing.B, disableCoop bool, watchdog time.Duration) {
	c, err := dbimadg.Open(dbimadg.Config{
		CheckpointInterval: time.Millisecond,
		PopulationInterval: 2 * time.Millisecond,
		BlocksPerIMCU:      16,
		DisableCoopFlush:   disableCoop,
		WatchdogInterval:   watchdog,
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
	loadRows(b, c, tbl, 0, 4000)
	if !c.WaitStandbyCaughtUp(60*time.Second) || !c.WaitPopulated(60*time.Second) {
		b.Fatal("fixture sync failed")
	}
	sess := c.PrimarySession(0)
	s := tbl.Schema()
	n1 := s.ColIndex("n1")
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := sess.Begin()
		id := rng.Int63n(4000)
		if err := tx.UpdateByID(tbl, id, []uint16{uint16(n1)}, func(r *dbimadg.Row) {
			r.Nums[s.Col(n1).Slot()] = rng.Int63n(1000)
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	if !c.WaitStandbyCaughtUp(120 * time.Second) {
		b.Fatal("standby never caught up")
	}
	b.StopTimer()
	st := c.Stats()
	b.ReportMetric(float64(st.Standby.CVsApplied)/b.Elapsed().Seconds(), "cvs/s")
}

func BenchmarkFig11_RedoApplyWithDBIM(b *testing.B) {
	benchmarkRedoApply(b, false, 0)
}

// --- Liveness watchdog: heartbeat overhead on the apply hot path -------------

// BenchmarkWatchdog prices the liveness watchdog on the redo apply hot path:
// ApplyOn runs the full replication loop with the watchdog evaluating at its
// production interval, ApplyOff with the background evaluation disabled, and
// HeartbeatTick isolates the per-record cost of the obs.Progress heartbeat the
// apply workers tick unconditionally. benchjson derives the watchdog block
// (overhead_pct) from the On/Off pair; the budget is < 2%.
func BenchmarkWatchdog(b *testing.B) {
	b.Run("ApplyOn", func(b *testing.B) { benchmarkRedoApply(b, false, 0) })
	b.Run("ApplyOff", func(b *testing.B) { benchmarkRedoApply(b, false, -1) })
	b.Run("HeartbeatTick", func(b *testing.B) {
		var p obs.Progress
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				p.Tick()
			}
		})
		if p.Count() == 0 {
			b.Fatal("heartbeat never ticked")
		}
	})
}

// --- Ablations ---------------------------------------------------------------

// Serial (coordinator-only) flush vs cooperative flush (§III.D.2).
func BenchmarkAblationFlushSerial(b *testing.B) {
	benchmarkRedoApply(b, true, 0)
}

// Partitioned vs single-list IM-ADG Commit Table (§III.D.1).
func benchmarkCommitTable(b *testing.B, parts int) {
	ct := core.NewCommitTable(parts)
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(9))
		i := uint64(0)
		for pb.Next() {
			i++
			ct.Insert(&core.CommitNode{Txn: scn.TxnID(rng.Uint64()), CommitSCN: scn.SCN(i)})
			if i%1024 == 0 {
				ct.Chop(scn.SCN(i))
			}
		}
	})
}

func BenchmarkAblationCommitTable1Part(b *testing.B)  { benchmarkCommitTable(b, 1) }
func BenchmarkAblationCommitTable8Parts(b *testing.B) { benchmarkCommitTable(b, 8) }

// IM-ADG Journal: concurrent recovery workers mining records for overlapping
// transactions (per-worker anchor areas, §III.C).
func BenchmarkAblationJournalMining(b *testing.B) {
	const workers = 4
	j := core.NewJournal(0, workers)
	var w sync.Mutex
	next := 0
	b.RunParallel(func(pb *testing.PB) {
		w.Lock()
		me := next % workers
		next++
		w.Unlock()
		i := uint64(0)
		for pb.Next() {
			i++
			j.Add(me, scn.TxnID(i%512+1), 1, core.InvalRecord{Obj: 1, Blk: rowstore.BlockNo(i), Slot: uint16(i)})
		}
	})
}

// --- Role transitions: warm promotion vs cold IMCS rebuild -------------------

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

// --- Commit-to-visible freshness ---------------------------------------------

// BenchmarkFreshness measures the paper's headline freshness claim end to end:
// each iteration commits one transaction on the primary, waits until the
// standby's published QuerySCN covers it, and runs one standby query against
// the new snapshot. Every commit is traced (sample-every-1), so the tracer's
// summary decomposes commit-to-visible latency by pipeline stage; the
// reported c2v-*/qage-*/<stage>-* metrics feed benchjson's freshness block.
func BenchmarkFreshness(b *testing.B) {
	const rows = 4000
	c, err := dbimadg.Open(dbimadg.Config{
		CheckpointInterval:   time.Millisecond,
		PopulationInterval:   2 * time.Millisecond,
		BlocksPerIMCU:        16,
		FreshnessSampleEvery: 1,
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
	if !c.WaitStandbyCaughtUp(60*time.Second) || !c.WaitPopulated(60*time.Second) {
		b.Fatal("fixture sync failed")
	}
	sTbl, err := c.StandbyTable(1, "C101")
	if err != nil {
		b.Fatal(err)
	}
	pri := c.PrimarySession(0)
	sby := c.StandbySession()
	s := tbl.Schema()
	rng := rand.New(rand.NewSource(11))
	master := c.StandbyMaster()
	n1 := s.ColIndex("n1")

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := pri.Begin()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tx.Insert(tbl, workload.FillRow(s, rows+int64(i), rng)); err != nil {
			b.Fatal(err)
		}
		commitSCN, err := tx.Commit()
		if err != nil {
			b.Fatal(err)
		}
		if !master.WaitForSCN(commitSCN, 30*time.Second) {
			b.Fatalf("standby never published commit SCN %d", commitSCN)
		}
		if _, err := sby.Query(&dbimadg.Query{
			Table:   sTbl,
			Filters: []dbimadg.Filter{dbimadg.EqNum(n1, rng.Int63n(workload.NumDomain))},
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	sum := c.Freshness().Summary()
	b.ReportMetric(sum.CommitToVisible.P50*1e3, "c2v-p50-ms")
	b.ReportMetric(sum.CommitToVisible.P99*1e3, "c2v-p99-ms")
	b.ReportMetric(sum.QueryAge.P50*1e3, "qage-p50-ms")
	b.ReportMetric(sum.QueryAge.P99*1e3, "qage-p99-ms")
	for _, st := range sum.Stages {
		b.ReportMetric(st.P50*1e3, st.Stage+"-p50-ms")
		b.ReportMetric(st.P99*1e3, st.Stage+"-p99-ms")
	}
}

// --- Fleet overload: admission control under a 10k-session scan storm --------

// BenchmarkFleetOverload runs the reader-fleet admission-control experiment at
// acceptance scale: 10,000 concurrent scan sessions routed over a two-reader
// fleet while the primary's paced DML load replicates. The reported metrics
// feed benchjson's fleet block: bounded routing quantiles, ErrOverloaded
// shedding, and redo apply throughput under the storm vs the no-load baseline
// (budget: within 10%).
func BenchmarkFleetOverload(b *testing.B) {
	var acc experiments.FleetOverloadResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFleetOverload(experiments.Params{
			Rows:     20000,
			Duration: 2 * time.Second,
			Seed:     int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		acc.Placed += res.Placed
		acc.Shed += res.Shed
		acc.NoReader += res.NoReader
		acc.ScansRun += res.ScansRun
		acc.StormSeconds += res.StormSeconds
		acc.BaselineCVsPerSec += res.BaselineCVsPerSec
		acc.LoadedCVsPerSec += res.LoadedCVsPerSec
		// Quantiles don't sum; keep the worst iteration (the claim is a bound).
		if res.RouteP50Ms > acc.RouteP50Ms {
			acc.RouteP50Ms = res.RouteP50Ms
		}
		if res.RouteP99Ms > acc.RouteP99Ms {
			acc.RouteP99Ms = res.RouteP99Ms
		}
		acc.Sessions = res.Sessions
	}
	n := float64(b.N)
	b.ReportMetric(float64(acc.Sessions), "sessions")
	b.ReportMetric(acc.RouteP50Ms, "route-p50-ms")
	b.ReportMetric(acc.RouteP99Ms, "route-p99-ms")
	b.ReportMetric(float64(acc.Placed)/acc.StormSeconds, "placed/s")
	b.ReportMetric(float64(acc.Shed)/acc.StormSeconds, "shed/s")
	b.ReportMetric(acc.BaselineCVsPerSec/n, "apply-base-cvs/s")
	b.ReportMetric(acc.LoadedCVsPerSec/n, "apply-load-cvs/s")
	b.ReportMetric(acc.LoadedCVsPerSec/acc.BaselineCVsPerSec*100, "apply-ratio-pct")
	if acc.Shed == 0 {
		b.Fatal("acceptance: the 10k-session storm never shed with ErrOverloaded")
	}
}

// --- Micro-benchmarks of the substrates --------------------------------------

func BenchmarkMicroRedoCodecEncode(b *testing.B) {
	rec := benchRecord()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := redo.AppendRecord(nil, rec)
		_ = buf
	}
}

func BenchmarkMicroRedoCodecDecode(b *testing.B) {
	buf := redo.AppendRecord(nil, benchRecord())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := redo.DecodeRecord(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRecord() *redo.Record {
	row := rowstore.Row{Nums: make([]int64, 51), Strs: make([]string, 50)}
	for i := range row.Nums {
		row.Nums[i] = int64(i * 997)
	}
	for i := range row.Strs {
		row.Strs[i] = "val_0042"
	}
	return &redo.Record{SCN: 12345, Thread: 1, CVs: []redo.CV{{
		Kind: redo.CVUpdate, Txn: 7, Tenant: 1,
		DBA: rowstore.MakeDBA(3, 9), Slot: 17, Row: rowstore.Pack(row), ChangedCols: []uint16{1},
	}}}
}

func BenchmarkMicroColumnEncodeNums(b *testing.B) {
	vals := make([]int64, 8192)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	b.SetBytes(int64(len(vals) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = imcs.EncodeNums(vals)
	}
}

func BenchmarkMicroColumnDecodeNums(b *testing.B) {
	vals := make([]int64, 8192)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	col := imcs.EncodeNums(vals)
	dst := make([]int64, 1024)
	b.SetBytes(int64(len(dst) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.Decode(dst, (i*1024)%(len(vals)-1024))
	}
}

// --- GROUP BY: encoding-aware grouped aggregation ----------------------------

// getGroupByFixture builds a deployment with a table shaped for grouped
// aggregation: the group key g holds long runs of identical values (so the
// column encoder picks RLE and the grouped scan can fold whole runs without
// decoding), while v is a plain bit-packed value column. service routes IMCS
// placement ("" = row store only).
func getGroupByFixture(b *testing.B, key, service string) *fixture {
	b.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if f, ok := fixtures[key]; ok {
		return f
	}
	c, err := dbimadg.Open(dbimadg.Config{
		CheckpointInterval: time.Millisecond,
		PopulationInterval: 2 * time.Millisecond,
		BlocksPerIMCU:      16,
	})
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := c.Primary().Instance(0).CreateTable(&dbimadg.TableSpec{
		Name: "G101", Tenant: 1,
		Columns: []dbimadg.Column{
			{Name: "id", Kind: dbimadg.NumberKind},
			{Name: "g", Kind: dbimadg.NumberKind},
			{Name: "v", Kind: dbimadg.NumberKind},
		},
		IdentityCol: 0, PartitionCol: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if service != "" {
		if err := c.AlterInMemory(1, "G101", "", dbimadg.InMemoryAttr{Enabled: true, Service: service}); err != nil {
			b.Fatal(err)
		}
	}
	s := tbl.Schema()
	sess := c.PrimarySession(0)
	const batch = 512
	for lo := int64(0); lo < benchRows; lo += batch {
		tx, err := sess.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for id := lo; id < lo+batch && id < benchRows; id++ {
			r := dbimadg.NewRow(s)
			r.Nums[s.Col(0).Slot()] = id
			r.Nums[s.Col(1).Slot()] = id / 2000 // 20 groups in runs of 2000
			r.Nums[s.Col(2).Slot()] = id % 1000
			if _, err := tx.Insert(tbl, r); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	if !c.WaitStandbyCaughtUp(120 * time.Second) {
		b.Fatal("standby lagging during fixture build")
	}
	if service != "" && !c.WaitPopulated(120*time.Second) {
		b.Fatal("population did not settle")
	}
	sTbl, err := c.StandbyTable(1, "G101")
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{c: c, tbl: tbl, sTbl: sTbl}
	fixtures[key] = f
	return f
}

// BenchmarkGroupBy measures the batch operator pipeline's grouped and
// multi-aggregate paths. EncodedIMCS vs RowFallback is the encoding-aware
// payoff (run-level folds against a row-at-a-time row-store fallback);
// MultiAggSinglePass vs MultiAggTwoScans shows one scan computing several
// aggregates beating repeated scans.
func BenchmarkGroupBy(b *testing.B) {
	groupQuery := func(tbl *dbimadg.Table) *dbimadg.Query {
		s := tbl.Schema()
		g, v := s.ColIndex("g"), s.ColIndex("v")
		return &dbimadg.Query{
			Table: tbl,
			Aggs: []dbimadg.AggSpec{
				{Kind: dbimadg.AggCount},
				{Kind: dbimadg.AggSum, Col: v},
			},
			GroupBy: []int{g},
		}
	}
	runGrouped := func(b *testing.B, sess *dbimadg.Session, tbl *dbimadg.Table) {
		q := groupQuery(tbl)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sess.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Grouped.Groups) != 20 {
				b.Fatalf("groups: %d", len(res.Grouped.Groups))
			}
		}
	}
	b.Run("EncodedIMCS", func(b *testing.B) {
		f := getGroupByFixture(b, "groupby-imcs", dbimadg.ServiceStandbyOnly)
		runGrouped(b, f.c.StandbySession(), f.sTbl)
	})
	b.Run("RowFallback", func(b *testing.B) {
		f := getGroupByFixture(b, "groupby-nodbim", "")
		runGrouped(b, f.c.StandbySession(), f.sTbl)
	})
	// The two below group the wide table (clean column store, bit-packed
	// keys with no run structure): the code-indexed general path.
	runWide := func(b *testing.B, groups int, groupBy ...string) {
		f := getFixture(b, "standby-clean", dbimadg.ServiceStandbyOnly, false, false)
		sess := f.c.StandbySession()
		s := f.sTbl.Schema()
		q := &dbimadg.Query{
			Table: f.sTbl,
			Aggs: []dbimadg.AggSpec{
				{Kind: dbimadg.AggCount},
				{Kind: dbimadg.AggSum, Col: s.ColIndex("n1")},
			},
		}
		for _, name := range groupBy {
			q.GroupBy = append(q.GroupBy, s.ColIndex(name))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sess.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			if groups > 0 && len(res.Grouped.Groups) != groups {
				b.Fatalf("groups: %d", len(res.Grouped.Groups))
			}
		}
	}
	// The bench mix's GRP query: one dictionary key, 1 000 groups.
	b.Run("HighCardDict", func(b *testing.B) { runWide(b, workload.StrDomain, "c1") })
	// VARCHAR + NUMBER key: nearly every row its own group, so each IMCU's
	// code-range product exceeds the direct-index bound (map-indexed slab).
	b.Run("CompositeKey", func(b *testing.B) { runWide(b, 0, "c1", "n2") })
	b.Run("MultiAggSinglePass", func(b *testing.B) {
		f := getGroupByFixture(b, "groupby-imcs", dbimadg.ServiceStandbyOnly)
		sess := f.c.StandbySession()
		v := f.sTbl.Schema().ColIndex("v")
		q := &dbimadg.Query{
			Table: f.sTbl,
			Aggs: []dbimadg.AggSpec{
				{Kind: dbimadg.AggCount},
				{Kind: dbimadg.AggSum, Col: v},
				{Kind: dbimadg.AggMin, Col: v},
				{Kind: dbimadg.AggMax, Col: v},
			},
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MultiAggTwoScans", func(b *testing.B) {
		f := getGroupByFixture(b, "groupby-imcs", dbimadg.ServiceStandbyOnly)
		sess := f.c.StandbySession()
		v := f.sTbl.Schema().ColIndex("v")
		qSum := &dbimadg.Query{Table: f.sTbl, Agg: dbimadg.AggSum, AggCol: v}
		qMax := &dbimadg.Query{Table: f.sTbl, Agg: dbimadg.AggMax, AggCol: v}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Query(qSum); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Query(qMax); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMorselScaling measures the work-stealing scan scheduler's speedup
// with worker count: the same grouped aggregate as BenchmarkGroupBy over the
// same populated store, executed at Parallel 1/2/4/GOMAXPROCS. Each
// sub-benchmark reports workers (the requested parallelism), morsels/op (the
// scheduling granules per query) and steals/op (morsels that ran off their
// affinity-placed worker). Speedup only materializes with real cores:
// single-core hosts report ~1× by construction.
func BenchmarkMorselScaling(b *testing.B) {
	f := getGroupByFixture(b, "groupby-imcs", dbimadg.ServiceStandbyOnly)
	sess := f.c.StandbySession()
	s := f.sTbl.Schema()
	g, v := s.ColIndex("g"), s.ColIndex("v")
	run := func(b *testing.B, par int) {
		q := &dbimadg.Query{
			Table: f.sTbl,
			Aggs: []dbimadg.AggSpec{
				{Kind: dbimadg.AggCount},
				{Kind: dbimadg.AggSum, Col: v},
			},
			GroupBy:  []int{g},
			Parallel: par,
		}
		var morsels, steals int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sess.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Grouped.Groups) != 20 {
				b.Fatalf("groups: %d", len(res.Grouped.Groups))
			}
			morsels += res.Morsels
			steals += res.Steals
		}
		b.ReportMetric(float64(par), "workers")
		b.ReportMetric(float64(morsels)/float64(b.N), "morsels/op")
		b.ReportMetric(float64(steals)/float64(b.N), "steals/op")
	}
	b.Run("P1", func(b *testing.B) { run(b, 1) })
	b.Run("P2", func(b *testing.B) { run(b, 2) })
	b.Run("P4", func(b *testing.B) { run(b, 4) })
	b.Run("PMax", func(b *testing.B) { run(b, runtime.GOMAXPROCS(0)) })
}
