// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV). Each Run* function builds the deployment the experiment
// needs, drives the paper's workload at scaled-down size, and returns a typed
// result with a printable rendering of the same rows/series the paper
// reports. cmd/adgbench and the repository's benchmarks both call into this
// package, so the numbers in EXPERIMENTS.md are reproducible from either.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"dbimadg/internal/imcs"
	"dbimadg/internal/metrics"
	"dbimadg/internal/obs"
	"dbimadg/internal/primary"
	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
	"dbimadg/internal/service"
	"dbimadg/internal/standby"
	"dbimadg/internal/transport"
	"dbimadg/internal/txn"
	"dbimadg/internal/workload"
)

// Params scales an experiment. The paper runs 6M rows at 4000 ops/s for an
// hour on Exadata; defaults here reproduce the shapes at laptop scale.
type Params struct {
	// Rows is the initial wide-table size (paper: 6,000,000).
	Rows int
	// Duration is the measured workload phase length (paper: 1 hour).
	Duration time.Duration
	// TargetOps is the paced DML throughput (paper: 4000 on 6M rows). When
	// zero it scales with Rows to keep the churn-to-capacity ratio of the
	// paper's setup, so invalidation pressure per scan is comparable.
	TargetOps int
	// ScanRate is the dedicated scan thread's pace in scans/second (closed
	// loop; the paper's "dedicated threads" variant). Zero scales a default.
	ScanRate float64
	// Threads is the driver thread count.
	Threads int
	// ApplyWorkers is the standby recovery parallelism.
	ApplyWorkers int
	// ScanParallel is the scan engine's intra-query parallelism.
	ScanParallel int
	// Seed makes runs reproducible.
	Seed int64
	// FleetSessions sizes the fleet overload experiment's concurrent
	// scan-session pool (0 = 10,000, the acceptance scale). Other experiments
	// ignore it.
	FleetSessions int
	// SnapshotSink, when set, receives the standby telemetry registry
	// snapshot at the end of each measured phase (the phase name identifies
	// which side of a with/without comparison produced it). cmd/adgbench uses
	// it to print end-of-run pipeline counters next to the figure tables.
	SnapshotSink func(phase string, snap obs.Snapshot)
	// QueryLogSink, when set, receives the standby master's recorded query
	// profiles at the end of each measured phase (newest first). Standby
	// scans run profiled when it is set, so cmd/adgbench -telemetry can print
	// per-query EXPLAIN ANALYZE summaries.
	QueryLogSink func(phase string, recs []obs.QueryRecord)
}

// WithDefaults fills zero fields with bench-scale defaults.
func (p Params) WithDefaults() Params {
	if p.Rows <= 0 {
		p.Rows = 60000
	}
	if p.Duration <= 0 {
		p.Duration = 3 * time.Second
	}
	if p.TargetOps <= 0 {
		// Paper churn: 4000 ops/s on 6M rows; keep ops/row constant.
		p.TargetOps = p.Rows * 4000 / 6_000_000
		if p.TargetOps < 50 {
			p.TargetOps = 50
		}
		if p.TargetOps > 4000 {
			p.TargetOps = 4000
		}
	}
	if p.ScanRate <= 0 {
		p.ScanRate = 15
	}
	if p.Threads <= 0 {
		p.Threads = 4
		if runtime.NumCPU() < 4 {
			p.Threads = 2
		}
	}
	if p.ApplyWorkers <= 0 {
		p.ApplyWorkers = 4
	}
	if p.ScanParallel <= 0 {
		// Intra-query parallelism only helps with spare cores; on small
		// machines it just adds scheduling noise to the latency tails.
		p.ScanParallel = runtime.GOMAXPROCS(0)
		if p.ScanParallel > 8 {
			p.ScanParallel = 8
		}
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// deployment is the wiring every experiment shares.
type deployment struct {
	pri *primary.Cluster
	sby *standby.Instance
	tbl *rowstore.Table

	priStore *imcs.Store
	priEng   *imcs.Engine
}

const (
	rowsPerBlock  = 128
	blocksPerIMCU = 16
	tenant        = rowstore.TenantID(1)
	tableName     = "C101"
)

// openDeployment builds primary (nPri instances) + standby and the wide table;
// inmemService routes INMEMORY population ("" = no DBIM). tune callbacks, if
// any, adjust the standby config before the standby is built (e.g. the
// checkpoint experiment pointing SnapshotDir at a temp dir).
func openDeployment(p Params, nPri int, inmemService string, tune ...func(*standby.Config)) (*deployment, error) {
	d := &deployment{}
	d.pri = primary.NewCluster(nPri, rowsPerBlock)
	d.priStore = imcs.NewStore()
	d.priEng = imcs.NewEngine(d.priStore, d.pri.Txns(), priSnap{d.pri}, func() []imcs.Target {
		return imcs.Targets(d.pri.DB(), d.pri.Services(), service.RolePrimary)
	}, imcs.Config{BlocksPerIMCU: blocksPerIMCU, Workers: 2, Interval: 2 * time.Millisecond})
	d.pri.SetDBIMHook(priHook{d.priStore})
	d.priEng.Start()

	sbyCfg := standby.Config{
		ApplyWorkers:       p.ApplyWorkers,
		CheckpointInterval: time.Millisecond,
		RowsPerBlock:       rowsPerBlock,
		BlocksPerIMCU:      blocksPerIMCU,
		PopulationWorkers:  2,
		PopulationInterval: 2 * time.Millisecond,
	}
	for _, fn := range tune {
		fn(&sbyCfg)
	}
	d.sby = standby.New(sbyCfg)
	var streams []*redo.Stream
	for _, inst := range d.pri.Instances() {
		streams = append(streams, inst.Stream())
	}
	d.sby.Attach(transport.NewInProc(streams...))
	d.sby.Start()
	if nPri > 1 {
		d.pri.StartHeartbeats(time.Millisecond)
	}

	tbl, err := d.pri.Instance(0).CreateTable(workload.WideTableSpec(tableName, tenant))
	if err != nil {
		d.close()
		return nil, err
	}
	d.tbl = tbl
	if inmemService != "" {
		if err := d.pri.Instance(0).AlterInMemory(tenant, tableName, "", rowstore.InMemoryAttr{Enabled: true, Service: inmemService}); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (d *deployment) close() {
	d.pri.Close()
	d.sby.Stop()
	d.priEng.Stop()
}

// catchUp waits for the standby to reach the primary's current SCN.
func (d *deployment) catchUp(timeout time.Duration) error {
	if !d.sby.WaitForSCN(d.pri.Snapshot(), timeout) {
		return fmt.Errorf("experiments: standby lagging (QuerySCN=%d, want %d)",
			d.sby.QuerySCN(), d.pri.Snapshot())
	}
	return nil
}

// waitPopulated waits for all population engines to settle.
func (d *deployment) waitPopulated(timeout time.Duration) error {
	if !d.priEng.WaitIdle(timeout) || !d.sby.Engine().WaitIdle(timeout) {
		return fmt.Errorf("experiments: population did not settle")
	}
	return nil
}

// emitSnapshot hands the standby master's telemetry snapshot to the
// experiment's SnapshotSink, if one is configured, and the recorded query
// profiles to QueryLogSink.
func (d *deployment) emitSnapshot(p Params, phase string) {
	if p.SnapshotSink != nil {
		p.SnapshotSink(phase, d.sby.Obs().Snapshot())
	}
	if p.QueryLogSink != nil {
		p.QueryLogSink(phase, d.sby.QueryLog().Recent(0))
	}
}

// sbyTable resolves the standby replica of the wide table.
func (d *deployment) sbyTable() (*rowstore.Table, error) {
	return d.sby.DB().Table(tenant, tableName)
}

type priSnap struct{ c *primary.Cluster }

func (s priSnap) CaptureSnapshot() scn.SCN { return s.c.Snapshot() }

type priHook struct{ store *imcs.Store }

func (h priHook) OnCommit(_ rowstore.TenantID, changes []txn.RowChange, _ scn.SCN) {
	for _, ch := range changes {
		h.store.InvalidateRows(ch.Obj, ch.DBA.Block(), []uint16{ch.Slot})
	}
}

// driver builds a workload driver with the scan side configured. The mix's
// scan share moves to a dedicated closed-loop scan thread (ScanRate), keeping
// the DML throughput stable while scans are measured — the paper's
// "dedicated threads" configuration.
func (d *deployment) driver(p Params, mix workload.Mix, scanOnStandby, useIMCS bool) (*workload.Driver, error) {
	mix.FetchPct += mix.ScanPct
	mix.ScanPct = 0
	drv := &workload.Driver{
		Pri:          d.pri,
		Table:        d.tbl,
		Mix:          mix,
		TargetOps:    p.TargetOps,
		Threads:      p.Threads,
		Seed:         p.Seed,
		ScanParallel: p.ScanParallel,
		ScanRate:     p.ScanRate,
	}
	if scanOnStandby {
		sTbl, err := d.sbyTable()
		if err != nil {
			return nil, err
		}
		drv.ScanTable = sTbl
		drv.ScanSnap = func() scn.SCN { return d.sby.QuerySCN() }
		if useIMCS {
			drv.ScanExec = scanengine.NewExecutor(d.sby.Txns(), d.sby.Store())
		} else {
			drv.ScanExec = scanengine.NewExecutor(d.sby.Txns())
		}
		drv.ScanExec.Obs = d.sby.ScanStats()
		if p.QueryLogSink != nil {
			drv.ScanExec.Profiles = d.sby.RecordQuery
		}
	} else {
		drv.ScanTable = d.tbl
		drv.ScanSnap = d.pri.Snapshot
		if useIMCS {
			drv.ScanExec = scanengine.NewExecutor(d.pri.Txns(), d.priStore)
		} else {
			drv.ScanExec = scanengine.NewExecutor(d.pri.Txns())
		}
	}
	return drv, nil
}

// settle runs a full GC and lets background work (population, floating
// garbage from the bulk load) quiesce before a measured phase begins, so the
// measurements capture steady state rather than post-load cleanup.
func settle() {
	runtime.GC()
	time.Sleep(300 * time.Millisecond)
	runtime.GC()
}

// fmtDur renders durations at µs precision like the paper's ms tables.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}

// table renders an aligned two-dimensional text table.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], cell)
		}
		b.WriteByte('\n')
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// speedupRow renders one with/without comparison row.
func speedupRow(name string, without, with metrics.LatencySummary, pick func(metrics.LatencySummary) time.Duration) []string {
	w, h := pick(without), pick(with)
	return []string{name, fmtDur(w), fmtDur(h), fmt.Sprintf("%.1fx", metrics.Speedup(w, h))}
}
