// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV). Each Run* function opens the public deployment
// (dbimadg.Open) at laptop scale, drives the paper's workload, and returns a
// typed result with a printable rendering of the same rows/series the paper
// reports. cmd/adgbench calls into this package, so the numbers in
// EXPERIMENTS.md are reproducible from it.
package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"dbimadg"
	"dbimadg/internal/imcs"
	"dbimadg/internal/obs"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
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

// shortPhase is the length of each timed loop of an experiment that runs
// several back to back: a quarter of Duration, at least 250 ms.
func (p Params) shortPhase() time.Duration { return max(p.Duration/4, 250*time.Millisecond) }

const (
	tenant    = rowstore.TenantID(1)
	tableName = "C101"
)

// open starts the deployment every experiment runs on: dbimadg.Open with small
// blocks and IMCUs, a 1 ms coordinator heartbeat and two population workers on
// a 2 ms tick per side, plus what cfg sets on top. It creates the wide table
// and, unless inmem is "", makes it INMEMORY on that service.
func open(p Params, cfg dbimadg.Config, inmem string) (*dbimadg.Cluster, *rowstore.Table, error) {
	cfg.RowsPerBlock, cfg.BlocksPerIMCU = 128, 16
	cfg.CheckpointInterval = time.Millisecond
	cfg.PopulationInterval = 2 * time.Millisecond
	c, err := dbimadg.Open(cfg)
	if err != nil {
		return nil, nil, err
	}
	tbl, err := c.CreateTable(workload.WideTableSpec(tableName, tenant))
	if err == nil && inmem != "" {
		err = c.AlterInMemory(tenant, tableName, "", rowstore.InMemoryAttr{Enabled: true, Service: inmem})
	}
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, tbl, nil
}

// load inserts n rows of FillRow data into tbl on the primary, then waits
// until the standby has applied them and population has settled.
func load(c *dbimadg.Cluster, tbl *rowstore.Table, n int, seed int64) error {
	if err := (&workload.Driver{Pri: c.Primary(), Table: tbl, Seed: seed}).Load(n); err != nil {
		return err
	}
	return ready(c)
}

// ready waits for the standby to reach the primary's current SCN and for
// population to settle on every side.
func ready(c *dbimadg.Cluster) error {
	if !c.WaitStandbyCaughtUp(60 * time.Second) {
		return fmt.Errorf("experiments: standby lagging (QuerySCN=%d, want %d)",
			c.StandbyMaster().QuerySCN(), c.Primary().Snapshot())
	}
	if !c.WaitPopulated(120 * time.Second) {
		return fmt.Errorf("experiments: population did not settle")
	}
	return nil
}

// emit hands the standby master's telemetry snapshot to the SnapshotSink and
// its recorded query profiles to the QueryLogSink, where configured.
func (p Params) emit(c *dbimadg.Cluster, phase string) {
	if p.SnapshotSink != nil {
		p.SnapshotSink(phase, c.Observability().Snapshot())
	}
	if p.QueryLogSink != nil {
		p.QueryLogSink(phase, c.QueryLog().Recent(0))
	}
}

// phase is one measured run of the paper's workload (Figs. 9-10, Table 2, the
// CPU shift) on a deployment of its own.
type phase struct {
	name    string // the sinks' phase name
	inmem   string // the wide table's INMEMORY service; "" = none
	mix     workload.Mix
	standby bool // scans on the standby, not the primary
	imcs    bool // scans through the column store, not the row store alone
}

// run opens a deployment, loads p.Rows rows, waits for catch-up and
// population, settles, and drives ph.mix for p.Duration. The mix's scan share
// moves to a dedicated closed-loop scan thread (ScanRate), keeping the DML
// throughput stable while scans are measured — the paper's "dedicated
// threads" configuration.
func (p Params) run(ph phase) (*workload.Report, *workload.Driver, error) {
	c, tbl, err := open(p, dbimadg.Config{}, ph.inmem)
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()
	mix := ph.mix
	mix.FetchPct += mix.ScanPct
	mix.ScanPct = 0
	drv := &workload.Driver{
		Pri:          c.Primary(),
		Table:        tbl,
		Mix:          mix,
		TargetOps:    p.TargetOps,
		Threads:      p.Threads,
		Seed:         p.Seed,
		ScanParallel: p.ScanParallel,
		ScanRate:     p.ScanRate,
	}
	if err := drv.Load(p.Rows); err != nil {
		return nil, nil, err
	}
	if err := ready(c); err != nil {
		return nil, nil, err
	}
	var stores []*imcs.Store
	if ph.standby {
		sby := c.StandbyMaster()
		if drv.ScanTable, err = c.StandbyTable(tenant, tableName); err != nil {
			return nil, nil, err
		}
		if ph.imcs {
			stores = append(stores, sby.Store())
		}
		drv.ScanSnap = sby.QuerySCN
		drv.ScanExec = scanengine.NewExecutor(sby.Txns(), stores...)
		drv.ScanExec.Obs = sby.ScanStats()
		if p.QueryLogSink != nil {
			drv.ScanExec.Profiles = sby.RecordQuery
		}
	} else {
		pri := c.Primary()
		if ph.imcs {
			stores = append(stores, c.PrimaryStore())
		}
		drv.ScanTable, drv.ScanSnap = tbl, pri.Snapshot
		drv.ScanExec = scanengine.NewExecutor(pri.Txns(), stores...)
	}
	settle()
	rep, err := drv.Run(p.Duration)
	if err != nil {
		return nil, nil, err
	}
	// Keep version chains bounded, as a production deployment would.
	c.Primary().Vacuum(c.StandbyMaster().QuerySCN())
	p.emit(c, ph.name)
	return rep, drv, nil
}

// sample runs op back to back for d and returns its latency distribution.
func sample(d time.Duration, op func() error) (obs.HistogramSnapshot, error) {
	h := obs.NewHistogram(obs.LatencyBuckets)
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		start := time.Now()
		if err := op(); err != nil {
			return obs.HistogramSnapshot{}, err
		}
		h.ObserveDuration(time.Since(start))
	}
	return h.Snapshot(), nil
}

// settle runs a full GC and lets background work (population, floating
// garbage from the bulk load) quiesce before a measured phase begins, so the
// measurements capture steady state rather than post-load cleanup.
func settle() {
	runtime.GC()
	time.Sleep(300 * time.Millisecond)
	runtime.GC()
}

// median is the summary statistic the figures' headlines compare.
func median(s obs.HistogramSnapshot) float64 { return s.Quantile(0.5) }

// stats are the median/average/95th-percentile rows the paper reports.
var stats = []struct {
	name string
	of   func(obs.HistogramSnapshot) float64
}{
	{"median", median},
	{"average", obs.HistogramSnapshot.Mean},
	{"p95", func(s obs.HistogramSnapshot) float64 { return s.Quantile(0.95) }},
}

// fmtSec renders seconds at µs precision like the paper's ms tables.
func fmtSec(s float64) string { return fmt.Sprintf("%.3fms", s*1e3) }

// speedupRow renders one with/without comparison row.
func speedupRow(name string, without, with float64) []string {
	return []string{name, fmtSec(without), fmtSec(with), fmt.Sprintf("%.1fx", without/with)}
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
