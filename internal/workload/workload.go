// Package workload implements the paper's synthetic OLTAP workload (§IV.A):
// a wide table with 101 columns (1 identity column, 50 number columns, 50
// varchar2 columns) with an index on the identity column, driven at a target
// ops/s with a tunable mix of inserts, updates, index fetches and ad-hoc
// full-table scans (queries Q1 and Q2 of Table 1).
package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dbimadg/internal/obs"
	"dbimadg/internal/primary"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
)

// Wide-table shape from §IV.A: "1 identity column, 50 number columns and 50
// varchar2 columns".
const (
	NumCols = 50
	StrCols = 50
)

// Value domains for generated data; Q1/Q2 filter literals are drawn from the
// same domains so scans are selective but non-empty.
const (
	NumDomain = 1000
	StrDomain = 1000
)

// WideTableSpec returns the paper's C101 test table definition.
func WideTableSpec(name string, tenant rowstore.TenantID) *rowstore.TableSpec {
	cols := make([]rowstore.Column, 0, 1+NumCols+StrCols)
	cols = append(cols, rowstore.Column{Name: "id", Kind: rowstore.KindNumber})
	for i := 1; i <= NumCols; i++ {
		cols = append(cols, rowstore.Column{Name: fmt.Sprintf("n%d", i), Kind: rowstore.KindNumber})
	}
	for i := 1; i <= StrCols; i++ {
		cols = append(cols, rowstore.Column{Name: fmt.Sprintf("c%d", i), Kind: rowstore.KindVarchar})
	}
	return &rowstore.TableSpec{
		Name:         name,
		Tenant:       tenant,
		Columns:      cols,
		IdentityCol:  0,
		PartitionCol: -1,
	}
}

// strVals interns the varchar domain so generated rows share string data
// (keeps the fixture heap small and GC cheap at benchmark scale).
var strVals = func() []string {
	out := make([]string, StrDomain)
	for k := range out {
		out[k] = fmt.Sprintf("val_%04d", k)
	}
	return out
}()

// strVal returns the k-th varchar domain value.
func strVal(k int64) string { return strVals[k] }

// FillRow generates the row image for identity id with pseudo-random column
// values drawn from the domains.
func FillRow(schema *rowstore.Schema, id int64, rng *rand.Rand) rowstore.Row {
	r := rowstore.NewRow(schema)
	r.Nums[0] = id // identity occupies number slot 0
	for s := 1; s < len(r.Nums); s++ {
		r.Nums[s] = rng.Int63n(NumDomain)
	}
	for s := range r.Strs {
		r.Strs[s] = strVal(rng.Int63n(StrDomain))
	}
	return r
}

// Mix is an operation mix in percent; the parts must sum to 100.
type Mix struct {
	InsertPct int
	UpdatePct int
	FetchPct  int
	ScanPct   int
}

// The paper's three workload configurations (§IV.A.1, §IV.A.2, §IV.B).
var (
	// UpdateOnly: "70% updates ... 29% fetch operations via the index" with
	// 1% scans.
	UpdateOnly = Mix{UpdatePct: 70, FetchPct: 29, ScanPct: 1}
	// UpdateInsert: "25% inserts, 40% updates ... the remaining operations
	// being index-based fetch", scans held at 1%.
	UpdateInsert = Mix{InsertPct: 25, UpdatePct: 40, FetchPct: 34, ScanPct: 1}
	// ScanOnly: "25% ad-hoc queries running full-table scans and 75% fetch
	// queries that access the index" — no DML.
	ScanOnly = Mix{FetchPct: 75, ScanPct: 25}
)

func (m Mix) total() int { return m.InsertPct + m.UpdatePct + m.FetchPct + m.ScanPct }

// Driver runs the OLTAP workload: DML against the primary, scans against a
// configurable side (primary or standby), paced to a target throughput.
type Driver struct {
	// Pri receives the DML and fetch operations (sessions round-robin over
	// its instances).
	Pri *primary.Cluster
	// Table is the wide table in the primary's catalog.
	Table *rowstore.Table
	// Mix is the operation mix.
	Mix Mix
	// TargetOps is the paced total throughput in operations/second
	// (the paper drives 4000 ops/s); 0 = unpaced.
	TargetOps int
	// Threads is the number of driver threads (default 4).
	Threads int
	// Seed makes runs reproducible.
	Seed int64

	// ScanExec executes the ad-hoc scans (Q1/Q2); ScanTable is the table in
	// the scan side's catalog (the standby's replica when offloading) and
	// ScanSnap provides the scan snapshot (primary snapshot or QuerySCN).
	ScanExec     *scanengine.Executor
	ScanTable    *rowstore.Table
	ScanSnap     func() scn.SCN
	ScanParallel int
	// ScanRate, when positive, issues scans from a dedicated thread in a
	// closed loop paced to at most ScanRate scans/second, independent of the
	// mix (the paper's "dedicated threads can instead be used to maintain
	// the throughput for DMLs", §IV.A). The mix's ScanPct should then be 0.
	ScanRate float64

	// Rows tracks the identity high-water mark; Load initializes it.
	rows atomic.Int64

	// q1 and q2 record scan response times (new on each Run).
	q1, q2 *obs.Histogram

	// dmlBusy and scanBusy accumulate busy nanoseconds by operation class,
	// for the CPU-shift experiment (§IV.A-B): DML and fetches burn primary
	// CPU; scans burn CPU wherever the scan side runs.
	dmlBusy  atomic.Int64
	scanBusy atomic.Int64
}

// DMLBusy returns the cumulative busy time of DML and fetch operations.
func (d *Driver) DMLBusy() time.Duration { return time.Duration(d.dmlBusy.Load()) }

// ScanBusy returns the cumulative busy time of scan operations.
func (d *Driver) ScanBusy() time.Duration { return time.Duration(d.scanBusy.Load()) }

// Report summarizes one workload run.
type Report struct {
	Duration    time.Duration
	Ops         int64
	Inserts     int64
	Updates     int64
	Fetches     int64
	Scans       int64
	AchievedOps float64
	Q1          obs.HistogramSnapshot
	Q2          obs.HistogramSnapshot
	// Retries counts DML retries due to row-lock conflicts.
	Retries int64
}

// Load bulk-inserts n rows (identities 0..n-1) in batches, the initial "6M
// rows" table build of §IV.A (scaled by the caller).
func (d *Driver) Load(n int) error {
	rng := rand.New(rand.NewSource(d.Seed + 1))
	schema := d.Table.Schema()
	const batch = 512
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		tx := d.Pri.Instance(0).Begin()
		for id := lo; id < hi; id++ {
			if _, err := tx.Insert(d.Table, FillRow(schema, int64(id), rng)); err != nil {
				_ = tx.Abort()
				return err
			}
		}
		if _, err := tx.Commit(); err != nil {
			return err
		}
	}
	d.rows.Store(int64(n))
	return nil
}

// SetLoaded records that n rows (identities 0..n-1) already exist.
func (d *Driver) SetLoaded(n int) { d.rows.Store(int64(n)) }

// Q1Query builds Table 1's Q1: SELECT * FROM t WHERE n1 = :v ("scan, filter a
// numeric column that may have been updated").
func (d *Driver) Q1Query(v int64) *scanengine.Query {
	return &scanengine.Query{
		Table:    d.ScanTable,
		Filters:  []scanengine.Filter{scanengine.EqNum(d.ScanTable.Schema().ColIndex("n1"), v)},
		Parallel: d.ScanParallel,
	}
}

// Q2Query builds Table 1's Q2: SELECT * FROM t WHERE c1 = :v ("scan, filter a
// varchar column that may have been updated").
func (d *Driver) Q2Query(v string) *scanengine.Query {
	return &scanengine.Query{
		Table:    d.ScanTable,
		Filters:  []scanengine.Filter{scanengine.EqStr(d.ScanTable.Schema().ColIndex("c1"), v)},
		Parallel: d.ScanParallel,
	}
}

// Run drives the workload for the given duration and returns the report.
func (d *Driver) Run(duration time.Duration) (*Report, error) {
	if d.Mix.total() != 100 {
		return nil, fmt.Errorf("workload: mix sums to %d, want 100", d.Mix.total())
	}
	threads := d.Threads
	if threads <= 0 {
		threads = 4
	}
	d.q1, d.q2 = obs.NewHistogram(obs.LatencyBuckets), obs.NewHistogram(obs.LatencyBuckets)
	var (
		wg      sync.WaitGroup
		ops     atomic.Int64
		inserts atomic.Int64
		updates atomic.Int64
		fetches atomic.Int64
		scans   atomic.Int64
		retries atomic.Int64
		errOnce sync.Mutex
		firstE  error
	)
	deadline := time.Now().Add(duration)
	var interval time.Duration
	if d.TargetOps > 0 {
		interval = time.Duration(int64(time.Second) * int64(threads) / int64(d.TargetOps))
	}
	start := time.Now()
	if d.ScanRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(d.Seed + 99991))
			minInterval := time.Duration(float64(time.Second) / d.ScanRate)
			q2turn := false
			for time.Now().Before(deadline) {
				opStart := time.Now()
				scans.Add(1)
				if err := d.doScan(rng, q2turn); err != nil {
					errOnce.Lock()
					if firstE == nil {
						firstE = err
					}
					errOnce.Unlock()
					return
				}
				q2turn = !q2turn
				d.scanBusy.Add(int64(time.Since(opStart)))
				ops.Add(1)
				if wait := minInterval - time.Since(opStart); wait > 0 {
					time.Sleep(wait)
				}
			}
		}()
	}
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(d.Seed + int64(th)*7919))
			inst := d.Pri.Instance(th % len(d.Pri.Instances()))
			next := time.Now()
			q2turn := false
			for time.Now().Before(deadline) {
				if interval > 0 {
					next = next.Add(interval)
					if wait := time.Until(next); wait > 0 {
						time.Sleep(wait)
					}
				}
				p := rng.Intn(100)
				var err error
				opStart := time.Now()
				switch {
				case p < d.Mix.InsertPct:
					inserts.Add(1)
					err = d.doInsert(inst, rng)
					d.dmlBusy.Add(int64(time.Since(opStart)))
				case p < d.Mix.InsertPct+d.Mix.UpdatePct:
					updates.Add(1)
					err = d.doUpdate(inst, rng, &retries)
					d.dmlBusy.Add(int64(time.Since(opStart)))
				case p < d.Mix.InsertPct+d.Mix.UpdatePct+d.Mix.FetchPct:
					fetches.Add(1)
					d.doFetch(rng)
					d.dmlBusy.Add(int64(time.Since(opStart)))
				default:
					scans.Add(1)
					err = d.doScan(rng, q2turn)
					q2turn = !q2turn
					d.scanBusy.Add(int64(time.Since(opStart)))
				}
				ops.Add(1)
				if err != nil {
					errOnce.Lock()
					if firstE == nil {
						firstE = err
					}
					errOnce.Unlock()
					return
				}
			}
		}(th)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstE != nil {
		return nil, firstE
	}
	return &Report{
		Duration:    elapsed,
		Ops:         ops.Load(),
		Inserts:     inserts.Load(),
		Updates:     updates.Load(),
		Fetches:     fetches.Load(),
		Scans:       scans.Load(),
		AchievedOps: float64(ops.Load()) / elapsed.Seconds(),
		Q1:          d.q1.Snapshot(),
		Q2:          d.q2.Snapshot(),
		Retries:     retries.Load(),
	}, nil
}

func (d *Driver) doInsert(inst *primary.Instance, rng *rand.Rand) error {
	id := d.rows.Add(1) - 1
	tx := inst.Begin()
	if _, err := tx.Insert(d.Table, FillRow(d.Table.Schema(), id, rng)); err != nil {
		_ = tx.Abort()
		return err
	}
	_, err := tx.Commit()
	return err
}

// doUpdate updates n1 or c1 of a random row — the columns Q1/Q2 filter on
// ("a numeric/varchar column that may have been updated", Table 1).
func (d *Driver) doUpdate(inst *primary.Instance, rng *rand.Rand, retriesCtr *atomic.Int64) error {
	n := d.rows.Load()
	if n == 0 {
		return nil
	}
	schema := d.Table.Schema()
	n1 := schema.ColIndex("n1")
	c1 := schema.ColIndex("c1")
	for attempt := 0; ; attempt++ {
		id := rng.Int63n(n)
		if _, ok := d.Table.Index().Get(id); !ok {
			return nil // another thread reserved id and has not inserted it yet; skip this op
		}
		tx := inst.Begin()
		var err error
		if rng.Intn(2) == 0 {
			v := rng.Int63n(NumDomain)
			err = tx.UpdateByID(d.Table, id, []uint16{uint16(n1)}, func(r *rowstore.Row) {
				r.Nums[schema.Col(n1).Slot()] = v
			})
		} else {
			v := strVal(rng.Int63n(StrDomain))
			err = tx.UpdateByID(d.Table, id, []uint16{uint16(c1)}, func(r *rowstore.Row) {
				r.Strs[schema.Col(c1).Slot()] = v
			})
		}
		if err == rowstore.ErrRowLocked {
			_ = tx.Abort()
			retriesCtr.Add(1)
			if attempt < 16 {
				continue
			}
			return nil // hot row; skip this op
		}
		if err != nil {
			_ = tx.Abort()
			return err
		}
		_, err = tx.Commit()
		return err
	}
}

// doFetch performs an index-based point read on the primary.
func (d *Driver) doFetch(rng *rand.Rand) {
	n := d.rows.Load()
	if n == 0 {
		return
	}
	id := rng.Int63n(n)
	rid, ok := d.Table.Index().Get(id)
	if !ok {
		return
	}
	seg, ok := d.Pri.DB().Segment(rid.DBA.Obj())
	if !ok {
		return
	}
	blk := seg.Block(rid.DBA.Block())
	if blk == nil {
		return
	}
	snap := d.Pri.Snapshot()
	_, _ = blk.ReadRow(rid.Slot, snap, d.Pri.Txns(), scn.InvalidTxn)
}

// doScan runs Q1 or Q2 through the configured scan side and records the
// response time.
func (d *Driver) doScan(rng *rand.Rand, q2 bool) error {
	if d.ScanExec == nil || d.ScanTable == nil || d.ScanSnap == nil {
		return fmt.Errorf("workload: scan op in mix but scan side not configured")
	}
	snap := d.ScanSnap()
	start := time.Now()
	var err error
	if q2 {
		_, err = d.ScanExec.Run(d.Q2Query(strVal(rng.Int63n(StrDomain))), snap)
		d.q2.ObserveDuration(time.Since(start))
	} else {
		_, err = d.ScanExec.Run(d.Q1Query(rng.Int63n(NumDomain)), snap)
		d.q1.ObserveDuration(time.Since(start))
	}
	return err
}
