package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dbimadg/internal/metrics"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
	"dbimadg/internal/service"
	"dbimadg/internal/workload"
)

// Fig11Result reproduces Fig. 11: redo log advancement on a two-instance
// primary RAC versus redo apply progress on a DBIM-enabled standby, under a
// high-throughput multi-tenant transaction mix of short, medium and long
// transactions. The paper's claim: apply keeps up and the standby lag stays
// minimal despite the DBIM-on-ADG overheads.
type Fig11Result struct {
	// PriLog[i] tracks primary instance i's generated redo (last SCN).
	PriLog []*metrics.Series
	// StdApplied tracks the standby's applied watermark; StdQuery the
	// published QuerySCN.
	StdApplied *metrics.Series
	StdQuery   *metrics.Series

	// MaxLagSCN / FinalLagSCN quantify (generated - applied) in SCNs.
	MaxLagSCN   uint64
	FinalLagSCN uint64
	// CatchupTime is how long after the workload stopped the standby needed
	// to reach the primary's final SCN ("log catchup is almost
	// instantaneous").
	CatchupTime time.Duration
	// TxnsCommitted and CVsApplied size the run.
	TxnsCommitted int64
	CVsApplied    int64
	MinedRecords  int64
	Flushed       int64
}

// RunFig11 runs the redo-apply experiment.
func RunFig11(p Params) (*Fig11Result, error) {
	p = p.WithDefaults()
	d, err := openDeployment(p, 2, service.StandbyOnly)
	if err != nil {
		return nil, err
	}
	defer d.close()

	// Second tenant with its own table (the paper runs Oracle multi-tenant).
	spec2 := workload.WideTableSpec("C101_T2", 2)
	tbl2, err := d.pri.Instance(0).CreateTable(spec2)
	if err != nil {
		return nil, err
	}
	if err := d.pri.Instance(0).AlterInMemory(2, "C101_T2", "", rowstore.InMemoryAttr{Enabled: true, Service: service.StandbyOnly}); err != nil {
		return nil, err
	}

	// Seed both tables.
	seedRows := p.Rows / 10
	if seedRows < 1000 {
		seedRows = 1000
	}
	rng := rand.New(rand.NewSource(p.Seed))
	for _, tbl := range []*rowstore.Table{d.tbl, tbl2} {
		tx := d.pri.Instance(0).Begin()
		for i := 0; i < seedRows; i++ {
			if _, err := tx.Insert(tbl, workload.FillRow(tbl.Schema(), int64(i), rng)); err != nil {
				return nil, err
			}
		}
		if _, err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	if err := d.catchUp(60 * time.Second); err != nil {
		return nil, err
	}

	res := &Fig11Result{
		StdApplied: metrics.NewSeries("std_applied"),
		StdQuery:   metrics.NewSeries("std_queryscn"),
	}
	for i := range d.pri.Instances() {
		res.PriLog = append(res.PriLog, metrics.NewSeries(fmt.Sprintf("pri_log%d", i+1)))
	}

	// Sampler goroutine.
	stopSample := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	var maxLag uint64
	go func() {
		defer samplerWG.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopSample:
				return
			case <-t.C:
				var top scn.SCN
				for i, inst := range d.pri.Instances() {
					last := inst.Stream().LastSCN()
					res.PriLog[i].Sample(float64(last))
					if last > top {
						top = last
					}
				}
				st := d.sby.Stats()
				res.StdApplied.Sample(float64(st.AppliedWatermark))
				res.StdQuery.Sample(float64(st.QuerySCN))
				if top > st.AppliedWatermark {
					if lag := uint64(top - st.AppliedWatermark); lag > maxLag {
						maxLag = lag
					}
				}
			}
		}
	}()

	// High-throughput transaction mix: short (1 op), medium (10), long (100)
	// transactions spread over both tenants and both primary instances.
	var (
		committed  int64
		commitsMu  sync.Mutex
		loadWG     sync.WaitGroup
		deadline   = time.Now().Add(p.Duration)
		nextIDBase = int64(seedRows)
	)
	tables := []*rowstore.Table{d.tbl, tbl2}
	for th := 0; th < p.Threads; th++ {
		loadWG.Add(1)
		go func(th int) {
			defer loadWG.Done()
			rng := rand.New(rand.NewSource(p.Seed + int64(th)*131))
			inst := d.pri.Instance(th % 2)
			local := int64(0)
			// Pace each thread so the apply side is driven hard but the run
			// stays reproducible on small machines.
			interval := time.Duration(int64(time.Second) * int64(p.Threads) / int64(p.TargetOps))
			next := time.Now()
			for time.Now().Before(deadline) {
				size := 1
				switch rng.Intn(10) {
				case 0:
					size = 100 // long
				case 1, 2:
					size = 10 // medium
				}
				tbl := tables[rng.Intn(len(tables))]
				schema := tbl.Schema()
				tx := inst.Begin()
				failed := false
				for op := 0; op < size; op++ {
					if rng.Intn(2) == 0 {
						id := nextIDBase + int64(th)*1_000_000 + local
						local++
						if _, err := tx.Insert(tbl, workload.FillRow(schema, id, rng)); err != nil {
							failed = true
							break
						}
					} else {
						id := rng.Int63n(int64(seedRows))
						err := tx.UpdateByID(tbl, id, []uint16{1}, func(r *rowstore.Row) {
							r.Nums[schema.Col(1).Slot()] = rng.Int63n(workload.NumDomain)
						})
						if err == rowstore.ErrRowLocked {
							continue // hot row: skip the op, keep the txn
						} else if err != nil {
							failed = true
							break
						}
					}
					next = next.Add(interval)
					if wait := time.Until(next); wait > 0 {
						time.Sleep(wait)
					}
				}
				if failed {
					_ = tx.Abort()
					continue
				}
				if _, err := tx.Commit(); err == nil {
					commitsMu.Lock()
					committed++
					commitsMu.Unlock()
				}
			}
		}(th)
	}
	loadWG.Wait()

	// Catch-up phase: how fast does the standby reach the primary's head?
	target := d.pri.Snapshot()
	catchStart := time.Now()
	if !d.sby.WaitForSCN(target, 120*time.Second) {
		close(stopSample)
		samplerWG.Wait()
		return nil, fmt.Errorf("experiments: standby never caught up (lag %d SCNs)", uint64(target-d.sby.QuerySCN()))
	}
	res.CatchupTime = time.Since(catchStart)
	close(stopSample)
	samplerWG.Wait()

	st := d.sby.Stats()
	res.MaxLagSCN = maxLag
	if target > st.AppliedWatermark {
		res.FinalLagSCN = uint64(target - st.AppliedWatermark)
	}
	res.TxnsCommitted = committed
	res.CVsApplied = st.CVsApplied
	res.MinedRecords = st.MinedRecords
	res.Flushed = st.FlushedRecords
	d.emitSnapshot(p, "redo apply")
	return res, nil
}

// String renders the log-advancement series (downsampled) plus the summary.
func (r *Fig11Result) String() string {
	header := []string{"t"}
	var cols [][]metrics.Point
	for _, s := range r.PriLog {
		header = append(header, s.Name)
		cols = append(cols, s.Points())
	}
	header = append(header, r.StdApplied.Name, r.StdQuery.Name)
	cols = append(cols, r.StdApplied.Points(), r.StdQuery.Points())

	n := 0
	for _, c := range cols {
		if len(c) > n {
			n = len(c)
		}
	}
	step := 1
	if n > 16 {
		step = n / 16
	}
	var rows [][]string
	for i := 0; i < n; i += step {
		row := make([]string, 0, len(header))
		t := time.Duration(0)
		if i < len(cols[0]) {
			t = cols[0][i].Elapsed
		}
		row = append(row, fmt.Sprintf("%.2fs", t.Seconds()))
		for _, c := range cols {
			if i < len(c) {
				row = append(row, fmt.Sprintf("%.0f", c[i].Value))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	out := "Fig 11 — log advancement (SCN) on primary RAC instances vs standby apply\n"
	out += table(header, rows)
	out += fmt.Sprintf("txns=%d cvsApplied=%d mined=%d flushed=%d\n",
		r.TxnsCommitted, r.CVsApplied, r.MinedRecords, r.Flushed)
	out += fmt.Sprintf("max lag %d SCNs during run; catch-up after stop: %v (paper: \"almost instantaneous\")\n",
		r.MaxLagSCN, r.CatchupTime.Round(time.Millisecond))
	return out
}
