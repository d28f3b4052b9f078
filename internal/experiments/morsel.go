package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dbimadg/internal/metrics"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/service"
	"dbimadg/internal/workload"
)

// MorselScalePoint is one worker count of the scan-scaling sweep.
type MorselScalePoint struct {
	Workers int
	Latency metrics.LatencySummary
	// Speedup is the serial median over this point's median.
	Speedup float64
	// MorselsPerScan / StealsPerScan average the scheduler's granule count
	// and off-affinity executions per query.
	MorselsPerScan float64
	StealsPerScan  float64
}

// MorselResult measures the morsel-driven work-stealing scan executor on the
// standby: the grouped-aggregate latency at increasing intra-query
// parallelism over one populated column store, then redo apply throughput
// with the paced DML load alone vs with a saturating parallel scan loop
// running beside it (acceptance: apply keeps >= 90% of its no-scan rate).
type MorselResult struct {
	MorselRows int
	Points     []MorselScalePoint

	// ApplyBaseCVs / ApplyScanCVs are redo apply throughput (CVs/s) over the
	// paced DML phase without and with the concurrent scan loop; ApplyRatio
	// is with/without.
	ApplyBaseCVs float64
	ApplyScanCVs float64
	ApplyRatio   float64
	// ScansDuringApply counts queries the interference loop completed.
	ScansDuringApply int64
}

// RunMorsel runs the scan-scaling and apply-interference experiment.
func RunMorsel(p Params) (*MorselResult, error) {
	p = p.WithDefaults()
	d, err := openDeployment(p, 1, service.StandbyOnly)
	if err != nil {
		return nil, err
	}
	defer d.close()
	d.pri.StartHeartbeats(time.Millisecond)

	rng := rand.New(rand.NewSource(p.Seed))
	const batch = 512
	for lo := 0; lo < p.Rows; lo += batch {
		tx := d.pri.Instance(0).Begin()
		for i := lo; i < lo+batch && i < p.Rows; i++ {
			if _, err := tx.Insert(d.tbl, workload.FillRow(d.tbl.Schema(), int64(i), rng)); err != nil {
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
	if err := d.waitPopulated(120 * time.Second); err != nil {
		return nil, err
	}
	sTbl, err := d.sbyTable()
	if err != nil {
		return nil, err
	}
	s := sTbl.Schema()
	groupCol := s.ColIndex("c1")
	sumCol := s.ColIndex("n1")
	mkQuery := func(par int) *scanengine.Query {
		return &scanengine.Query{
			Table: sTbl,
			Aggs: []scanengine.AggSpec{
				{Kind: scanengine.AggCount},
				{Kind: scanengine.AggSum, Col: sumCol},
			},
			GroupBy:  []int{groupCol},
			Parallel: par,
		}
	}
	ex := scanengine.NewExecutor(d.sby.Txns(), d.sby.Store())
	ex.Obs = d.sby.ScanStats()
	morselRows, _ := d.sby.ScanTuning()

	res := &MorselResult{MorselRows: morselRows}
	settle()
	phase := p.Duration / 4
	if phase < 250*time.Millisecond {
		phase = 250 * time.Millisecond
	}
	sweep := []int{1, 2, 4, p.ScanParallel}
	for _, w := range sweep {
		var samples []time.Duration
		var morsels, steals, scans int64
		deadline := time.Now().Add(phase)
		for time.Now().Before(deadline) {
			start := time.Now()
			r, err := ex.Run(mkQuery(w), d.sby.QuerySCN())
			if err != nil {
				return nil, fmt.Errorf("experiments: scaling scan at %d workers: %w", w, err)
			}
			samples = append(samples, time.Since(start))
			morsels += r.Morsels
			steals += r.Steals
			scans++
		}
		pt := MorselScalePoint{
			Workers:        w,
			Latency:        metrics.Summarize(samples),
			MorselsPerScan: float64(morsels) / float64(scans),
			StealsPerScan:  float64(steals) / float64(scans),
		}
		if base := res.Points; len(base) > 0 && pt.Latency.Median > 0 {
			pt.Speedup = metrics.Speedup(base[0].Latency.Median, pt.Latency.Median)
		} else {
			pt.Speedup = 1
		}
		res.Points = append(res.Points, pt)
	}

	// Interference: the paced DML load alone, then the same load with a
	// saturating parallel scan loop beside it. Identical pacing both phases,
	// so slower apply shows as a lower CV rate, not a longer phase.
	applyPhase := func(withScans bool) (float64, int64, error) {
		before := d.sby.Stats().CVsApplied
		start := time.Now()
		stop := make(chan struct{})
		var scans int64
		var scanWG sync.WaitGroup
		if withScans {
			scanWG.Add(1)
			go func() {
				defer scanWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := ex.Run(mkQuery(p.ScanParallel), d.sby.QuerySCN()); err != nil {
						return
					}
					atomic.AddInt64(&scans, 1)
				}
			}()
		}
		var wg sync.WaitGroup
		deadline := start.Add(p.Duration)
		for th := 0; th < p.Threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(p.Seed + int64(th)*131))
				schema := d.tbl.Schema()
				interval := time.Duration(int64(time.Second) * int64(p.Threads) / int64(p.TargetOps))
				next := time.Now()
				for time.Now().Before(deadline) {
					tx := d.pri.Instance(0).Begin()
					id := r.Int63n(int64(p.Rows))
					err := tx.UpdateByID(d.tbl, id, []uint16{1}, func(row *rowstore.Row) {
						row.Nums[schema.Col(1).Slot()] = r.Int63n(workload.NumDomain)
					})
					if err != nil {
						_ = tx.Abort()
					} else if _, err := tx.Commit(); err != nil {
						_ = tx.Abort()
					}
					next = next.Add(interval)
					if wait := time.Until(next); wait > 0 {
						time.Sleep(wait)
					}
				}
			}(th)
		}
		wg.Wait()
		close(stop)
		scanWG.Wait()
		if err := d.catchUp(120 * time.Second); err != nil {
			return 0, 0, err
		}
		elapsed := time.Since(start)
		after := d.sby.Stats().CVsApplied
		return float64(after-before) / elapsed.Seconds(), atomic.LoadInt64(&scans), nil
	}

	settle()
	if res.ApplyBaseCVs, _, err = applyPhase(false); err != nil {
		return nil, fmt.Errorf("experiments: baseline apply phase: %w", err)
	}
	settle()
	if res.ApplyScanCVs, res.ScansDuringApply, err = applyPhase(true); err != nil {
		return nil, fmt.Errorf("experiments: apply-under-scan phase: %w", err)
	}
	if res.ApplyBaseCVs > 0 {
		res.ApplyRatio = res.ApplyScanCVs / res.ApplyBaseCVs
	}
	d.emitSnapshot(p, "morsel scaling")
	return res, nil
}

// String renders the scaling sweep and the interference comparison.
func (r *MorselResult) String() string {
	var rows [][]string
	for _, pt := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", pt.Workers),
			fmtDur(pt.Latency.Median),
			fmtDur(pt.Latency.P95),
			fmt.Sprintf("%.2fx", pt.Speedup),
			fmt.Sprintf("%.1f", pt.MorselsPerScan),
			fmt.Sprintf("%.1f", pt.StealsPerScan),
		})
	}
	out := fmt.Sprintf("Morsel-parallel GROUP BY scaling (morsel granule %d rows)\n", r.MorselRows)
	out += table([]string{"workers", "median", "p95", "speedup", "morsels/scan", "steals/scan"}, rows)
	out += fmt.Sprintf("redo apply: no-scan %.0f cvs/s, under parallel scans %.0f cvs/s — ratio %.2f (budget >= 0.90, %d scans ran)\n",
		r.ApplyBaseCVs, r.ApplyScanCVs, r.ApplyRatio, r.ScansDuringApply)
	return out
}
