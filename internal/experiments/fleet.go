package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dbimadg/internal/fleet"
	"dbimadg/internal/router"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/service"
	"dbimadg/internal/workload"
)

// FleetOverloadResult measures the reader fleet's admission control under a
// scan storm: a pool of concurrent analytic sessions far beyond the fleet's
// capacity hammers the router while the primary runs its paced DML load. The
// claims under test: routing latency stays bounded (overload sheds with
// ErrOverloaded instead of queueing unboundedly), and redo apply — the
// standby's reason to exist — keeps its no-load throughput because shed scans
// never consume reader capacity.
type FleetOverloadResult struct {
	// Sessions is the concurrent scan-session pool size; Readers the fleet
	// size the storm was routed over.
	Sessions int
	Readers  int

	// BaselineCVsPerSec / LoadedCVsPerSec are redo apply throughput (CVs/s,
	// measured over a paced DML phase plus its catch-up) without and with the
	// scan storm; ApplyRatio is loaded/baseline (acceptance: >= 0.9).
	BaselineCVsPerSec float64
	LoadedCVsPerSec   float64
	ApplyRatio        float64

	// Routing outcome totals over the storm phase.
	Placed   int64
	Shed     int64
	NoReader int64
	// ScansRun counts placed sessions that completed their scan.
	ScansRun int64
	// RouteP50/P95/P99 are placement-latency quantiles in milliseconds across
	// every Place attempt, sheds included — the "bounded p99" claim.
	RouteP50Ms float64
	RouteP95Ms float64
	RouteP99Ms float64
	// StormSeconds is the measured storm phase length.
	StormSeconds float64
}

// fleetSessions/fleetReaders default the storm shape: ten thousand concurrent
// sessions against two deliberately small readers, so demand exceeds capacity
// by orders of magnitude and the shed path is the common case.
const (
	fleetSessions = 10_000
	fleetReaders  = 2
	// scanBatch is the number of filtered count queries one placed session
	// runs while holding its admission slot — an analytic "report", so slot
	// hold times are milliseconds and admission is genuinely contended.
	scanBatch = 32
)

// RunFleetOverload runs the fleet admission-control experiment.
func RunFleetOverload(p Params) (*FleetOverloadResult, error) {
	p = p.WithDefaults()
	sessions := p.FleetSessions
	if sessions <= 0 {
		sessions = fleetSessions
	}
	d, err := openDeployment(p, 1, service.StandbyOnly)
	if err != nil {
		return nil, err
	}
	defer d.close()
	// SCN heartbeats keep the standby's QuerySCN converging on the primary's
	// clock even when the last paced op aborted after bumping it (an aborted
	// transaction advances the clock without writing a commit record, and the
	// catch-up phases below wait on the clock).
	d.pri.StartHeartbeats(time.Millisecond)

	// Seed the wide table.
	seedRows := p.Rows / 10
	if seedRows < 1000 {
		seedRows = 1000
	}
	rng := rand.New(rand.NewSource(p.Seed))
	const batch = 512
	for lo := 0; lo < seedRows; lo += batch {
		tx := d.pri.Instance(0).Begin()
		for i := lo; i < lo+batch && i < seedRows; i++ {
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

	// A deliberately small fleet: two readers with tight admission limits, so
	// the session pool overloads it by construction and the storm exercises
	// the shed path, not just the happy path.
	flt := fleet.NewManager(d.sby, fleet.Spec{
		Readers:            fleetReaders,
		MaxConcurrentScans: 1,
		QueueDepth:         2,
		QueueTimeout:       5 * time.Millisecond,
	})
	defer flt.Shutdown()
	rtr := router.New(flt, d.sby.Services(), d.sby.Obs())
	if !flt.WaitReady(60 * time.Second) {
		return nil, fmt.Errorf("experiments: fleet never became Ready")
	}

	res := &FleetOverloadResult{Sessions: sessions, Readers: fleetReaders}

	// applyPhase runs the paced DML load for p.Duration, waits for the standby
	// to catch up, and returns apply throughput (CVs/s) over the whole phase —
	// identical pacing in both phases, so a slowdown shows up as a lower rate.
	applyPhase := func() (float64, error) {
		before := d.sby.Stats().CVsApplied
		start := time.Now()
		var wg sync.WaitGroup
		deadline := start.Add(p.Duration)
		for th := 0; th < p.Threads; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(p.Seed + int64(th)*131))
				schema := d.tbl.Schema()
				interval := time.Duration(int64(time.Second) * int64(p.Threads) / int64(p.TargetOps))
				next := time.Now()
				for time.Now().Before(deadline) {
					tx := d.pri.Instance(0).Begin()
					id := rng.Int63n(int64(seedRows))
					err := tx.UpdateByID(d.tbl, id, []uint16{1}, func(r *rowstore.Row) {
						r.Nums[schema.Col(1).Slot()] = rng.Int63n(workload.NumDomain)
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
		if err := d.catchUp(120 * time.Second); err != nil {
			return 0, err
		}
		elapsed := time.Since(start)
		after := d.sby.Stats().CVsApplied
		return float64(after-before) / elapsed.Seconds(), nil
	}

	settle()
	if res.BaselineCVsPerSec, err = applyPhase(); err != nil {
		return nil, fmt.Errorf("experiments: baseline apply phase: %w", err)
	}

	// Storm phase: the session pool. Each session loops think-time → Place →
	// scan on the placed reader's own store → Release. Think times spread the
	// pool's demand so the storm models many mostly-idle analytic clients, not
	// a tight retry loop — yet aggregate demand still exceeds fleet capacity
	// by orders of magnitude.
	sTbl, err := d.sbyTable()
	if err != nil {
		return nil, err
	}
	n1 := sTbl.Schema().ColIndex("n1")
	execs := map[int]*scanengine.Executor{}
	for _, rd := range flt.Readers() {
		execs[rd.ID()] = scanengine.NewExecutor(d.sby.Txns(), rd.Store())
	}
	stop := make(chan struct{})
	var stormWG sync.WaitGroup
	var scans atomic.Int64
	before := rtr.Totals()
	for i := 0; i < sessions; i++ {
		stormWG.Add(1)
		go func(i int) {
			defer stormWG.Done()
			rng := rand.New(rand.NewSource(p.Seed + int64(i)*7919))
			for {
				think := time.Duration(200+rng.Intn(400)) * time.Millisecond
				select {
				case <-stop:
					return
				case <-time.After(think):
				}
				pl, err := rtr.Place(router.Options{Wait: 20 * time.Millisecond})
				if err != nil {
					continue // shed / no reader: counted by the router
				}
				// One placement serves a report: a batch of filtered counts
				// with client-side processing time between queries, holding
				// the admission slot throughout — so slot hold times are tens
				// of milliseconds and admission is genuinely contended, while
				// the admitted scans' aggregate CPU stays bounded by the slot
				// count (the property that protects redo apply).
				ex := execs[pl.Reader.ID()]
				snap := pl.Reader.QuerySCN()
				ok := true
				for j := 0; j < scanBatch && ok; j++ {
					q := &scanengine.Query{
						Table:   sTbl,
						Filters: []scanengine.Filter{scanengine.EqNum(n1, rng.Int63n(workload.NumDomain))},
						Agg:     scanengine.AggCount,
					}
					if _, err := ex.Run(q, snap); err != nil {
						ok = false
						break
					}
					select {
					case <-stop:
						ok = false
					case <-time.After(time.Millisecond):
					}
				}
				if ok {
					scans.Add(1)
				}
				pl.Release()
			}
		}(i)
	}

	stormStart := time.Now()
	loaded, err := applyPhase()
	close(stop)
	stormWG.Wait()
	if err != nil {
		return nil, fmt.Errorf("experiments: loaded apply phase: %w", err)
	}
	res.LoadedCVsPerSec = loaded
	res.StormSeconds = time.Since(stormStart).Seconds()
	if res.BaselineCVsPerSec > 0 {
		res.ApplyRatio = res.LoadedCVsPerSec / res.BaselineCVsPerSec
	}

	tot := rtr.Totals()
	res.Placed = tot.Placed - before.Placed
	res.Shed = tot.Shed - before.Shed
	res.NoReader = tot.NoReader - before.NoReader
	res.ScansRun = scans.Load()
	res.RouteP50Ms = tot.PlaceP50MS
	res.RouteP95Ms = tot.PlaceP95MS
	res.RouteP99Ms = tot.PlaceP99MS
	d.emitSnapshot(p, "fleet overload")
	return res, nil
}

// String renders the routing outcomes and the apply-throughput comparison.
func (r *FleetOverloadResult) String() string {
	out := fmt.Sprintf("Fleet overload — %d concurrent scan sessions over %d readers (%.1fs storm)\n",
		r.Sessions, r.Readers, r.StormSeconds)
	out += table(
		[]string{"outcome", "count"},
		[][]string{
			{"placed", fmt.Sprintf("%d", r.Placed)},
			{"shed (ErrOverloaded)", fmt.Sprintf("%d", r.Shed)},
			{"no reader", fmt.Sprintf("%d", r.NoReader)},
			{"scans completed", fmt.Sprintf("%d", r.ScansRun)},
		})
	out += fmt.Sprintf("routing latency p50=%.3fms p95=%.3fms p99=%.3fms (sheds included)\n",
		r.RouteP50Ms, r.RouteP95Ms, r.RouteP99Ms)
	out += fmt.Sprintf("redo apply: baseline %.0f cvs/s, under storm %.0f cvs/s — ratio %.2f (budget >= 0.90)\n",
		r.BaselineCVsPerSec, r.LoadedCVsPerSec, r.ApplyRatio)
	return out
}
