package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dbimadg"
	"dbimadg/internal/router"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/service"
	"dbimadg/internal/workload"
)

// FleetOverloadResult measures the reader fleet's admission control under a
// scan storm: a pool of concurrent analytic sessions far beyond the fleet's
// capacity hammers the router. The claim under test: routing latency stays
// bounded — overload sheds with ErrOverloaded instead of queueing
// unboundedly. What scans cost redo apply is measured by the end-to-end
// benchmark's htap_saturated workload against redo_catchup, at the apply
// ceiling rather than under a paced load far below it.
type FleetOverloadResult struct {
	// Sessions is the concurrent scan-session pool size; Readers the fleet
	// size the storm was routed over.
	Sessions int
	Readers  int

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
	// A deliberately small fleet: two readers with tight admission limits, so
	// the session pool overloads it by construction and the storm exercises
	// the shed path, not just the happy path.
	c, tbl, err := open(p, dbimadg.Config{
		FleetReaders:            fleetReaders,
		FleetMaxConcurrentScans: 1,
		FleetQueueDepth:         2,
		FleetQueueTimeout:       5 * time.Millisecond,
	}, service.StandbyOnly)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := load(c, tbl, max(p.Rows/10, 1000), p.Seed); err != nil {
		return nil, err
	}
	if !c.WaitFleetReady(60 * time.Second) {
		return nil, fmt.Errorf("experiments: fleet never became Ready")
	}
	sTbl, err := c.StandbyTable(tenant, tableName)
	if err != nil {
		return nil, err
	}
	n1 := sTbl.Schema().ColIndex("n1")
	execs := map[int]*scanengine.Executor{}
	for _, rd := range c.Fleet().Readers() {
		execs[rd.ID()] = scanengine.NewExecutor(c.StandbyMaster().Txns(), rd.Store())
	}
	rtr := c.Router()
	settle()

	// The session pool. Each session loops think-time → Place → scan on the
	// placed reader's own store → Release. Think times spread the pool's
	// demand so the storm models many mostly-idle analytic clients, not a
	// tight retry loop — yet aggregate demand still exceeds fleet capacity by
	// orders of magnitude.
	stop := make(chan struct{})
	var stormWG sync.WaitGroup
	var scans atomic.Int64
	before := rtr.Totals()
	stormStart := time.Now()
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
				// count.
				ex := execs[pl.Reader.ID()]
				snap := pl.Reader.QuerySCN()
				ok := true
				for j := 0; j < scanBatch && ok; j++ {
					q := &scanengine.Query{
						Table:   sTbl,
						Filters: []scanengine.Filter{scanengine.EqNum(n1, rng.Int63n(workload.NumDomain))},
						Aggs:    []scanengine.AggSpec{{Kind: scanengine.AggCount}},
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
	time.Sleep(p.Duration)
	close(stop)
	stormWG.Wait()

	res := &FleetOverloadResult{Sessions: sessions, Readers: fleetReaders}
	res.StormSeconds = time.Since(stormStart).Seconds()
	tot := rtr.Totals()
	res.Placed = tot.Placed - before.Placed
	res.Shed = tot.Shed - before.Shed
	res.NoReader = tot.NoReader - before.NoReader
	res.ScansRun = scans.Load()
	res.RouteP50Ms = tot.PlaceP50MS
	res.RouteP95Ms = tot.PlaceP95MS
	res.RouteP99Ms = tot.PlaceP99MS
	p.emit(c, "fleet overload")
	return res, nil
}

// String renders the routing outcomes.
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
	return out
}
