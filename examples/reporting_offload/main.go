// Reporting offload (paper §IV.A): OLTP runs on the primary while ad-hoc
// reporting scans run on the standby — first without DBIM-on-ADG (row-store
// scans), then with it (column-store scans) — printing the response-time
// improvement the paper's Fig. 9 reports.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"sync"
	"time"

	"dbimadg"
	"dbimadg/internal/obs"
)

const (
	rows      = 60000
	oltpOps   = 200 // paced update ops/s on the primary
	reportFor = 4 * time.Second
)

// metricsAddr, when set, serves each phase's observability endpoints
// (/metrics, /debug/stats, /debug/freshness, ...) while the phase runs.
var metricsAddr = flag.String("metrics", "", "serve observability endpoints on this addr (e.g. 127.0.0.1:9187)")

func main() {
	flag.Parse()
	fmt.Println("phase 1: reporting on the standby WITHOUT DBIM-on-ADG")
	without := runPhase(false)
	fmt.Println("phase 2: reporting on the standby WITH DBIM-on-ADG")
	with := runPhase(true)

	fmt.Printf("\nresults (Q1-style report: SELECT * WHERE n1 = :v):\n")
	fmt.Printf("  without DBIM: %s\n", summary(without))
	fmt.Printf("  with DBIM:    %s\n", summary(with))
	fmt.Printf("  median speedup: %.1fx (paper Fig. 9: ~100x at 6M rows on Exadata)\n",
		without.Quantile(0.5)/with.Quantile(0.5))
}

// summary renders a report-latency distribution like the paper's Fig. 9 bars.
func summary(h obs.HistogramSnapshot) string {
	return fmt.Sprintf("n=%d median=%.3fms avg=%.3fms p95=%.3fms",
		h.Count, h.Quantile(0.5)*1e3, h.Mean()*1e3, h.Quantile(0.95)*1e3)
}

func runPhase(useDBIM bool) obs.HistogramSnapshot {
	c, err := dbimadg.Open(dbimadg.Config{
		MetricsAddr:          *metricsAddr,
		FreshnessSampleEvery: 1, // trace every commit end-to-end for the demo
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	if *metricsAddr != "" {
		fmt.Printf("  observability on http://%s (try /debug/freshness?n=5)\n", c.MetricsAddr())
	}

	tbl, err := c.CreateTable(&dbimadg.TableSpec{
		Name:   "FACTS",
		Tenant: 1,
		Columns: []dbimadg.Column{
			{Name: "id", Kind: dbimadg.NumberKind},
			{Name: "n1", Kind: dbimadg.NumberKind},
			{Name: "c1", Kind: dbimadg.VarcharKind},
		},
		IdentityCol:  0,
		PartitionCol: -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if useDBIM {
		if err := c.AlterInMemory(1, "FACTS", "", dbimadg.InMemoryAttr{
			Enabled: true, Service: dbimadg.ServiceStandbyOnly,
		}); err != nil {
			log.Fatal(err)
		}
	}

	// Load.
	pri := c.PrimarySession(0)
	s := tbl.Schema()
	rng := rand.New(rand.NewSource(11))
	const batch = 1000
	for lo := int64(0); lo < rows; lo += batch {
		tx, _ := pri.Begin()
		for i := lo; i < lo+batch && i < rows; i++ {
			r := dbimadg.NewRow(s)
			r.Nums[s.Col(0).Slot()] = i
			r.Nums[s.Col(1).Slot()] = rng.Int63n(1000)
			r.Strs[s.Col(2).Slot()] = fmt.Sprintf("tag_%03d", rng.Int63n(500))
			if _, err := tx.Insert(tbl, r); err != nil {
				log.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	if !c.WaitStandbyCaughtUp(60 * time.Second) {
		log.Fatal("standby lagging")
	}
	if useDBIM && !c.WaitPopulated(120*time.Second) {
		log.Fatal("population did not settle")
	}

	// OLTP: paced updates on the primary for the whole reporting window.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(13))
		tick := time.NewTicker(time.Second / oltpOps)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			tx, err := pri.Begin()
			if err != nil {
				return
			}
			id := rng.Int63n(rows)
			_ = tx.UpdateByID(tbl, id, []uint16{1}, func(r *dbimadg.Row) {
				r.Nums[s.Col(1).Slot()] = rng.Int63n(1000)
			})
			_, _ = tx.Commit()
		}
	}()

	// Reporting: closed-loop Q1-style scans on the standby.
	sTbl, err := c.StandbyTable(1, "FACTS")
	if err != nil {
		log.Fatal(err)
	}
	sby := c.StandbySession()
	rec := obs.NewHistogram(obs.LatencyBuckets)
	deadline := time.Now().Add(reportFor)
	qrng := rand.New(rand.NewSource(17))
	for time.Now().Before(deadline) {
		start := time.Now()
		if _, err := sby.Query(&dbimadg.Query{
			Table:   sTbl,
			Filters: []dbimadg.Filter{dbimadg.EqNum(1, qrng.Int63n(1000))},
		}); err != nil {
			log.Fatal(err)
		}
		rec.ObserveDuration(time.Since(start))
	}
	close(stop)
	wg.Wait()
	sum := rec.Snapshot()
	fmt.Printf("  %d reports, %s\n", sum.Count, summary(sum))

	// EXPLAIN ANALYZE of the same report query: which IMCUs were pruned and
	// which path (column store, invalid-row fallback, tails, row store)
	// served each matching row — the "why" behind the latencies above.
	prof, err := sby.ExplainSQL(sTbl, "EXPLAIN ANALYZE SELECT * FROM FACTS WHERE n1 = :v",
		map[string]dbimadg.Bind{"v": dbimadg.NumBind(qrng.Int63n(1000))})
	if err != nil {
		log.Fatal(err)
	}
	if got := prof.RowsIMCS + prof.RowsInvalid + prof.RowsTail + prof.RowsRowStore; got != prof.ResultRows {
		log.Fatalf("profile paths sum to %d, result cardinality %d", got, prof.ResultRows)
	}
	fmt.Printf("  EXPLAIN ANALYZE of the report query:\n")
	for _, line := range strings.Split(strings.TrimRight(prof.String(), "\n"), "\n") {
		fmt.Printf("    %s\n", line)
	}
	total, slow := c.QueryLog().Totals()
	fmt.Printf("  query log: %d queries recorded, %d slow (threshold %v)\n",
		total, slow, c.QueryLog().SlowThreshold())

	// Commit-to-visible freshness: every commit above was traced from the
	// primary's commit wall clock to QuerySCN publication (the live span
	// waterfalls are on /debug/freshness when -metrics is set).
	fsum := c.Freshness().Summary()
	fmt.Printf("  freshness: %d spans complete | commit-to-visible p50 %.2fms p95 %.2fms p99 %.2fms | first-query age p50 %.2fms\n",
		fsum.Stats.Completed,
		fsum.CommitToVisible.P50*1e3, fsum.CommitToVisible.P95*1e3, fsum.CommitToVisible.P99*1e3,
		fsum.QueryAge.P50*1e3)

	fmt.Printf("  standby telemetry at end of phase:\n")
	for _, line := range strings.Split(strings.TrimRight(c.Observability().Snapshot().String(), "\n"), "\n") {
		fmt.Printf("    %s\n", line)
	}
	return sum
}
