package dbimadg_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dbimadg"
)

// explainFixture opens a cluster with an in-memory standby table of 100 rows
// and an aggressive slow-query threshold, so every query lands in both logs.
func explainFixture(t *testing.T) (*dbimadg.Cluster, *dbimadg.Table, *dbimadg.Table, *dbimadg.Session) {
	t.Helper()
	c, err := dbimadg.Open(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.QueryLog().SetSlowThreshold(time.Nanosecond)
	tbl, err := c.CreateTable(simpleSpec("T", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AlterInMemory(1, "T", "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly}); err != nil {
		t.Fatal(err)
	}
	insertRows(t, c, tbl, 0, 100)
	if !c.WaitStandbyCaughtUp(10*time.Second) || !c.WaitPopulated(10*time.Second) {
		t.Fatal("sync failed")
	}
	sTbl, err := c.StandbyTable(1, "T")
	if err != nil {
		t.Fatal(err)
	}
	return c, tbl, sTbl, c.StandbySession()
}

func TestExplainSQLEndToEnd(t *testing.T) {
	c, _, sTbl, sby := explainFixture(t)

	// Plan-only EXPLAIN: pruning decisions, no actuals.
	plan, err := sby.ExplainSQL(sTbl, "EXPLAIN SELECT * FROM T WHERE n1 = :v",
		map[string]dbimadg.Bind{"v": dbimadg.NumBind(3)})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Analyze || plan.WallNanos != 0 || plan.ResultRows != 0 {
		t.Fatalf("EXPLAIN carries actuals: %+v", plan)
	}
	if plan.Table != "T" || len(plan.Partitions) == 0 {
		t.Fatalf("plan incomplete: %+v", plan)
	}

	// EXPLAIN ANALYZE: per-path actuals summing to the result cardinality.
	prof, err := sby.ExplainSQL(sTbl, "EXPLAIN ANALYZE SELECT * FROM T WHERE n1 = :v",
		map[string]dbimadg.Bind{"v": dbimadg.NumBind(3)})
	if err != nil {
		t.Fatal(err)
	}
	if !prof.Analyze || prof.ResultRows != 10 {
		t.Fatalf("ANALYZE actuals: analyze=%v rows=%d, want true/10", prof.Analyze, prof.ResultRows)
	}
	if got := prof.RowsIMCS + prof.RowsInvalid + prof.RowsTail + prof.RowsRowStore; got != prof.ResultRows {
		t.Fatalf("paths sum to %d, cardinality %d", got, prof.ResultRows)
	}
	if !strings.Contains(prof.String(), "EXPLAIN ANALYZE") {
		t.Fatalf("rendering missing mode:\n%s", prof.String())
	}

	// A bare SELECT through ExplainSQL plans without executing.
	plan2, err := sby.ExplainSQL(sTbl, "SELECT COUNT(*) FROM T", nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Analyze {
		t.Fatal("bare SELECT through ExplainSQL executed")
	}

	// QuerySQL refuses EXPLAIN statements — they return plans, not rows.
	if _, err := sby.QuerySQL(sTbl, "EXPLAIN SELECT * FROM T", nil); err == nil || !strings.Contains(err.Error(), "ExplainSQL") {
		t.Fatalf("QuerySQL accepted EXPLAIN: %v", err)
	}

	// The typed API mirrors the SQL front end.
	q := &dbimadg.Query{Table: sTbl, Filters: []dbimadg.Filter{dbimadg.EqNum(1, 3)}}
	res, prof2, err := sby.QueryProfiled(q)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.Rows)) != prof2.ResultRows || prof2.ResultRows != 10 {
		t.Fatalf("QueryProfiled: rows=%d profile=%d", len(res.Rows), prof2.ResultRows)
	}
	if _, err := sby.Explain(q); err != nil {
		t.Fatal(err)
	}
	if prof3, err := sby.ExplainAnalyze(q); err != nil || !prof3.Analyze {
		t.Fatalf("ExplainAnalyze: %v %+v", err, prof3)
	}

	// Every executed standby query above landed in the cluster's query log,
	// and with a 1ns threshold all of them are slow.
	log := c.QueryLog()
	total, slow := log.Totals()
	if total == 0 || slow != total {
		t.Fatalf("query log totals = %d/%d, want all slow", total, slow)
	}
	recs := log.Recent(0)
	if len(recs) == 0 {
		t.Fatal("query log empty")
	}
	var sawSQL bool
	for _, r := range recs {
		if strings.Contains(r.SQL, "EXPLAIN ANALYZE SELECT") {
			sawSQL = true
		}
	}
	if !sawSQL {
		t.Fatalf("SQL text not recorded: %+v", recs)
	}
}

// TestSessionConcurrentQueries drives one standby session from many
// goroutines while the primary keeps writing — the -race target for the
// profiling hot path.
func TestSessionConcurrentQueries(t *testing.T) {
	c, tbl, sTbl, sby := explainFixture(t)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pri := c.PrimarySession(0)
		s := tbl.Schema()
		for i := int64(100); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tx, err := pri.Begin()
			if err != nil {
				return
			}
			r := dbimadg.NewRow(s)
			r.Nums[s.Col(0).Slot()] = i
			r.Nums[s.Col(1).Slot()] = i % 10
			r.Strs[s.Col(2).Slot()] = "vX"
			_, _ = tx.Insert(tbl, r)
			_, _ = tx.Commit()
		}
	}()

	var qwg sync.WaitGroup
	for g := 0; g < 4; g++ {
		qwg.Add(1)
		go func(g int) {
			defer qwg.Done()
			for i := 0; i < 25; i++ {
				if _, err := sby.Query(&dbimadg.Query{
					Table:   sTbl,
					Filters: []dbimadg.Filter{dbimadg.EqNum(1, int64(g))},
				}); err != nil {
					t.Error(err)
					return
				}
				if _, err := sby.QuerySQL(sTbl, "SELECT COUNT(*) FROM T", nil); err != nil {
					t.Error(err)
					return
				}
				if _, err := sby.ExplainSQL(sTbl, "EXPLAIN ANALYZE SELECT * FROM T WHERE id < 50", nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	qwg.Wait()
	close(stop)
	wg.Wait()

	total, _ := c.QueryLog().Totals()
	if total < 200 {
		t.Fatalf("query log recorded %d, want >= 200", total)
	}
}
