package dbimadg_test

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dbimadg"
)

// TestFailoverEndToEnd drives the full promotion story: committed DML ships
// to the standby, a transaction is left in flight, the primary dies, and
// Failover() opens the standby read-write with its column store retained
// warm.
func TestFailoverEndToEnd(t *testing.T) {
	cfg := quickCfg()
	cfg.UseTCP = true
	c, err := dbimadg.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tbl, err := c.CreateTable(simpleSpec("T", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AlterInMemory(1, "T", "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly}); err != nil {
		t.Fatal(err)
	}
	insertRows(t, c, tbl, 0, 400)
	if !c.WaitStandbyCaughtUp(10*time.Second) || !c.WaitPopulated(10*time.Second) {
		t.Fatalf("standby sync failed: %+v", c.Stats())
	}

	// Leave a transaction in flight: its Begin and inserts ship, its commit
	// never does. Promotion must roll it back.
	sess := c.PrimarySession(0)
	inflight, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Schema()
	for i := int64(1000); i < 1010; i++ {
		r := dbimadg.NewRow(s)
		r.Nums[s.Col(0).Slot()] = i
		r.Nums[s.Col(1).Slot()] = 77
		if _, err := inflight.Insert(tbl, r); err != nil {
			t.Fatal(err)
		}
	}
	if !c.WaitStandbyCaughtUp(10 * time.Second) {
		t.Fatal("in-flight DML did not ship")
	}

	res, err := c.Failover()
	if err != nil {
		t.Fatal(err)
	}
	if res.PromotedSCN == 0 {
		t.Fatal("promotion SCN not established")
	}
	if res.RolledBackTxns != 1 {
		t.Fatalf("rolled back %d txns, want 1", res.RolledBackTxns)
	}
	if res.WarmUnits == 0 {
		t.Fatal("no IMCUs retained across the transition")
	}
	if _, err := c.Failover(); err == nil {
		t.Fatal("second failover accepted")
	}

	// Every shipped-commit transaction is visible on the promoted primary; the
	// in-flight one is not. Handles re-resolve against the promoted catalog.
	pTbl, err := c.PrimaryTable(1, "T")
	if err != nil {
		t.Fatal(err)
	}
	psess := c.PrimarySession(0)
	prof, err := psess.ExplainAnalyze(&dbimadg.Query{Table: pTbl, Aggs: []dbimadg.AggSpec{{Kind: dbimadg.AggCount}}})
	if err != nil {
		t.Fatal(err)
	}
	if prof.ResultRows != 400 {
		t.Fatalf("post-promotion count = %d, want 400 (in-flight rows must not survive)", prof.ResultRows)
	}
	// Warm IMCS: the first post-promotion scan is served from the retained
	// column store, and the fresh population engine had nothing to populate.
	if prof.RowsIMCS == 0 {
		t.Fatalf("first post-promotion scan served no rows from the IMCS: %+v", prof)
	}
	if got := c.PromotedMaster().Engine().Stats().UnitsPopulated; got != 0 {
		t.Fatalf("promotion repopulated %d units; the store must be retained warm", got)
	}

	// The promoted node accepts new DML, visible to both session kinds.
	tx, err := psess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(400); i < 450; i++ {
		r := dbimadg.NewRow(s)
		r.Nums[s.Col(0).Slot()] = i
		r.Nums[s.Col(1).Slot()] = i % 10
		r.Strs[s.Col(2).Slot()] = fmt.Sprintf("v%d", i%5)
		if _, err := tx.Insert(pTbl, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := psess.Query(&dbimadg.Query{Table: pTbl, Aggs: []dbimadg.AggSpec{{Kind: dbimadg.AggCount}}})
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != 450 {
		t.Fatalf("count after post-promotion DML = %d, want 450", got.Count)
	}
	sres, err := c.StandbySession().Query(&dbimadg.Query{Table: pTbl, Aggs: []dbimadg.AggSpec{{Kind: dbimadg.AggCount}}})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Count != 450 {
		t.Fatalf("read-only count after promotion = %d, want 450", sres.Count)
	}
}

// TestFailoverInvalidationsSurvive checks the warm store stays correct: rows
// updated before the failure were invalidated in the retained SMUs, so
// post-promotion scans must serve their new images, and commits on the
// promoted primary must keep invalidating the retained store.
func TestFailoverInvalidationsSurvive(t *testing.T) {
	c, err := dbimadg.Open(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, _ := c.CreateTable(simpleSpec("T", 1))
	_ = c.AlterInMemory(1, "T", "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly})
	insertRows(t, c, tbl, 0, 200)
	if !c.WaitStandbyCaughtUp(10*time.Second) || !c.WaitPopulated(10*time.Second) {
		t.Fatal("sync failed")
	}
	// Update after population so the IMCUs carry SMU invalidations.
	sess := c.PrimarySession(0)
	s := tbl.Schema()
	tx, _ := sess.Begin()
	for id := int64(0); id < 40; id++ {
		_ = tx.UpdateByID(tbl, id, []uint16{1}, func(r *dbimadg.Row) {
			r.Nums[s.Col(1).Slot()] = 555
		})
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !c.WaitStandbyCaughtUp(10 * time.Second) {
		t.Fatal("updates did not ship")
	}

	if _, err := c.Failover(); err != nil {
		t.Fatal(err)
	}
	pTbl, _ := c.PrimaryTable(1, "T")
	psess := c.PrimarySession(0)
	res, err := psess.Query(&dbimadg.Query{Table: pTbl, Filters: []dbimadg.Filter{dbimadg.EqNum(1, 555)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 40 {
		t.Fatalf("pre-failure updates visible = %d rows, want 40", len(res.Rows))
	}

	// Post-promotion commit-time invalidation: update against the retained
	// store, then read back the new values.
	tx, _ = psess.Begin()
	for id := int64(100); id < 120; id++ {
		_ = tx.UpdateByID(pTbl, id, []uint16{1}, func(r *dbimadg.Row) {
			r.Nums[s.Col(1).Slot()] = 666
		})
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err = psess.Query(&dbimadg.Query{Table: pTbl, Filters: []dbimadg.Filter{dbimadg.EqNum(1, 666)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("post-promotion updates visible = %d rows, want 20 (stale IMCS?)", len(res.Rows))
	}
}

// TestSwitchover swaps roles and checks the rebuilt standby applies redo from
// the promoted node.
func TestSwitchover(t *testing.T) {
	c, err := dbimadg.Open(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, _ := c.CreateTable(simpleSpec("T", 1))
	_ = c.AlterInMemory(1, "T", "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly})
	insertRows(t, c, tbl, 0, 200)
	if !c.WaitStandbyCaughtUp(10*time.Second) || !c.WaitPopulated(10*time.Second) {
		t.Fatal("sync failed")
	}

	res, err := c.Switchover()
	if err != nil {
		t.Fatal(err)
	}
	if res.NewStandby == nil {
		t.Fatal("switchover rebuilt no standby")
	}
	if c.StandbyMaster() != res.NewStandby {
		t.Fatal("StandbyMaster does not target the rebuilt standby")
	}

	// New DML on the promoted node ships to the rebuilt standby. The write
	// handle re-resolves in the promoted catalog; the read handle in the
	// rebuilt standby's (the old primary's database, now applying redo).
	pTbl, _ := c.PrimaryTable(1, "T")
	sTbl, _ := c.StandbyTable(1, "T")
	psess := c.PrimarySession(0)
	tx, err := psess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Schema()
	for i := int64(200); i < 260; i++ {
		r := dbimadg.NewRow(s)
		r.Nums[s.Col(0).Slot()] = i
		r.Nums[s.Col(1).Slot()] = i % 10
		if _, err := tx.Insert(pTbl, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !c.WaitStandbyCaughtUp(10 * time.Second) {
		t.Fatalf("rebuilt standby lagging: %+v", c.StandbyMaster().Stats())
	}
	sres, err := c.StandbySession().Query(&dbimadg.Query{Table: sTbl, Aggs: []dbimadg.AggSpec{{Kind: dbimadg.AggCount}}})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Count != 260 {
		t.Fatalf("rebuilt standby count = %d, want 260", sres.Count)
	}
}

// TestCloseIdempotent is the regression test for Cluster.Close: double Close
// is a no-op, and Close after a role transition tears the promoted topology
// down cleanly.
func TestCloseIdempotent(t *testing.T) {
	for _, tc := range []struct {
		name string
		prep func(t *testing.T, c *dbimadg.Cluster)
	}{
		{"steady", func(t *testing.T, c *dbimadg.Cluster) {}},
		{"after-failover", func(t *testing.T, c *dbimadg.Cluster) {
			if _, err := c.Failover(); err != nil {
				t.Fatal(err)
			}
		}},
		{"after-switchover", func(t *testing.T, c *dbimadg.Cluster) {
			if _, err := c.Switchover(); err != nil {
				t.Fatal(err)
			}
		}},
		// Several callers race Close; each must return only after the
		// teardown finished, which closes the standby's metrics listener
		// last of all, so a dial right after any Close returns is refused.
		{"concurrent", func(t *testing.T, c *dbimadg.Cluster) {
			addr := c.MetricsAddr()
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					c.Close()
					if conn, err := net.Dial("tcp", addr); err == nil {
						conn.Close()
						t.Error("Close returned before the teardown finished: metrics endpoint still up")
					}
				}()
			}
			close(start)
			wg.Wait()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg()
			cfg.UseTCP = true
			cfg.MetricsAddr = "127.0.0.1:0"
			c, err := dbimadg.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tbl, _ := c.CreateTable(simpleSpec("T", 1))
			insertRows(t, c, tbl, 0, 50)
			if !c.WaitStandbyCaughtUp(10 * time.Second) {
				t.Fatal("standby lagging")
			}
			tc.prep(t, c)
			c.Close()
			c.Close() // a later Close must be a no-op
			if _, err := c.Failover(); err == nil {
				t.Fatal("failover accepted on a closed cluster")
			}
		})
	}
}
