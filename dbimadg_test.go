package dbimadg_test

import (
	"fmt"
	"testing"
	"time"

	"dbimadg"
)

func quickCfg() dbimadg.Config {
	return dbimadg.Config{
		RowsPerBlock:       32,
		BlocksPerIMCU:      8,
		CheckpointInterval: time.Millisecond,
		PopulationInterval: time.Millisecond,
	}
}

func simpleSpec(name string, tenant dbimadg.TenantID) *dbimadg.TableSpec {
	return &dbimadg.TableSpec{
		Name:   name,
		Tenant: tenant,
		Columns: []dbimadg.Column{
			{Name: "id", Kind: dbimadg.NumberKind},
			{Name: "n1", Kind: dbimadg.NumberKind},
			{Name: "c1", Kind: dbimadg.VarcharKind},
		},
		IdentityCol:  0,
		PartitionCol: -1,
	}
}

func insertRows(t *testing.T, c *dbimadg.Cluster, tbl *dbimadg.Table, from, to int64) {
	t.Helper()
	sess := c.PrimarySession(0)
	tx, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Schema()
	for i := from; i < to; i++ {
		r := dbimadg.NewRow(s)
		r.Nums[s.Col(0).Slot()] = i
		r.Nums[s.Col(1).Slot()] = i % 10
		r.Strs[s.Col(2).Slot()] = fmt.Sprintf("v%d", i%5)
		if _, err := tx.Insert(tbl, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenQueryLifecycle(t *testing.T) {
	c, err := dbimadg.Open(quickCfg())
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
	insertRows(t, c, tbl, 0, 200)
	if !c.WaitStandbyCaughtUp(10 * time.Second) {
		t.Fatalf("standby lagging: %+v", c.Stats())
	}
	if !c.WaitPopulated(10 * time.Second) {
		t.Fatal("population did not settle")
	}

	sTbl, err := c.StandbyTable(1, "T")
	if err != nil {
		t.Fatal(err)
	}
	sess := c.StandbySession()
	if !sess.ReadOnly() {
		t.Fatal("standby session not read-only")
	}
	if _, err := sess.Begin(); err == nil {
		t.Fatal("standby session allowed a transaction")
	}
	res, err := sess.Query(&dbimadg.Query{
		Table:   sTbl,
		Filters: []dbimadg.Filter{dbimadg.EqNum(1, 3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("standby rows = %d, want 20", len(res.Rows))
	}
	if res.FromIMCS != 20 {
		t.Fatalf("IMCS served %d/20", res.FromIMCS)
	}
	// Standby-only policy: primary store must be empty.
	if st := c.Stats(); st.PrimaryStore.Units != 0 {
		t.Fatalf("primary store populated under standby-only policy: %+v", st.PrimaryStore)
	}
}

func TestPrimarySideDBIM(t *testing.T) {
	c, err := dbimadg.Open(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, _ := c.CreateTable(simpleSpec("T", 1))
	if err := c.AlterInMemory(1, "T", "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServicePrimaryAndStandby}); err != nil {
		t.Fatal(err)
	}
	insertRows(t, c, tbl, 0, 200)
	if !c.WaitPopulated(10 * time.Second) {
		t.Fatal("population did not settle")
	}
	sess := c.PrimarySession(0)
	res, err := sess.Query(&dbimadg.Query{Table: tbl, Filters: []dbimadg.Filter{dbimadg.EqNum(1, 3)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.FromIMCS != 20 {
		t.Fatalf("primary IMCS served %d/20", res.FromIMCS)
	}
	// Commit-time invalidation on the primary: updated rows come from the
	// row store.
	tx, _ := sess.Begin()
	s := tbl.Schema()
	if err := tx.UpdateByID(tbl, 7, []uint16{1}, func(r *dbimadg.Row) {
		r.Nums[s.Col(1).Slot()] = -1
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	res, err = sess.Query(&dbimadg.Query{Table: tbl, Filters: []dbimadg.Filter{dbimadg.EqNum(1, -1)}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.FromRowStore != 1 {
		t.Fatalf("updated row: rows=%d fromRowStore=%d", len(res.Rows), res.FromRowStore)
	}
}

func TestCapacityExpansionPlacement(t *testing.T) {
	// Fig. 2: partitioned SALES with per-partition services — the latest
	// month on the primary, everything on the standby.
	c, err := dbimadg.Open(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, err := c.CreateTable(&dbimadg.TableSpec{
		Name:   "SALES",
		Tenant: 1,
		Columns: []dbimadg.Column{
			{Name: "id", Kind: dbimadg.NumberKind},
			{Name: "month", Kind: dbimadg.NumberKind},
			{Name: "amount", Kind: dbimadg.NumberKind},
		},
		IdentityCol:  0,
		PartitionCol: 1,
		Partitions: []dbimadg.PartitionSpec{
			{Name: "JAN_NOV", Lo: 1, Hi: 12},
			{Name: "DEC", Lo: 12, Hi: 13},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AlterInMemory(1, "SALES", "JAN_NOV", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly}); err != nil {
		t.Fatal(err)
	}
	if err := c.AlterInMemory(1, "SALES", "DEC", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServicePrimaryAndStandby}); err != nil {
		t.Fatal(err)
	}
	sess := c.PrimarySession(0)
	tx, _ := sess.Begin()
	s := tbl.Schema()
	for i := int64(0); i < 240; i++ {
		r := dbimadg.NewRow(s)
		r.Nums[0] = i
		r.Nums[1] = i%12 + 1
		r.Nums[2] = i * 3
		if _, err := tx.Insert(tbl, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !c.WaitStandbyCaughtUp(10*time.Second) || !c.WaitPopulated(10*time.Second) {
		t.Fatal("sync failed")
	}
	st := c.Stats()
	// Primary store holds only DEC; standby holds both partitions.
	if st.PrimaryStore.Units == 0 {
		t.Fatal("primary store empty; DEC should be populated")
	}
	if st.StandbyStore.Units <= st.PrimaryStore.Units {
		t.Fatalf("standby store (%d units) should exceed primary (%d)", st.StandbyStore.Units, st.PrimaryStore.Units)
	}
	// A December query on the primary is served by the primary IMCS.
	res, err := sess.Query(&dbimadg.Query{
		Table:   tbl,
		Filters: []dbimadg.Filter{dbimadg.EqNum(1, 12)},
		Aggs:    []dbimadg.AggSpec{{Kind: dbimadg.AggSum, Col: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 20 || res.FromIMCS != 20 {
		t.Fatalf("primary DEC aggregate: count=%d fromIMCS=%d", res.Count, res.FromIMCS)
	}
	// A full-year query on the standby is served by the standby IMCS.
	sTbl, _ := c.StandbyTable(1, "SALES")
	sres, err := c.StandbySession().Query(&dbimadg.Query{
		Table: sTbl, Aggs: []dbimadg.AggSpec{{Kind: dbimadg.AggSum, Col: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Count != 240 || sres.FromIMCS != 240 {
		t.Fatalf("standby full-year aggregate: count=%d fromIMCS=%d", sres.Count, sres.FromIMCS)
	}
}

func TestTCPDeployment(t *testing.T) {
	cfg := quickCfg()
	cfg.UseTCP = true
	c, err := dbimadg.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, _ := c.CreateTable(simpleSpec("T", 1))
	insertRows(t, c, tbl, 0, 100)
	if !c.WaitStandbyCaughtUp(10 * time.Second) {
		t.Fatal("standby over TCP lagging")
	}
	sTbl, err := c.StandbyTable(1, "T")
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.StandbySession().Query(&dbimadg.Query{Table: sTbl})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 100 {
		t.Fatalf("rows over TCP = %d", len(res.Rows))
	}
}

func TestRACDeployment(t *testing.T) {
	cfg := quickCfg()
	cfg.PrimaryInstances = 2
	cfg.StandbyReaders = 1
	cfg.BlocksPerIMCU = 2
	c, err := dbimadg.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, _ := c.CreateTable(simpleSpec("T", 1))
	_ = c.AlterInMemory(1, "T", "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly})
	insertRows(t, c, tbl, 0, 500)
	if !c.WaitStandbyCaughtUp(10*time.Second) || !c.WaitPopulated(10*time.Second) {
		t.Fatalf("RAC sync failed: %+v", c.Stats())
	}
	st := c.Stats()
	if st.StandbyStore.Units == 0 || len(st.ReaderStores) != 1 || st.ReaderStores[0].Units == 0 {
		t.Fatalf("IMCUs not distributed: %+v", st)
	}
	sTbl, _ := c.StandbyTable(1, "T")
	res, err := c.StandbySession().Query(&dbimadg.Query{Table: sTbl})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 500 || res.FromIMCS != 500 {
		t.Fatalf("cross-instance query: rows=%d fromIMCS=%d", len(res.Rows), res.FromIMCS)
	}
	// Reader session works too.
	rs, err := c.StandbyReaderSession(0)
	if err != nil {
		t.Fatal(err)
	}
	rres, err := rs.Query(&dbimadg.Query{Table: sTbl, Aggs: []dbimadg.AggSpec{{Kind: dbimadg.AggCount}}})
	if err != nil {
		t.Fatal(err)
	}
	if rres.Count != 500 {
		t.Fatalf("reader session count = %d", rres.Count)
	}
	if _, err := c.StandbyReaderSession(5); err == nil {
		t.Fatal("bogus reader index accepted")
	}
}

func TestFetchByID(t *testing.T) {
	c, _ := dbimadg.Open(quickCfg())
	defer c.Close()
	tbl, _ := c.CreateTable(simpleSpec("T", 1))
	insertRows(t, c, tbl, 0, 50)
	row, ok, err := c.PrimarySession(0).FetchByID(tbl, 17)
	if err != nil || !ok {
		t.Fatalf("fetch: %v %v", ok, err)
	}
	if row.Num(tbl.Schema(), 0) != 17 {
		t.Fatal("wrong row fetched")
	}
	c.WaitStandbyCaughtUp(10 * time.Second)
	sTbl, _ := c.StandbyTable(1, "T")
	row, ok, err = c.StandbySession().FetchByID(sTbl, 17)
	if err != nil || !ok {
		t.Fatalf("standby fetch: %v %v", ok, err)
	}
	if row.Num(sTbl.Schema(), 0) != 17 {
		t.Fatal("wrong standby row")
	}
	if _, ok, _ := c.StandbySession().FetchByID(sTbl, 9999); ok {
		t.Fatal("phantom row fetched")
	}
}

func TestVacuumKeepsQueriesCorrect(t *testing.T) {
	c, _ := dbimadg.Open(quickCfg())
	defer c.Close()
	tbl, _ := c.CreateTable(simpleSpec("T", 1))
	insertRows(t, c, tbl, 0, 50)
	sess := c.PrimarySession(0)
	s := tbl.Schema()
	for round := 0; round < 5; round++ {
		tx, _ := sess.Begin()
		for id := int64(0); id < 50; id++ {
			_ = tx.UpdateByID(tbl, id, []uint16{1}, func(r *dbimadg.Row) {
				r.Nums[s.Col(1).Slot()]++
			})
		}
		_, _ = tx.Commit()
	}
	c.WaitStandbyCaughtUp(10 * time.Second)
	c.Vacuum()
	res, err := sess.Query(&dbimadg.Query{Table: tbl, Aggs: []dbimadg.AggSpec{{Kind: dbimadg.AggSum, Col: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	// Each row's n1 = (id % 10) + 5.
	want := int64(0)
	for id := int64(0); id < 50; id++ {
		want += id%10 + 5
	}
	if res.AggVals[0] != want {
		t.Fatalf("post-vacuum SUM = %d, want %d", res.AggVals[0], want)
	}
	sTbl, _ := c.StandbyTable(1, "T")
	sres, err := c.StandbySession().Query(&dbimadg.Query{Table: sTbl, Aggs: []dbimadg.AggSpec{{Kind: dbimadg.AggSum, Col: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if sres.AggVals[0] != want {
		t.Fatalf("standby post-vacuum SUM = %d, want %d", sres.AggVals[0], want)
	}
}

// TestAbortedDeleteKeepsIndexEntry: a delete that is rolled back leaves the row
// reachable through the identity index on both sides. The delete used to drop
// the index entry at once — on the primary in DeleteByID, on the standby when
// the delete CV was applied — and the abort restored nothing: every scan saw
// the row, FetchByID and UpdateByID said there was none.
func TestAbortedDeleteKeepsIndexEntry(t *testing.T) {
	cfg := quickCfg()
	cfg.UseTCP = true
	c, err := dbimadg.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, _ := c.CreateTable(simpleSpec("T", 1))
	insertRows(t, c, tbl, 0, 20)
	pri := c.PrimarySession(0)

	tx, _ := pri.Begin()
	if err := tx.DeleteByID(tbl, 7); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	// A committed delete beside it: that row is gone, by Consistent Read.
	tx, _ = pri.Begin()
	if err := tx.DeleteByID(tbl, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !c.WaitStandbyCaughtUp(10 * time.Second) {
		t.Fatal("standby did not catch up")
	}
	sTbl, _ := c.StandbyTable(1, "T")
	for side, fetch := range map[string]func(id int64) (dbimadg.Row, bool, error){
		"primary": func(id int64) (dbimadg.Row, bool, error) { return pri.FetchByID(tbl, id) },
		"standby": func(id int64) (dbimadg.Row, bool, error) { return c.StandbySession().FetchByID(sTbl, id) },
	} {
		if row, ok, err := fetch(7); err != nil || !ok || row.Num(tbl.Schema(), 0) != 7 {
			t.Errorf("%s: row 7 after delete + abort: ok=%v err=%v", side, ok, err)
		}
		if _, ok, err := fetch(8); err != nil || ok {
			t.Errorf("%s: row 8 after a committed delete: ok=%v err=%v", side, ok, err)
		}
	}
	// The row can be updated again by its key, and the update replicates.
	tx, _ = pri.Begin()
	if err := tx.UpdateByID(tbl, 7, []uint16{1}, func(r *dbimadg.Row) { r.Nums[1] = 4242 }); err != nil {
		t.Fatalf("UpdateByID after delete + abort: %v", err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !c.WaitStandbyCaughtUp(10 * time.Second) {
		t.Fatal("standby did not catch up")
	}
	if row, ok, _ := c.StandbySession().FetchByID(sTbl, 7); !ok || row.Num(sTbl.Schema(), 1) != 4242 {
		t.Fatalf("standby row 7 after the update: ok=%v", ok)
	}
}
