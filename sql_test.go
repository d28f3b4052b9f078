package dbimadg_test

import (
	"fmt"
	"testing"
	"time"

	"dbimadg"
)

func TestQuerySQLEndToEnd(t *testing.T) {
	c, err := dbimadg.Open(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, _ := c.CreateTable(simpleSpec("T", 1))
	_ = c.AlterInMemory(1, "T", "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly})
	insertRows(t, c, tbl, 0, 100)
	if !c.WaitStandbyCaughtUp(10*time.Second) || !c.WaitPopulated(10*time.Second) {
		t.Fatal("sync failed")
	}
	sTbl, _ := c.StandbyTable(1, "T")
	sby := c.StandbySession()

	// Q1 shape with a bind (paper Table 1).
	res, err := sby.QuerySQL(sTbl, "SELECT * FROM T WHERE n1 = :1",
		map[string]dbimadg.Bind{"1": dbimadg.NumBind(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("Q1 rows = %d, want 10", len(res.Rows))
	}
	// Q2 shape with a string bind.
	res, err = sby.QuerySQL(sTbl, "SELECT * FROM T WHERE c1 = :2",
		map[string]dbimadg.Bind{"2": dbimadg.StrBind("v2")})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("Q2 rows = %d, want 20", len(res.Rows))
	}
	// Aggregate with literal predicate and conjunction.
	res, err = sby.QuerySQL(sTbl, "SELECT SUM(id) FROM T WHERE n1 >= 5 AND c1 = 'v2'", nil)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := sby.Query(&dbimadg.Query{
		Table: sTbl,
		Filters: []dbimadg.Filter{
			{Col: 1, Op: dbimadg.GE, Num: 5},
			dbimadg.EqStr(2, "v2"),
		},
		Aggs: []dbimadg.AggSpec{{Kind: dbimadg.AggSum, Col: 0}},
	})
	if res.Sum != base.Sum || res.Count != base.Count {
		t.Fatalf("SQL aggregate %d/%d != typed query %d/%d", res.Sum, res.Count, base.Sum, base.Count)
	}
	// Projection.
	res, err = sby.QuerySQL(sTbl, "SELECT id, c1 FROM T WHERE id = 7", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Num(sTbl.Schema(), 0) != 7 {
		t.Fatalf("projection result: %+v", res.Rows)
	}
	// Errors surface.
	if _, err := sby.QuerySQL(sTbl, "DELETE FROM T", nil); err == nil {
		t.Fatal("non-SELECT accepted")
	}
	if _, err := sby.QuerySQL(sTbl, "SELECT * FROM T WHERE nope = 1", nil); err == nil {
		t.Fatal("unknown column accepted")
	}
}

// TestQuerySQLGroupByEndToEnd drives a grouped aggregate through the SQL
// front end on the standby and checks it against the primary's Consistent
// Read of the same data at the same logical content.
func TestQuerySQLGroupByEndToEnd(t *testing.T) {
	c, err := dbimadg.Open(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, _ := c.CreateTable(simpleSpec("T", 1))
	_ = c.AlterInMemory(1, "T", "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly})
	insertRows(t, c, tbl, 0, 100)
	if !c.WaitStandbyCaughtUp(10*time.Second) || !c.WaitPopulated(10*time.Second) {
		t.Fatal("sync failed")
	}
	sTbl, _ := c.StandbyTable(1, "T")
	sby := c.StandbySession()

	res, err := sby.QuerySQL(sTbl, "SELECT c1, COUNT(*), SUM(n1) FROM T GROUP BY c1", nil)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Grouped
	if g == nil {
		t.Fatal("grouped statement returned no Grouped result")
	}
	if len(g.KeyCols) != 1 || g.KeyCols[0] != "c1" {
		t.Fatalf("key cols: %v", g.KeyCols)
	}
	if len(g.AggCols) != 2 || g.AggCols[0] != "COUNT(*)" || g.AggCols[1] != "SUM(n1)" {
		t.Fatalf("agg cols: %v", g.AggCols)
	}
	// insertRows writes n1 = i%10 and c1 = "v"+i%5: five groups of 20 rows,
	// each group's n1 values split evenly between k and k+5.
	if len(g.Groups) != 5 {
		t.Fatalf("groups: %+v", g.Groups)
	}
	for k, grp := range g.Groups {
		wantSum := int64(10*k + 10*(k+5))
		if grp.Keys[0].Str != fmt.Sprintf("v%d", k) || grp.Vals[0] != 20 || grp.Vals[1] != wantSum {
			t.Fatalf("group %d: %+v (want key v%d count 20 sum %d)", k, grp, k, wantSum)
		}
	}
	if res.Count != 100 {
		t.Fatalf("grouped Count = %d, want total input rows 100", res.Count)
	}

	// The same statement on the primary's row store must agree group for
	// group — the standby's hybrid scan is exact at its QuerySCN.
	pri := c.PrimarySession(0)
	pres, err := pri.QuerySQL(tbl, "SELECT c1, COUNT(*), SUM(n1) FROM T GROUP BY c1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pres.Grouped.Groups) != len(g.Groups) {
		t.Fatalf("primary groups %d != standby groups %d", len(pres.Grouped.Groups), len(g.Groups))
	}
	for i := range g.Groups {
		sg, pg := g.Groups[i], pres.Grouped.Groups[i]
		if sg.Keys[0] != pg.Keys[0] || sg.Vals[0] != pg.Vals[0] || sg.Vals[1] != pg.Vals[1] {
			t.Fatalf("group %d: standby %+v != primary %+v", i, sg, pg)
		}
	}

	// EXPLAIN ANALYZE of a grouped statement reports the group cardinality.
	prof, err := sby.ExplainSQL(sTbl, "EXPLAIN ANALYZE SELECT c1, COUNT(*) FROM T GROUP BY c1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Groups != 5 {
		t.Fatalf("profile groups = %d, want 5", prof.Groups)
	}
}
