// Failover walkthrough: run OLTP against a primary with a DBIM-enabled
// standby, leave a transaction in flight, lose the primary, and promote the
// standby with the role-transition broker. The point to watch is the WARM
// In-Memory Column Store: the IMCUs populated while the node was a standby
// keep serving analytics on the promoted primary with no repopulation — the
// paper's "the standby is a superset of the primary ... and can quickly
// switch roles" (§I) made concrete.
package main

import (
	"fmt"
	"log"
	"time"

	"dbimadg"
)

func main() {
	// Primary + standby over the TCP redo transport (the shipping link a real
	// failover would lose).
	c, err := dbimadg.Open(dbimadg.Config{UseTCP: true})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	tbl, err := c.CreateTable(&dbimadg.TableSpec{
		Name:   "ORDERS",
		Tenant: 1,
		Columns: []dbimadg.Column{
			{Name: "id", Kind: dbimadg.NumberKind},
			{Name: "qty", Kind: dbimadg.NumberKind},
			{Name: "region", Kind: dbimadg.VarcharKind},
		},
		IdentityCol:  0,
		PartitionCol: -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.AlterInMemory(1, "ORDERS", "", dbimadg.InMemoryAttr{
		Enabled: true,
		Service: dbimadg.ServiceStandbyOnly,
	}); err != nil {
		log.Fatal(err)
	}

	// OLTP: 20k committed orders.
	pri := c.PrimarySession(0)
	s := tbl.Schema()
	regions := []string{"north", "south", "east", "west"}
	tx, _ := pri.Begin()
	for i := int64(0); i < 20000; i++ {
		r := dbimadg.NewRow(s)
		r.Nums[s.Col(0).Slot()] = i
		r.Nums[s.Col(1).Slot()] = i % 50
		r.Strs[s.Col(2).Slot()] = regions[i%4]
		if _, err := tx.Insert(tbl, r); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	if !c.WaitStandbyCaughtUp(30*time.Second) || !c.WaitPopulated(30*time.Second) {
		log.Fatal("standby did not sync")
	}

	// One transaction stays in flight when the primary dies: its DML shipped,
	// its commit never will. Promotion must roll it back.
	inflight, _ := pri.Begin()
	r := dbimadg.NewRow(s)
	r.Nums[s.Col(0).Slot()] = 99999
	r.Nums[s.Col(1).Slot()] = 1
	r.Strs[s.Col(2).Slot()] = "lost"
	if _, err := inflight.Insert(tbl, r); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("before failure: standby QuerySCN=%d, %d IMCUs populated\n",
		c.StandbyMaster().QuerySCN(), c.Stats().StandbyStore.Units)

	// FAILOVER: terminal recovery drains shipped redo to its end, publishes
	// one final QuerySCN, rolls back the in-flight transaction, and opens the
	// standby read-write — with the column store retained, not rebuilt.
	res, err := c.Failover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FAILOVER in %v: promoted at SCN %d, %d in-flight txn rolled back, %d IMCUs retained WARM\n",
		res.Elapsed, res.PromotedSCN, res.RolledBackTxns, res.WarmUnits)

	// Clients re-resolve their handles against the promoted catalog.
	pTbl, err := c.PrimaryTable(1, "ORDERS")
	if err != nil {
		log.Fatal(err)
	}
	sess := c.PrimarySession(0)

	// The first post-promotion analytic scan is served from the RETAINED
	// column store — no repopulation stood between failure and answers.
	prof, err := sess.ExplainAnalyze(&dbimadg.Query{
		Table:   pTbl,
		Filters: []dbimadg.Filter{dbimadg.EqStr(2, "west")},
		Aggs:    []dbimadg.AggSpec{{Kind: dbimadg.AggSum, Col: 1}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first post-promotion scan: %d rows, %d served from the warm IMCS\n",
		prof.ResultRows, prof.RowsIMCS)
	fmt.Printf("population engine after promotion: %d units built (0 = fully warm)\n",
		c.PromotedMaster().Engine().Stats().UnitsPopulated)

	// And the promoted node is a full primary: new DML commits, visible to
	// the next scan, invalidating the retained store at commit time.
	tx, _ = sess.Begin()
	for _, id := range []int64{10, 20, 30} {
		if err := tx.UpdateByID(pTbl, id, []uint16{1}, func(r *dbimadg.Row) {
			r.Nums[s.Col(1).Slot()] = 9999
		}); err != nil {
			log.Fatal(err)
		}
	}
	commitSCN, _ := tx.Commit()
	got, err := sess.Query(&dbimadg.Query{
		Table:   pTbl,
		Filters: []dbimadg.Filter{dbimadg.EqNum(1, 9999)},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-promotion OLTP: commitSCN=%d, updated rows visible=%d\n",
		commitSCN, len(got.Rows))
}
