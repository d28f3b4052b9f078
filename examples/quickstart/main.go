// Quickstart: bring up a primary + standby pair, create a table, enable
// In-Memory population on the standby, run OLTP on the primary, and query the
// standby's column store at its published QuerySCN.
package main

import (
	"fmt"
	"log"
	"time"

	"dbimadg"
)

func main() {
	// One primary instance, one standby instance, in-process redo transport.
	c, err := dbimadg.Open(dbimadg.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// CREATE TABLE orders (id NUMBER, qty NUMBER, region VARCHAR2) — the
	// definition replicates to the standby through a redo marker.
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

	// ALTER TABLE orders INMEMORY ... DISTRIBUTE BY SERVICE standby-only:
	// the standby populates its column store; the primary stays row-only.
	if err := c.AlterInMemory(1, "ORDERS", "", dbimadg.InMemoryAttr{
		Enabled: true,
		Service: dbimadg.ServiceStandbyOnly,
	}); err != nil {
		log.Fatal(err)
	}

	// OLTP on the primary: insert 10k orders, then update a few.
	pri := c.PrimarySession(0)
	tx, _ := pri.Begin()
	s := tbl.Schema()
	regions := []string{"north", "south", "east", "west"}
	for i := int64(0); i < 10000; i++ {
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

	tx, _ = pri.Begin()
	for _, id := range []int64{10, 20, 30} {
		if err := tx.UpdateByID(tbl, id, []uint16{1}, func(r *dbimadg.Row) {
			r.Nums[s.Col(1).Slot()] = 9999
		}); err != nil {
			log.Fatal(err)
		}
	}
	commitSCN, _ := tx.Commit()
	fmt.Printf("OLTP done; last commitSCN = %d\n", commitSCN)

	// Wait for the standby to reach the primary's SCN and populate its IMCS.
	if !c.WaitStandbyCaughtUp(30 * time.Second) {
		log.Fatal("standby did not catch up")
	}
	if !c.WaitPopulated(30 * time.Second) {
		log.Fatal("population did not settle")
	}
	fmt.Printf("standby QuerySCN = %d (>= commitSCN: consistent)\n", c.StandbyMaster().QuerySCN())

	// Analytics on the standby: the scan runs against the compressed column
	// store, reconciled with the SMUs so the three updated rows come from
	// the row store at the same consistent snapshot.
	sTbl, err := c.StandbyTable(1, "ORDERS")
	if err != nil {
		log.Fatal(err)
	}
	sby := c.StandbySession()

	res, err := sby.Query(&dbimadg.Query{
		Table:   sTbl,
		Filters: []dbimadg.Filter{dbimadg.EqStr(2, "west")},
		Aggs:    []dbimadg.AggSpec{{Kind: dbimadg.AggSum, Col: 1}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SELECT SUM(qty) WHERE region='west' → sum=%d over %d rows "+
		"(%d from IMCS, %d from row store)\n",
		res.AggVals[0], res.Count, res.FromIMCS, res.FromRowStore)

	res, err = sby.Query(&dbimadg.Query{
		Table:   sTbl,
		Filters: []dbimadg.Filter{dbimadg.EqNum(1, 9999)},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SELECT * WHERE qty=9999 → %d rows (the updates; fromIMCS=%d "+
		"fromRowStore=%d — the population snapshot already included these "+
		"commits, so no reconciliation was needed)\n",
		len(res.Rows), res.FromIMCS, res.FromRowStore)

	st := c.Stats()
	fmt.Printf("standby store: %d IMCUs, %d rows, %d invalid, %.1f KiB\n",
		st.StandbyStore.Units, st.StandbyStore.Rows, st.StandbyStore.InvalidRows,
		float64(st.StandbyStore.MemBytes)/1024)
	fmt.Printf("pipeline: %d records applied, %d invalidations mined, %d flushed\n",
		st.Standby.RecordsApplied, st.Standby.MinedRecords, st.Standby.FlushedRecords)
}
