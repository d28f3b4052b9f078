// RAC scale-out (paper §III.F): a two-instance primary RAC generating two
// redo threads, and a standby RAC with a SIRA master plus a reader instance.
// IMCUs distribute across the standby instances via the home-location map;
// invalidation groups for remotely-homed IMCUs ship to the reader's local
// recovery coordinator, and queries behave like parallel queries over all
// instances' column stores.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"dbimadg"
)

func main() {
	c, err := dbimadg.Open(dbimadg.Config{
		PrimaryInstances: 2,
		StandbyReaders:   1,
		BlocksPerIMCU:    16,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	tbl, err := c.CreateTable(&dbimadg.TableSpec{
		Name:   "EVENTS",
		Tenant: 1,
		Columns: []dbimadg.Column{
			{Name: "id", Kind: dbimadg.NumberKind},
			{Name: "kind", Kind: dbimadg.NumberKind},
			{Name: "payload", Kind: dbimadg.VarcharKind},
		},
		IdentityCol:  0,
		PartitionCol: -1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.AlterInMemory(1, "EVENTS", "", dbimadg.InMemoryAttr{
		Enabled: true, Service: dbimadg.ServiceStandbyOnly,
	}); err != nil {
		log.Fatal(err)
	}

	// OLTP spread across both primary instances (two redo threads; the
	// standby's log merger re-serializes them by SCN).
	rng := rand.New(rand.NewSource(3))
	s := tbl.Schema()
	id := int64(0)
	for round := 0; round < 40; round++ {
		sess := c.PrimarySession(round % 2)
		tx, err := sess.Begin()
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			r := dbimadg.NewRow(s)
			r.Nums[s.Col(0).Slot()] = id
			r.Nums[s.Col(1).Slot()] = rng.Int63n(8)
			r.Strs[s.Col(2).Slot()] = fmt.Sprintf("e%04d", rng.Int63n(2000))
			id++
			if _, err := tx.Insert(tbl, r); err != nil {
				log.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	if !c.WaitStandbyCaughtUp(60*time.Second) || !c.WaitPopulated(120*time.Second) {
		log.Fatal("sync failed")
	}

	st := c.Stats()
	fmt.Printf("IMCU distribution by home-location map:\n")
	fmt.Printf("  standby master: %3d IMCUs, %6d rows\n", st.StandbyStore.Units, st.StandbyStore.Rows)
	for i, rs := range st.ReaderStores {
		fmt.Printf("  reader %d:       %3d IMCUs, %6d rows\n", i+1, rs.Units, rs.Rows)
	}

	// Update rows on instance 0; invalidations route to whichever standby
	// instance homes the affected IMCUs — including the reader, over the
	// batched invalidation-group pipeline.
	sess := c.PrimarySession(0)
	tx, _ := sess.Begin()
	for k := int64(0); k < 200; k++ {
		if err := tx.UpdateByID(tbl, k*97%id, []uint16{1}, func(r *dbimadg.Row) {
			r.Nums[s.Col(1).Slot()] = 777
		}); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	if !c.WaitStandbyCaughtUp(60 * time.Second) {
		log.Fatal("standby lagging after updates")
	}

	sTbl, _ := c.StandbyTable(1, "EVENTS")
	// Query via the master's session and via the reader's local QuerySCN.
	for name, q := range map[string]*dbimadg.Session{
		"master session": c.StandbySession(),
	} {
		res, err := q.Query(&dbimadg.Query{
			Table:   sTbl,
			Filters: []dbimadg.Filter{dbimadg.EqNum(1, 777)},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: kind=777 rows=%d (row store: %d — freshly updated)\n",
			name, len(res.Rows), res.FromRowStore)
	}
	reader, err := c.StandbyReaderSession(0)
	if err != nil {
		log.Fatal(err)
	}
	res, err := reader.Query(&dbimadg.Query{Table: sTbl, Aggs: []dbimadg.AggSpec{{Kind: dbimadg.AggCount}}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reader session: COUNT(*)=%d at its local QuerySCN=%d (fromIMCS=%d)\n",
		res.Count, reader.Snapshot(), res.FromIMCS)

	fmt.Printf("pipeline: mined=%d flushed=%d queryscn-advances=%d\n",
		st.Standby.MinedRecords, st.Standby.FlushedRecords, st.Standby.QuerySCNAdvances)
}
