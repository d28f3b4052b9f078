// Capacity expansion (paper Fig. 2): a partitioned SALES fact table whose
// latest month is populated in the primary's column store while the whole
// year is populated on the standby, with the DIMENSION table on both — so the
// combined in-memory capacity exceeds either instance, and each workload is
// served by the right copy through services.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"dbimadg"
)

const monthsOfData = 12

func main() {
	c, err := dbimadg.Open(dbimadg.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// SALES range-partitioned by month.
	var parts []dbimadg.PartitionSpec
	for m := int64(1); m <= monthsOfData; m++ {
		parts = append(parts, dbimadg.PartitionSpec{
			Name: fmt.Sprintf("M%02d", m), Lo: m, Hi: m + 1,
		})
	}
	sales, err := c.CreateTable(&dbimadg.TableSpec{
		Name:   "SALES",
		Tenant: 1,
		Columns: []dbimadg.Column{
			{Name: "id", Kind: dbimadg.NumberKind},
			{Name: "month", Kind: dbimadg.NumberKind},
			{Name: "product_id", Kind: dbimadg.NumberKind},
			{Name: "amount", Kind: dbimadg.NumberKind},
		},
		IdentityCol:  0,
		PartitionCol: 1,
		Partitions:   parts,
	})
	if err != nil {
		log.Fatal(err)
	}
	products, err := c.CreateTable(&dbimadg.TableSpec{
		Name:   "PRODUCTS",
		Tenant: 1,
		Columns: []dbimadg.Column{
			{Name: "product_id", Kind: dbimadg.NumberKind},
			{Name: "category", Kind: dbimadg.VarcharKind},
		},
		IdentityCol:  0,
		PartitionCol: -1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Placement policy (the paper's three services):
	//  - every SALES month on the standby,
	//  - only the current month (December) additionally on the primary,
	//  - the dimension table on both for join-friendly access.
	for m := 1; m <= monthsOfData; m++ {
		svc := dbimadg.ServiceStandbyOnly
		if m == monthsOfData {
			svc = dbimadg.ServicePrimaryAndStandby
		}
		if err := c.AlterInMemory(1, "SALES", fmt.Sprintf("M%02d", m),
			dbimadg.InMemoryAttr{Enabled: true, Service: svc, Priority: m}); err != nil {
			log.Fatal(err)
		}
	}
	if err := c.AlterInMemory(1, "PRODUCTS", "",
		dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServicePrimaryAndStandby}); err != nil {
		log.Fatal(err)
	}

	// Load a year of sales and a product catalog.
	rng := rand.New(rand.NewSource(7))
	pri := c.PrimarySession(0)
	ps := products.Schema()
	tx, _ := pri.Begin()
	categories := []string{"tools", "garden", "kitchen", "sports"}
	for pid := int64(0); pid < 100; pid++ {
		r := dbimadg.NewRow(ps)
		r.Nums[0] = pid
		r.Strs[0] = categories[pid%4]
		if _, err := tx.Insert(products, r); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		log.Fatal(err)
	}
	ss := sales.Schema()
	const rowsPerMonth = 4000
	id := int64(0)
	for m := int64(1); m <= monthsOfData; m++ {
		tx, _ := pri.Begin()
		for i := 0; i < rowsPerMonth; i++ {
			r := dbimadg.NewRow(ss)
			r.Nums[0] = id
			r.Nums[1] = m
			r.Nums[2] = rng.Int63n(100)
			r.Nums[3] = rng.Int63n(500)
			id++
			if _, err := tx.Insert(sales, r); err != nil {
				log.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			log.Fatal(err)
		}
	}
	if !c.WaitStandbyCaughtUp(60*time.Second) || !c.WaitPopulated(60*time.Second) {
		log.Fatal("replication/population did not settle")
	}

	st := c.Stats()
	fmt.Printf("capacity expansion in effect:\n")
	fmt.Printf("  primary IMCS: %6d rows in %2d IMCUs (December + dimension)\n",
		st.PrimaryStore.Rows, st.PrimaryStore.Units)
	fmt.Printf("  standby IMCS: %6d rows in %2d IMCUs (full year + dimension)\n",
		st.StandbyStore.Rows, st.StandbyStore.Units)

	// Operational query on the primary — current month only, served by the
	// primary's IMCS (partition pruning keeps it off the cold months).
	dec, err := pri.Query(&dbimadg.Query{
		Table:   sales,
		Filters: []dbimadg.Filter{dbimadg.EqNum(1, monthsOfData)},
		Aggs:    []dbimadg.AggSpec{{Kind: dbimadg.AggSum, Col: 3}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("primary:  SUM(amount) December        = %8d  (%d rows, fromIMCS=%d)\n",
		dec.Sum, dec.Count, dec.FromIMCS)

	// Reporting on the standby — whole-year aggregate, columnar all the way.
	sSales, err := c.StandbyTable(1, "SALES")
	if err != nil {
		log.Fatal(err)
	}
	sby := c.StandbySession()
	year, err := sby.Query(&dbimadg.Query{
		Table: sSales, Aggs: []dbimadg.AggSpec{{Kind: dbimadg.AggSum, Col: 3}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("standby:  SUM(amount) full year       = %8d  (%d rows, fromIMCS=%d)\n",
		year.Sum, year.Count, year.FromIMCS)

	// A month-range report, pruned by partition and storage indexes.
	h1, err := sby.Query(&dbimadg.Query{
		Table:   sSales,
		Filters: []dbimadg.Filter{{Col: 1, Op: dbimadg.LE, Num: 6}},
		Aggs:    []dbimadg.AggSpec{{Kind: dbimadg.AggCount}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("standby:  COUNT(*) months 1-6         = %8d  (fromIMCS=%d)\n",
		h1.Count, h1.FromIMCS)
}
