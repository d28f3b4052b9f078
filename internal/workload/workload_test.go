package workload

import (
	"math/rand"
	"testing"
	"time"

	"dbimadg/internal/primary"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
)

func TestWideTableSpecShape(t *testing.T) {
	spec := WideTableSpec("C101", 1)
	if len(spec.Columns) != 101 {
		t.Fatalf("columns = %d, want 101", len(spec.Columns))
	}
	if spec.Columns[0].Name != "id" || spec.IdentityCol != 0 {
		t.Fatal("identity column wrong")
	}
	nums, strs := 0, 0
	for _, c := range spec.Columns {
		switch c.Kind {
		case 0: // KindNumber
			nums++
		default:
			strs++
		}
	}
	if nums != 51 || strs != 50 { // 50 number columns + identity
		t.Fatalf("kinds = %d/%d, want 51/50", nums, strs)
	}
}

func TestMixesSumTo100(t *testing.T) {
	for _, m := range []Mix{UpdateOnly, UpdateInsert, ScanOnly} {
		if m.total() != 100 {
			t.Fatalf("mix %+v sums to %d", m, m.total())
		}
	}
}

func TestFillRowDomains(t *testing.T) {
	spec := WideTableSpec("C101", 1)
	pri := primary.NewCluster(1, 64)
	tbl, err := pri.Instance(0).CreateTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	r := FillRow(tbl.Schema(), 42, rng)
	if r.Nums[0] != 42 {
		t.Fatal("identity not set")
	}
	for _, v := range r.Nums[1:] {
		if v < 0 || v >= NumDomain {
			t.Fatalf("number out of domain: %d", v)
		}
	}
	for _, s := range r.Strs {
		if len(s) == 0 {
			t.Fatal("empty varchar value")
		}
	}
}

func TestDriverLoadAndRun(t *testing.T) {
	pri := primary.NewCluster(1, 64)
	tbl, err := pri.Instance(0).CreateTable(WideTableSpec("C101", 1))
	if err != nil {
		t.Fatal(err)
	}
	d := &Driver{
		Pri: pri, Table: tbl, Mix: UpdateInsert,
		Threads: 2, Seed: 1, TargetOps: 2000,
		ScanExec:  scanengine.NewExecutor(pri.Txns()),
		ScanTable: tbl,
		ScanSnap:  func() scn.SCN { return pri.Snapshot() },
	}
	if err := d.Load(1000); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops == 0 || rep.Updates == 0 || rep.Inserts == 0 || rep.Fetches == 0 {
		t.Fatalf("mix not exercised: %+v", rep)
	}
	// Pacing keeps achieved throughput near the target (within slack for CI
	// noise; the key property is that it does not run unthrottled).
	if rep.AchievedOps > 3*float64(d.TargetOps) {
		t.Fatalf("throughput unpaced: %.0f ops/s", rep.AchievedOps)
	}
	// Rows inserted during the run extend the identity space.
	if d.rows.Load() <= 1000 {
		t.Fatal("inserts did not extend the table")
	}
}

func TestDriverScansRecorded(t *testing.T) {
	pri := primary.NewCluster(1, 64)
	tbl, _ := pri.Instance(0).CreateTable(WideTableSpec("C101", 1))
	d := &Driver{
		Pri: pri, Table: tbl,
		Mix:       Mix{ScanPct: 50, FetchPct: 50},
		Threads:   1,
		Seed:      2,
		ScanExec:  scanengine.NewExecutor(pri.Txns()),
		ScanTable: tbl,
		ScanSnap:  func() scn.SCN { return pri.Snapshot() },
	}
	if err := d.Load(200); err != nil {
		t.Fatal(err)
	}
	rep, err := d.Run(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scans == 0 {
		t.Fatal("no scans ran")
	}
	if rep.Q1.Count+rep.Q2.Count != uint64(rep.Scans) {
		t.Fatalf("latencies %d+%d != scans %d", rep.Q1.Count, rep.Q2.Count, rep.Scans)
	}
}

func TestDriverValidation(t *testing.T) {
	pri := primary.NewCluster(1, 64)
	tbl, _ := pri.Instance(0).CreateTable(WideTableSpec("C101", 1))
	d := &Driver{Pri: pri, Table: tbl, Mix: Mix{UpdatePct: 50}}
	if _, err := d.Run(10 * time.Millisecond); err == nil {
		t.Fatal("bad mix accepted")
	}
	d2 := &Driver{Pri: pri, Table: tbl, Mix: Mix{ScanPct: 100}, Threads: 1}
	d2.SetLoaded(10)
	if _, err := d2.Run(10 * time.Millisecond); err == nil {
		t.Fatal("scan mix without scan side accepted")
	}
}
