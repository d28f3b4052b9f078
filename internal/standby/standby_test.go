package standby_test

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"dbimadg/internal/primary"
	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
	"dbimadg/internal/standby"
	"dbimadg/internal/testutil"
	"dbimadg/internal/transport"
)

var colors = []string{"red", "green", "blue", "amber"}

type pair struct {
	pri *primary.Cluster
	sby *standby.Instance
	tbl *rowstore.Table
}

// newPair wires a primary (nPri instances) to a standby over the in-process
// transport, creates the paper's test table shape (scaled down), and enables
// INMEMORY for the given service.
func newPair(t *testing.T, nPri int, cfg standby.Config, inmemService string) *pair {
	t.Helper()
	pri := primary.NewCluster(nPri, 32)
	cfg.RowsPerBlock = 32
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = time.Millisecond
	}
	if cfg.PopulationInterval == 0 {
		cfg.PopulationInterval = time.Millisecond
	}
	if cfg.BlocksPerIMCU == 0 {
		cfg.BlocksPerIMCU = 8
	}
	sby := standby.New(cfg)
	var streams []*redo.Stream
	for _, inst := range pri.Instances() {
		streams = append(streams, inst.Stream())
	}
	sby.Attach(transport.NewInProc(streams...))
	sby.Start()
	t.Cleanup(func() { sby.Stop() })
	if nPri > 1 {
		pri.StartHeartbeats(500 * time.Microsecond)
		t.Cleanup(pri.Close)
	}

	tbl, err := pri.Instance(0).CreateTable(&rowstore.TableSpec{
		Name:   "C101",
		Tenant: 1,
		Columns: []rowstore.Column{
			{Name: "id", Kind: rowstore.KindNumber},
			{Name: "n1", Kind: rowstore.KindNumber},
			{Name: "c1", Kind: rowstore.KindVarchar},
		},
		IdentityCol:  0,
		PartitionCol: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if inmemService != "" {
		if err := pri.Instance(0).AlterInMemory(1, "C101", "", rowstore.InMemoryAttr{Enabled: true, Service: inmemService}); err != nil {
			t.Fatal(err)
		}
	}
	return &pair{pri: pri, sby: sby, tbl: tbl}
}

func (p *pair) insert(t *testing.T, from, to int64) {
	t.Helper()
	s := p.tbl.Schema()
	tx := p.pri.Instance(0).Begin()
	for i := from; i < to; i++ {
		r := rowstore.NewRow(s)
		r.Nums[s.Col(0).Slot()] = i
		r.Nums[s.Col(1).Slot()] = i % 100
		r.Strs[s.Col(2).Slot()] = colors[i%int64(len(colors))]
		if _, err := tx.Insert(p.tbl, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// catchUp waits until the standby QuerySCN reaches the primary's current SCN.
func (p *pair) catchUp(t *testing.T) scn.SCN {
	t.Helper()
	target := p.pri.Snapshot()
	if !p.sby.WaitForSCN(target, 10*time.Second) {
		t.Fatalf("standby did not catch up: QuerySCN=%d target=%d stats=%+v",
			p.sby.QuerySCN(), target, p.sby.Stats())
	}
	return target
}

// sbyTable resolves the standby's replica of the test table.
func (p *pair) sbyTable(t *testing.T) *rowstore.Table {
	t.Helper()
	tbl, err := p.sby.DB().Table(1, "C101")
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// scanKey runs a full scan and canonicalizes the result.
func scanKey(t *testing.T, ex *scanengine.Executor, tbl *rowstore.Table, snap scn.SCN, filters ...scanengine.Filter) string {
	t.Helper()
	res, err := ex.Run(&scanengine.Query{Table: tbl, Filters: filters}, snap)
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Schema()
	keys := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		keys = append(keys, fmt.Sprintf("%d:%d:%s", r.Num(s, 0), r.Num(s, 1), r.Str(s, 2)))
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k + ";"
	}
	return out
}

func TestPhysicalReplication(t *testing.T) {
	p := newPair(t, 1, standby.Config{}, "")
	p.insert(t, 0, 200)
	snap := p.catchUp(t)

	priEx := scanengine.NewExecutor(p.pri.Txns())
	sbyEx := scanengine.NewExecutor(p.sby.Txns())
	a := scanKey(t, priEx, p.tbl, snap)
	b := scanKey(t, sbyEx, p.sbyTable(t), p.sby.QuerySCN())
	if a != b {
		t.Fatalf("replica diverged:\nprimary: %.120s\nstandby: %.120s", a, b)
	}
	// Identity index replicated.
	sTbl := p.sbyTable(t)
	if sTbl.Index().Len() != 200 {
		t.Fatalf("standby index entries = %d, want 200", sTbl.Index().Len())
	}
	if p.sby.Stats().RecordsApplied == 0 {
		t.Fatal("no records applied")
	}
}

func TestStandbyIMCSServesQueries(t *testing.T) {
	p := newPair(t, 1, standby.Config{}, "standby")
	p.insert(t, 0, 500)
	p.catchUp(t)
	if !p.sby.Engine().WaitIdle(10 * time.Second) {
		t.Fatal("standby population did not settle")
	}
	sTbl := p.sbyTable(t)
	ex := scanengine.NewExecutor(p.sby.Txns(), p.sby.Store())
	res, err := ex.Run(&scanengine.Query{
		Table:   sTbl,
		Filters: []scanengine.Filter{scanengine.EqNum(1, 42)},
	}, p.sby.QuerySCN())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	if res.FromIMCS != 5 {
		t.Fatalf("IMCS served %d rows, want 5 (stats %+v)", res.FromIMCS, p.sby.Store().Stats())
	}
}

func TestInvalidationFlowEndToEnd(t *testing.T) {
	p := newPair(t, 1, standby.Config{}, "standby")
	p.insert(t, 0, 300)
	p.catchUp(t)
	p.sby.Engine().WaitIdle(10 * time.Second)

	// Update rows on the primary; the standby must invalidate and serve the
	// new values at the advanced QuerySCN.
	s := p.tbl.Schema()
	tx := p.pri.Instance(0).Begin()
	for _, id := range []int64{5, 50, 150, 250} {
		if err := tx.UpdateByID(p.tbl, id, []uint16{1}, func(r *rowstore.Row) {
			r.Nums[s.Col(1).Slot()] = 9999
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	p.catchUp(t)

	sTbl := p.sbyTable(t)
	ex := scanengine.NewExecutor(p.sby.Txns(), p.sby.Store())
	res, err := ex.Run(&scanengine.Query{
		Table:   sTbl,
		Filters: []scanengine.Filter{scanengine.EqNum(1, 9999)},
	}, p.sby.QuerySCN())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("updated rows visible = %d, want 4 (stats %+v)", len(res.Rows), p.sby.Stats())
	}
	// The flush said what changed: the stale IMCU rows are patched from the
	// unit's column delta, and nothing goes to the row store.
	if res.FromDelta != 4 || res.FromRowStore != 0 {
		t.Fatalf("updated rows must come from the column delta, got FromDelta=%d FromRowStore=%d", res.FromDelta, res.FromRowStore)
	}
	st := p.sby.Stats()
	if st.MinedRecords == 0 || st.FlushedRecords == 0 {
		t.Fatalf("mining/flush pipeline inactive: %+v", st)
	}
	// Journal anchors are released after flush.
	if st.JournalTxns != 0 {
		t.Fatalf("journal still holds %d transactions", st.JournalTxns)
	}
}

func TestQuerySCNNeverExceedsApplied(t *testing.T) {
	p := newPair(t, 1, standby.Config{}, "standby")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := p.tbl.Schema()
		id := int64(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx := p.pri.Instance(0).Begin()
			for k := 0; k < 5; k++ {
				r := rowstore.NewRow(s)
				r.Nums[s.Col(0).Slot()] = id
				id++
				_, _ = tx.Insert(p.tbl, r)
			}
			_, _ = tx.Commit()
		}
	}()
	prev := scn.SCN(0)
	for i := 0; i < 200; i++ {
		st := p.sby.Stats()
		if st.QuerySCN < prev {
			t.Fatal("QuerySCN moved backwards")
		}
		prev = st.QuerySCN
		if st.QuerySCN > st.AppliedWatermark {
			t.Fatalf("QuerySCN %d beyond applied watermark %d", st.QuerySCN, st.AppliedWatermark)
		}
		time.Sleep(500 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
}

// TestConsistencyUnderLoad is invariant #1 of DESIGN.md: at any published
// QuerySCN, a hybrid IMCS scan on the standby equals the primary's CR scan at
// the same SCN — while OLTP continuously modifies the table.
func TestConsistencyUnderLoad(t *testing.T) {
	p := newPair(t, 1, standby.Config{}, "standby")
	p.insert(t, 0, 400)
	s := p.tbl.Schema()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // OLTP: updates + inserts, throttled like the paper's workload
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		nextID := int64(400)
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			tx := p.pri.Instance(0).Begin()
			for k := 0; k < 8; k++ {
				if rng.Intn(4) == 0 {
					r := rowstore.NewRow(s)
					r.Nums[s.Col(0).Slot()] = nextID
					r.Nums[s.Col(1).Slot()] = rng.Int63n(100)
					r.Strs[s.Col(2).Slot()] = colors[rng.Intn(len(colors))]
					if _, err := tx.Insert(p.tbl, r); err != nil {
						t.Error(err)
						return
					}
					nextID++
				} else {
					id := rng.Int63n(400)
					if err := tx.UpdateByID(p.tbl, id, []uint16{1}, func(r *rowstore.Row) {
						r.Nums[s.Col(1).Slot()] = rng.Int63n(100)
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if _, err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	priEx := scanengine.NewExecutor(p.pri.Txns())
	sbyEx := scanengine.NewExecutor(p.sby.Txns(), p.sby.Store())
	testutil.Eventually(t, 5*time.Second, func() bool { return p.sby.QuerySCN() > 0 },
		"standby never published a QuerySCN")
	deadline := time.Now().Add(3 * time.Second)
	checks := 0
	for time.Now().Before(deadline) {
		q := p.sby.QuerySCN()
		sTbl := p.sbyTable(t)
		a := scanKey(t, sbyEx, sTbl, q)
		b := scanKey(t, priEx, p.tbl, q)
		if a != b {
			t.Fatalf("standby scan at QuerySCN %d diverges from primary CR scan", q)
		}
		checks++
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if checks < 10 {
		t.Fatalf("only %d consistency checks ran", checks)
	}
	t.Logf("consistency checks: %d, stats: %+v", checks, p.sby.Stats())
}

func TestRACPrimaryTwoThreads(t *testing.T) {
	p := newPair(t, 2, standby.Config{}, "standby")
	s := p.tbl.Schema()
	// Interleave transactions across both primary instances.
	for i := int64(0); i < 50; i++ {
		inst := p.pri.Instance(int(i % 2))
		tx := inst.Begin()
		r := rowstore.NewRow(s)
		r.Nums[s.Col(0).Slot()] = i
		r.Nums[s.Col(1).Slot()] = i
		if _, err := tx.Insert(p.tbl, r); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	snap := p.catchUp(t)
	priEx := scanengine.NewExecutor(p.pri.Txns())
	sbyEx := scanengine.NewExecutor(p.sby.Txns())
	a := scanKey(t, priEx, p.tbl, snap)
	b := scanKey(t, sbyEx, p.sbyTable(t), p.sby.QuerySCN())
	if a != b {
		t.Fatal("two-thread merge diverged")
	}
}

func TestDDLTruncateDropsIMCUs(t *testing.T) {
	p := newPair(t, 1, standby.Config{}, "standby")
	p.insert(t, 0, 200)
	p.catchUp(t)
	p.sby.Engine().WaitIdle(10 * time.Second)
	obj := p.sbyTable(t).Segments()[0].Obj()
	if len(p.sby.Store().Units(obj)) == 0 {
		t.Fatal("nothing populated before DDL")
	}
	if err := p.pri.Instance(0).Truncate(1, "C101", ""); err != nil {
		t.Fatal(err)
	}
	p.catchUp(t)
	// The standby replica is empty and the IMCUs were dropped at the
	// consistency point... repopulation may race to recreate empty units, so
	// check data correctness rather than unit absence.
	sTbl := p.sbyTable(t)
	ex := scanengine.NewExecutor(p.sby.Txns(), p.sby.Store())
	res, err := ex.Run(&scanengine.Query{Table: sTbl}, p.sby.QuerySCN())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("%d rows visible after truncate", len(res.Rows))
	}
	if sTbl.Index().Len() != 0 {
		t.Fatal("standby index not cleared by truncate")
	}
}

func TestDDLDropColumn(t *testing.T) {
	p := newPair(t, 1, standby.Config{}, "standby")
	p.insert(t, 0, 100)
	p.catchUp(t)
	p.sby.Engine().WaitIdle(10 * time.Second)
	if err := p.pri.Instance(0).DropColumn(1, "C101", "n1"); err != nil {
		t.Fatal(err)
	}
	p.catchUp(t)
	sTbl := p.sbyTable(t)
	if sTbl.Schema().ColIndex("n1") != -1 {
		t.Fatal("standby schema still has dropped column")
	}
	// Scans on the new schema still work (row count preserved; data served
	// from the row store until repopulation rebuilds IMCUs on the new schema).
	ex := scanengine.NewExecutor(p.sby.Txns(), p.sby.Store())
	res, err := ex.Run(&scanengine.Query{Table: sTbl}, p.sby.QuerySCN())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 100 {
		t.Fatalf("rows after drop column = %d, want 100", len(res.Rows))
	}
}

func TestAlterInMemoryDisableDropsUnits(t *testing.T) {
	p := newPair(t, 1, standby.Config{}, "standby")
	p.insert(t, 0, 100)
	p.catchUp(t)
	p.sby.Engine().WaitIdle(10 * time.Second)
	obj := p.sbyTable(t).Segments()[0].Obj()
	if len(p.sby.Store().Units(obj)) == 0 {
		t.Fatal("not populated")
	}
	if err := p.pri.Instance(0).AlterInMemory(1, "C101", "", rowstore.InMemoryAttr{Enabled: false}); err != nil {
		t.Fatal(err)
	}
	p.insert(t, 100, 110)
	p.catchUp(t)
	// The disable drops existing units; population passes must not rebuild.
	if !testutil.WaitFor(5*time.Second, 0, func() bool { return len(p.sby.Store().Units(obj)) == 0 }) {
		t.Fatalf("%d units remain after INMEMORY disable", len(p.sby.Store().Units(obj)))
	}
}

func TestRestartCoarseInvalidation(t *testing.T) {
	p := newPair(t, 1, standby.Config{}, "standby")
	p.insert(t, 0, 200)
	p.catchUp(t)

	// Begin a transaction and update rows (redo flows), but do not commit.
	s := p.tbl.Schema()
	longTx := p.pri.Instance(0).Begin()
	for _, id := range []int64{1, 2, 3} {
		if err := longTx.UpdateByID(p.tbl, id, []uint16{1}, func(r *rowstore.Row) {
			r.Nums[s.Col(1).Slot()] = 4242
		}); err != nil {
			t.Fatal(err)
		}
	}
	p.catchUp(t) // partial transaction mined into the journal

	// Restart the standby: journal/IMCS state is lost.
	var streams []*redo.Stream
	for _, inst := range p.pri.Instances() {
		streams = append(streams, inst.Stream())
	}
	if err := p.sby.Restart(transport.NewInProc(streams...)); err != nil {
		t.Fatalf("restart: %v", err)
	}

	// Repopulate after restart, then commit the partial transaction.
	if !p.sby.Engine().WaitIdle(10 * time.Second) {
		t.Fatal("repopulation after restart did not settle")
	}
	unitsBefore := p.sby.Store().Stats().PopulatedUnits
	if unitsBefore == 0 {
		t.Fatal("no units populated after restart")
	}
	if _, err := longTx.Commit(); err != nil {
		t.Fatal(err)
	}
	p.catchUp(t)
	st := p.sby.Stats()
	if st.CoarseInvals == 0 {
		t.Fatalf("coarse invalidation did not fire after restart: %+v", st)
	}
	// Correctness: the updated values are visible on the standby.
	sTbl := p.sbyTable(t)
	ex := scanengine.NewExecutor(p.sby.Txns(), p.sby.Store())
	res, err := ex.Run(&scanengine.Query{
		Table:   sTbl,
		Filters: []scanengine.Filter{scanengine.EqNum(1, 4242)},
	}, p.sby.QuerySCN())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("post-restart rows = %d, want 3", len(res.Rows))
	}
}

func TestRestartWithoutPartialTxnNoCoarse(t *testing.T) {
	p := newPair(t, 1, standby.Config{}, "standby")
	p.insert(t, 0, 100)
	p.catchUp(t)
	var streams []*redo.Stream
	for _, inst := range p.pri.Instances() {
		streams = append(streams, inst.Stream())
	}
	if err := p.sby.Restart(transport.NewInProc(streams...)); err != nil {
		t.Fatalf("restart: %v", err)
	}
	p.insert(t, 100, 150) // complete transactions after restart
	p.catchUp(t)
	if st := p.sby.Stats(); st.CoarseInvals != 0 {
		t.Fatalf("spurious coarse invalidation: %+v", st)
	}
	sTbl := p.sbyTable(t)
	ex := scanengine.NewExecutor(p.sby.Txns(), p.sby.Store())
	res, _ := ex.Run(&scanengine.Query{Table: sTbl}, p.sby.QuerySCN())
	if len(res.Rows) != 150 {
		t.Fatalf("rows after restart = %d, want 150", len(res.Rows))
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	pri := primary.NewCluster(1, 32)
	tbl, err := pri.Instance(0).CreateTable(&rowstore.TableSpec{
		Name: "T", Tenant: 1,
		Columns:     []rowstore.Column{{Name: "id", Kind: rowstore.KindNumber}},
		IdentityCol: 0, PartitionCol: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = pri.Instance(0).AlterInMemory(1, "T", "", rowstore.InMemoryAttr{Enabled: true, Service: "standby"})
	tx := pri.Instance(0).Begin()
	s := tbl.Schema()
	for i := int64(0); i < 100; i++ {
		r := rowstore.NewRow(s)
		r.Nums[0] = i
		if _, err := tx.Insert(tbl, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(ln, pri.Instance(0).Stream())
	defer srv.Close()
	rcv, err := transport.Connect(srv.Addr(), []uint16{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()

	sby := standby.New(standby.Config{
		RowsPerBlock: 32, CheckpointInterval: time.Millisecond,
		PopulationInterval: time.Millisecond, BlocksPerIMCU: 8,
	})
	sby.Attach(rcv)
	sby.Start()
	defer sby.Stop()

	if !sby.WaitForSCN(pri.Snapshot(), 10*time.Second) {
		t.Fatalf("standby over TCP did not catch up: %+v", sby.Stats())
	}
	sTbl, err := sby.DB().Table(1, "T")
	if err != nil {
		t.Fatal(err)
	}
	ex := scanengine.NewExecutor(sby.Txns(), sby.Store())
	res, err := ex.Run(&scanengine.Query{Table: sTbl}, sby.QuerySCN())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 100 {
		t.Fatalf("rows over TCP = %d, want 100", len(res.Rows))
	}
}

func TestSerialFlushAblationStillCorrect(t *testing.T) {
	p := newPair(t, 1, standby.Config{DisableCoopFlush: true}, "standby")
	p.insert(t, 0, 200)
	p.catchUp(t)
	p.sby.Engine().WaitIdle(10 * time.Second)
	s := p.tbl.Schema()
	tx := p.pri.Instance(0).Begin()
	for i := int64(0); i < 50; i++ {
		_ = tx.UpdateByID(p.tbl, i, []uint16{1}, func(r *rowstore.Row) { r.Nums[s.Col(1).Slot()] = -5 })
	}
	_, _ = tx.Commit()
	p.catchUp(t)
	ex := scanengine.NewExecutor(p.sby.Txns(), p.sby.Store())
	res, err := ex.Run(&scanengine.Query{
		Table:   p.sbyTable(t),
		Filters: []scanengine.Filter{scanengine.EqNum(1, -5)},
	}, p.sby.QuerySCN())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 {
		t.Fatalf("serial flush: rows = %d, want 50", len(res.Rows))
	}
}

func TestDeleteReplication(t *testing.T) {
	p := newPair(t, 1, standby.Config{}, "standby")
	p.insert(t, 0, 100)
	p.catchUp(t)
	tx := p.pri.Instance(0).Begin()
	for _, id := range []int64{10, 20, 30} {
		if err := tx.DeleteByID(p.tbl, id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	p.catchUp(t)
	sTbl := p.sbyTable(t)
	ex := scanengine.NewExecutor(p.sby.Txns(), p.sby.Store())
	res, err := ex.Run(&scanengine.Query{Table: sTbl}, p.sby.QuerySCN())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 97 {
		t.Fatalf("rows after deletes = %d, want 97", len(res.Rows))
	}
	// The identity index keeps a deleted row's entry — the delete could have been
	// rolled back; the Consistent Read behind a lookup is what hides the row.
	rid, ok := sTbl.Index().Get(10)
	if !ok || sTbl.Index().Len() != 100 {
		t.Fatalf("standby index: %d entries, id 10 present = %v; want all 100 kept", sTbl.Index().Len(), ok)
	}
	if _, visible := sTbl.Segments()[0].Block(rid.DBA.Block()).ReadRow(rid.Slot, p.sby.QuerySCN(), p.sby.Txns(), scn.InvalidTxn); visible {
		t.Fatal("deleted row still visible through its index entry")
	}
}
