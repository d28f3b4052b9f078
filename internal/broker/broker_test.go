package broker_test

import (
	"errors"
	"testing"
	"time"

	"dbimadg/internal/broker"
	"dbimadg/internal/fleet"
	"dbimadg/internal/primary"
	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/standby"
	"dbimadg/internal/transport"
)

type pair struct {
	pri *primary.Cluster
	sby *standby.Instance
	flt *fleet.Manager
	tbl *rowstore.Table
	brk *broker.Broker
}

func newPair(t *testing.T, readers int) *pair {
	t.Helper()
	pri := primary.NewCluster(1, 32)
	sby := standby.New(standby.Config{
		RowsPerBlock:       32,
		CheckpointInterval: time.Millisecond,
		PopulationInterval: time.Millisecond,
		BlocksPerIMCU:      4,
		HomeInstances:      readers + 1,
	})
	flt := fleet.NewManager(sby, fleet.Spec{})
	var streams []*redo.Stream
	for _, inst := range pri.Instances() {
		streams = append(streams, inst.Stream())
	}
	src := transport.NewInProc(streams...)
	sby.Attach(src)
	sby.Start()

	tbl, err := pri.Instance(0).CreateTable(&rowstore.TableSpec{
		Name: "T", Tenant: 1,
		Columns: []rowstore.Column{
			{Name: "id", Kind: rowstore.KindNumber},
			{Name: "n1", Kind: rowstore.KindNumber},
		},
		IdentityCol: 0, PartitionCol: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pri.Instance(0).AlterInMemory(1, "T", "", rowstore.InMemoryAttr{Enabled: true, Service: "standby"}); err != nil {
		t.Fatal(err)
	}
	brk := broker.New(broker.Config{
		Primary: pri,
		Standby: flt,
		Source:  src,
		StandbyConfig: standby.Config{
			CheckpointInterval: time.Millisecond,
			PopulationInterval: time.Millisecond,
			BlocksPerIMCU:      4,
			HomeInstances:      readers + 1,
		},
	})
	return &pair{pri: pri, sby: sby, flt: flt, tbl: tbl, brk: brk}
}

func (p *pair) insert(t *testing.T, from, to int64) {
	t.Helper()
	s := p.tbl.Schema()
	tx := p.pri.Instance(0).Begin()
	for i := from; i < to; i++ {
		r := rowstore.NewRow(s)
		r.Nums[s.Col(0).Slot()] = i
		r.Nums[s.Col(1).Slot()] = i % 10
		if _, err := tx.Insert(p.tbl, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func (p *pair) catchUp(t *testing.T) {
	t.Helper()
	if !p.sby.WaitForSCN(p.pri.Snapshot(), 10*time.Second) {
		t.Fatalf("standby did not catch up: %+v", p.sby.Stats())
	}
	p.sby.Engine().WaitIdle(10 * time.Second)
}

// countAt scans the promoted node's table through the retained store.
func countAt(t *testing.T, master *standby.Instance, newPri *primary.Cluster, obj rowstore.ObjID, tbl *rowstore.Table) int64 {
	t.Helper()
	ex := scanengine.NewExecutor(newPri.Txns(), master.Store())
	res, err := ex.Run(&scanengine.Query{Table: tbl, Agg: scanengine.AggCount}, newPri.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	_ = obj
	return res.Count
}

func TestFailoverPromotesWarm(t *testing.T) {
	p := newPair(t, 0)
	p.insert(t, 0, 300)
	p.catchUp(t)

	// One transaction begun but never committed: promotion must roll it back.
	s := p.tbl.Schema()
	tx := p.pri.Instance(0).Begin()
	r := rowstore.NewRow(s)
	r.Nums[s.Col(0).Slot()] = 9999
	if _, err := tx.Insert(p.tbl, r); err != nil {
		t.Fatal(err)
	}
	if !p.sby.WaitForSCN(p.pri.Snapshot(), 10*time.Second) {
		t.Fatal("in-flight redo did not ship")
	}

	res, err := p.brk.Failover()
	if err != nil {
		t.Fatal(err)
	}
	defer p.sby.Engine().Stop()
	if p.brk.State() != broker.StateFailedOver {
		t.Fatalf("state = %v", p.brk.State())
	}
	if res.PromotedSCN == 0 || res.WarmUnits == 0 {
		t.Fatalf("promotion not warm: %+v", res)
	}
	if res.RolledBackTxns != 1 {
		t.Fatalf("rolled back %d txns, want 1", res.RolledBackTxns)
	}
	newPri := p.brk.Promoted()
	if newPri == nil {
		t.Fatal("no promoted cluster")
	}

	// Replicated commits visible, in-flight row gone.
	pTbl, err := p.sby.DB().Table(1, "T")
	if err != nil {
		t.Fatal(err)
	}
	if got := countAt(t, p.sby, newPri, pTbl.Partitions()[0].Seg.Obj(), pTbl); got != 300 {
		t.Fatalf("post-promotion count = %d, want 300", got)
	}

	// The promoted node accepts new transactions with monotonically advancing
	// SCNs and fresh transaction ids.
	tx2 := newPri.Instance(0).Begin()
	r2 := rowstore.NewRow(s)
	r2.Nums[s.Col(0).Slot()] = 300
	if _, err := tx2.Insert(pTbl, r2); err != nil {
		t.Fatal(err)
	}
	commitSCN, err := tx2.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if commitSCN <= res.PromotedSCN {
		t.Fatalf("commit SCN %d not past promotion SCN %d", commitSCN, res.PromotedSCN)
	}
	if got := countAt(t, p.sby, newPri, pTbl.Partitions()[0].Seg.Obj(), pTbl); got != 301 {
		t.Fatalf("count after promoted-node DML = %d, want 301", got)
	}

	// Warmness: the restarted engine found nothing to populate.
	if got := p.sby.Engine().Stats().UnitsPopulated; got != 0 {
		t.Fatalf("restarted engine populated %d units over a warm store", got)
	}

	// The broker is a one-shot state machine.
	if _, err := p.brk.Failover(); err == nil {
		t.Fatal("second failover accepted")
	}
	if _, err := p.brk.Switchover(); err == nil {
		t.Fatal("switchover accepted after failover")
	}
}

func TestSwitchoverRebuildsStandby(t *testing.T) {
	p := newPair(t, 0)
	p.insert(t, 0, 200)
	p.catchUp(t)

	res, err := p.brk.Switchover()
	if err != nil {
		t.Fatal(err)
	}
	defer p.sby.Engine().Stop()
	defer res.NewStandby.Stop()
	defer p.flt.Shutdown()
	if p.brk.State() != broker.StateSwitchedOver {
		t.Fatalf("state = %v", p.brk.State())
	}
	if res.NewStandby == nil || p.brk.NewStandby() != res.NewStandby {
		t.Fatal("rebuilt standby not exposed")
	}
	newPri := p.brk.Promoted()

	// Redo from the promoted node reaches the rebuilt standby: the old
	// primary's database keeps applying past the promotion SCN.
	pTbl, err := p.sby.DB().Table(1, "T")
	if err != nil {
		t.Fatal(err)
	}
	s := pTbl.Schema()
	tx := newPri.Instance(0).Begin()
	for i := int64(200); i < 230; i++ {
		r := rowstore.NewRow(s)
		r.Nums[s.Col(0).Slot()] = i
		if _, err := tx.Insert(pTbl, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !res.NewStandby.WaitForSCN(newPri.Snapshot(), 10*time.Second) {
		t.Fatalf("rebuilt standby did not catch up: %+v", res.NewStandby.Stats())
	}
	oldTbl, err := res.NewStandby.DB().Table(1, "T")
	if err != nil {
		t.Fatal(err)
	}
	ex := scanengine.NewExecutor(res.NewStandby.Txns(), p.flt.Stores()...)
	got, err := ex.Run(&scanengine.Query{Table: oldTbl, Agg: scanengine.AggCount},
		res.NewStandby.QuerySCN())
	if err != nil {
		t.Fatal(err)
	}
	if got.Count != 230 {
		t.Fatalf("rebuilt standby count = %d, want 230", got.Count)
	}
}

// TestFailoverStopsReaders promotes a RAC standby: the reader instances are
// stopped and detached (the promoted master serves all block ranges itself),
// and the master's now-unfiltered engine repopulates the readers' abandoned
// home shares.
func TestFailoverStopsReaders(t *testing.T) {
	p := newPair(t, 2)
	p.insert(t, 0, 300)
	p.catchUp(t)
	for _, r := range p.flt.ShareReaders() {
		r.Engine().WaitIdle(10 * time.Second)
	}

	if _, err := p.brk.Failover(); err != nil {
		t.Fatal(err)
	}
	defer p.sby.Engine().Stop()
	if got := len(p.flt.ShareReaders()); got != 0 {
		t.Fatalf("%d readers still attached after failover", got)
	}
	newPri := p.brk.Promoted()
	pTbl, err := p.sby.DB().Table(1, "T")
	if err != nil {
		t.Fatal(err)
	}
	// The readers' home ranges were never in the master's store; the restarted
	// engine (no home filter) populates them now.
	p.sby.Engine().WaitIdle(10 * time.Second)
	if got := countAt(t, p.sby, newPri, pTbl.Partitions()[0].Seg.Obj(), pTbl); got != 300 {
		t.Fatalf("post-promotion count = %d, want 300", got)
	}
}

// TestSwitchoverReprovisionsReaders swaps roles on a standby with one
// home-share and one full-copy reader: the broker rebinds the manager to the
// rebuilt standby, which provisions both kinds again, and redo from the
// promoted node keeps all three stores consistent.
func TestSwitchoverReprovisionsReaders(t *testing.T) {
	p := newPair(t, 1)
	p.flt.SetReaders(1)
	p.insert(t, 0, 600)
	p.catchUp(t)
	oldShare, oldFull := p.flt.ShareReaders()[0], p.flt.Readers()[0]

	res, err := p.brk.Switchover()
	if err != nil {
		t.Fatal(err)
	}
	defer p.sby.Engine().Stop()
	defer res.NewStandby.Stop()
	defer p.flt.Shutdown()
	if oldShare.State() != fleet.StateGone || oldFull.State() != fleet.StateGone {
		t.Fatalf("old readers survive the promotion: share %v, full copy %v", oldShare.State(), oldFull.State())
	}
	if p.flt.Master() != res.NewStandby {
		t.Fatal("manager not rebound to the rebuilt standby")
	}
	if len(p.flt.ShareReaders()) != 1 || len(p.flt.Readers()) != 1 {
		t.Fatalf("rebuilt standby has %d share and %d full-copy readers, want 1/1",
			len(p.flt.ShareReaders()), len(p.flt.Readers()))
	}

	// DML on the promoted node reaches the rebuilt standby's three stores.
	newPri := p.brk.Promoted()
	pTbl, err := p.sby.DB().Table(1, "T")
	if err != nil {
		t.Fatal(err)
	}
	s := pTbl.Schema()
	tx := newPri.Instance(0).Begin()
	for id := int64(0); id < 600; id += 3 {
		if err := tx.UpdateByID(pTbl, id, []uint16{1}, func(r *rowstore.Row) {
			r.Nums[s.Col(1).Slot()] = -1
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	target := newPri.Snapshot()
	if !res.NewStandby.WaitForSCN(target, 10*time.Second) {
		t.Fatalf("rebuilt standby did not catch up: %+v", res.NewStandby.Stats())
	}
	full := p.flt.Readers()[0]
	deadline := time.Now().Add(10 * time.Second)
	for full.QuerySCN() < target && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	oldTbl, err := res.NewStandby.DB().Table(1, "T")
	if err != nil {
		t.Fatal(err)
	}
	q := &scanengine.Query{
		Table:   oldTbl,
		Filters: []scanengine.Filter{scanengine.EqNum(1, -1)},
		Agg:     scanengine.AggCount,
	}
	for name, ex := range map[string]*scanengine.Executor{
		"master + share": scanengine.NewExecutor(res.NewStandby.Txns(), p.flt.Stores()...),
		"full copy":      scanengine.NewExecutor(res.NewStandby.Txns(), full.Store()),
	} {
		got, err := ex.Run(q, target)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != 200 {
			t.Fatalf("%s: %d updated rows visible at %d, want 200", name, got.Count, target)
		}
	}
}

func TestBrokerConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a config without a standby")
		}
	}()
	broker.New(broker.Config{})
}

// TestSwitchoverReturnsRestartError: the rebuilt standby goes live through
// Restart, and a refusal there reaches the caller. With the old primary's
// reclaim floor past the promotion SCN, Install refuses every snapshot; the
// promotion stands, so the broker is left failed over.
func TestSwitchoverReturnsRestartError(t *testing.T) {
	p := newPair(t, 0)
	p.insert(t, 0, 50)
	p.catchUp(t)
	rowstore.SnapshotsOf(p.pri.Txns()).Reclaim(p.pri.Snapshot() + 1000)
	res, err := p.brk.Switchover()
	defer p.sby.Engine().Stop()
	if !errors.Is(err, rowstore.ErrSnapshotTooOld) || res != nil {
		t.Fatalf("switchover = %v, %v; want the rebuilt standby's ErrSnapshotTooOld", res, err)
	}
	if p.brk.State() != broker.StateFailedOver || p.brk.Promoted() == nil || p.brk.NewStandby() != nil {
		t.Fatalf("after a failed rebuild: state %v, promoted %v, new standby %v", p.brk.State(), p.brk.Promoted() != nil, p.brk.NewStandby() != nil)
	}
}

func TestSwitchoverNeedsPrimary(t *testing.T) {
	p := newPair(t, 0)
	p.brk = broker.New(broker.Config{Standby: p.flt})
	if _, err := p.brk.Switchover(); err == nil {
		t.Fatal("switchover accepted without a primary")
	}
	p.sby.Stop()
	p.pri.Close()
}

// TestBrokerMetrics asserts the role gauge flips and the transition histogram
// records the promotion.
func TestBrokerMetrics(t *testing.T) {
	p := newPair(t, 0)
	p.insert(t, 0, 50)
	p.catchUp(t)

	if v, ok := p.sby.Obs().GaugeValue("broker_role"); !ok || v != 0 {
		t.Fatalf("broker_role before failover = %v (%v), want 0", v, ok)
	}
	if _, err := p.brk.Failover(); err != nil {
		t.Fatal(err)
	}
	defer p.sby.Engine().Stop()
	if v, ok := p.sby.Obs().GaugeValue("broker_role"); !ok || v != 1 {
		t.Fatalf("broker_role after failover = %v (%v), want 1", v, ok)
	}
}
