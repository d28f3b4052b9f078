package dbimadg_test

import (
	"errors"
	"testing"
	"time"

	"dbimadg"
)

func fleetCfg(readers int) dbimadg.Config {
	cfg := quickCfg()
	cfg.FleetReaders = readers
	return cfg
}

// TestRoutedSessionEndToEnd is the quickstart path: a fleet reader serves a
// routed query from its own column store, QuerySQL works over it, and the
// session snapshot tracks the reader's published QuerySCN.
func TestRoutedSessionEndToEnd(t *testing.T) {
	c, err := dbimadg.Open(fleetCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, _ := c.CreateTable(simpleSpec("T", 1))
	if err := c.AlterInMemory(1, "T", "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly}); err != nil {
		t.Fatal(err)
	}
	insertRows(t, c, tbl, 0, 300)
	if !c.WaitStandbyCaughtUp(10 * time.Second) {
		t.Fatalf("standby lagging: %+v", c.Stats())
	}
	if !c.WaitFleetReady(10 * time.Second) {
		t.Fatalf("fleet never Ready: %+v", c.Fleet().Stats())
	}

	sTbl, _ := c.StandbyTable(1, "T")
	sess := c.RoutedSession(dbimadg.RouterOptions{Wait: 10 * time.Second})
	// Fleet readers trail asynchronously: carry the master's published SCN as
	// a freshness token so the count below is deterministic.
	sess.SetToken(c.StandbySession().Snapshot())
	res, err := sess.Query(&dbimadg.Query{Table: sTbl, Aggs: []dbimadg.AggSpec{{Kind: dbimadg.AggCount}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 300 {
		t.Fatalf("routed count = %d, want 300", res.Count)
	}
	if sess.LastSnapshot() == 0 {
		t.Fatal("LastSnapshot not recorded")
	}
	sres, err := sess.QuerySQL(sTbl, "SELECT COUNT(*) FROM T WHERE n1 = :v", map[string]dbimadg.Bind{"v": dbimadg.NumBind(3)})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Count != 30 {
		t.Fatalf("routed SQL count = %d, want 30", sres.Count)
	}
	// Router totals surfaced for observability.
	if tot := c.Router().Totals(); tot.Placed < 2 {
		t.Fatalf("router totals = %+v, want >= 2 placed", tot)
	}
}

// TestRoutedReadYourWrites: a commit's SCN handed to SetToken guarantees
// every subsequent routed query runs at a snapshot at or past it — across
// repeated routing and a reader removal that forces re-placement.
func TestRoutedReadYourWrites(t *testing.T) {
	c, err := dbimadg.Open(fleetCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, _ := c.CreateTable(simpleSpec("T", 1))
	_ = c.AlterInMemory(1, "T", "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly})
	insertRows(t, c, tbl, 0, 100)
	if !c.WaitStandbyCaughtUp(10*time.Second) || !c.WaitFleetReady(10*time.Second) {
		t.Fatalf("fleet sync failed: %+v", c.Fleet().Stats())
	}
	sTbl, _ := c.StandbyTable(1, "T")
	sess := c.RoutedSession(dbimadg.RouterOptions{Wait: 10 * time.Second})

	// Commit, carry the token, and require the write to be visible.
	psess := c.PrimarySession(0)
	s := tbl.Schema()
	var token dbimadg.SCN
	for round := 0; round < 5; round++ {
		tx, err := psess.Begin()
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 10; i++ {
			r := dbimadg.NewRow(s)
			r.Nums[s.Col(0).Slot()] = int64(1000+round*10) + i
			r.Nums[s.Col(1).Slot()] = int64(round)
			if _, err := tx.Insert(tbl, r); err != nil {
				t.Fatal(err)
			}
		}
		token, err = tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		sess.SetToken(token)
		res, err := sess.Query(&dbimadg.Query{Table: sTbl, Aggs: []dbimadg.AggSpec{{Kind: dbimadg.AggCount}}})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if snap := sess.LastSnapshot(); snap < token {
			t.Fatalf("round %d: snapshot %d below token %d", round, snap, token)
		}
		if want := int64(100 + (round+1)*10); res.Count != want {
			t.Fatalf("round %d: routed count = %d, want %d (read-your-writes violated)", round, res.Count, want)
		}
		// Mid-test membership churn: drop to one reader; the token must hold
		// on whichever reader placements land on next.
		if round == 2 {
			c.ApplyFleet(dbimadg.FleetSpec{Readers: 1})
		}
	}
	if sess.Token() != token {
		t.Fatalf("token = %d, want %d (monotone floor)", sess.Token(), token)
	}
	// A stale token never lowers the floor.
	sess.SetToken(1)
	if sess.Token() != token {
		t.Fatal("SetToken lowered the monotone floor")
	}
}

// TestRoutedReadYourWritesAcrossSwitchover: the token survives a role swap —
// after the fleet rebinds to the rebuilt standby, a commit on the promoted
// primary is visible to the session that carries its SCN.
func TestRoutedReadYourWritesAcrossSwitchover(t *testing.T) {
	c, err := dbimadg.Open(fleetCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, _ := c.CreateTable(simpleSpec("T", 1))
	_ = c.AlterInMemory(1, "T", "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly})
	insertRows(t, c, tbl, 0, 200)
	if !c.WaitStandbyCaughtUp(10*time.Second) || !c.WaitFleetReady(10*time.Second) {
		t.Fatal("fleet sync failed")
	}
	sess := c.RoutedSession(dbimadg.RouterOptions{Wait: 15 * time.Second})
	sTbl, _ := c.StandbyTable(1, "T")
	if _, err := sess.Query(&dbimadg.Query{Table: sTbl, Aggs: []dbimadg.AggSpec{{Kind: dbimadg.AggCount}}}); err != nil {
		t.Fatal(err)
	}
	preSnap := sess.LastSnapshot()

	if _, err := c.Switchover(); err != nil {
		t.Fatal(err)
	}
	if !c.WaitFleetReady(20 * time.Second) {
		t.Fatalf("fleet did not rebind after switchover: %+v", c.Fleet().Stats())
	}

	// New DML on the promoted node; its commit SCN is the session's token.
	pTbl, _ := c.PrimaryTable(1, "T")
	psess := c.PrimarySession(0)
	tx, err := psess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Schema()
	for i := int64(200); i < 250; i++ {
		r := dbimadg.NewRow(s)
		r.Nums[s.Col(0).Slot()] = i
		r.Nums[s.Col(1).Slot()] = i % 10
		if _, err := tx.Insert(pTbl, r); err != nil {
			t.Fatal(err)
		}
	}
	token, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	sess.SetToken(token)
	nTbl, _ := c.StandbyTable(1, "T")
	res, err := sess.Query(&dbimadg.Query{Table: nTbl, Aggs: []dbimadg.AggSpec{{Kind: dbimadg.AggCount}}})
	if err != nil {
		t.Fatalf("routed query after switchover: %v", err)
	}
	if snap := sess.LastSnapshot(); snap < token {
		t.Fatalf("post-switchover snapshot %d below token %d", snap, token)
	}
	if snap := sess.LastSnapshot(); snap < preSnap {
		t.Fatalf("snapshot went backwards across switchover: %d -> %d", preSnap, snap)
	}
	if res.Count != 250 {
		t.Fatalf("post-switchover routed count = %d, want 250", res.Count)
	}
}

// TestRoutedErrorsAfterFailover: a failover consumes the standby, so both
// the RAC reader path and the fleet router must fail with typed ErrNoReader
// that callers can match with errors.Is.
func TestRoutedErrorsAfterFailover(t *testing.T) {
	c, err := dbimadg.Open(fleetCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, _ := c.CreateTable(simpleSpec("T", 1))
	_ = c.AlterInMemory(1, "T", "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly})
	insertRows(t, c, tbl, 0, 100)
	if !c.WaitStandbyCaughtUp(10*time.Second) || !c.WaitFleetReady(10*time.Second) {
		t.Fatal("fleet sync failed")
	}
	sTbl, _ := c.StandbyTable(1, "T")
	sess := c.RoutedSession(dbimadg.RouterOptions{})
	if _, err := sess.Query(&dbimadg.Query{Table: sTbl, Aggs: []dbimadg.AggSpec{{Kind: dbimadg.AggCount}}}); err != nil {
		t.Fatal(err)
	}

	if _, err := c.Failover(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(&dbimadg.Query{Table: sTbl, Aggs: []dbimadg.AggSpec{{Kind: dbimadg.AggCount}}}); !errors.Is(err, dbimadg.ErrNoReader) {
		t.Fatalf("routed query after failover err = %v, want ErrNoReader", err)
	}
	if _, err := c.StandbyReaderSession(0); !errors.Is(err, dbimadg.ErrNoReader) {
		t.Fatalf("StandbyReaderSession after failover err = %v, want ErrNoReader", err)
	}
	if len(c.Fleet().Readers()) != 0 {
		t.Fatal("fleet readers survive a failover")
	}
}

// TestRoutedOverloadSheds saturates a one-slot fleet and requires typed
// shedding at the session API.
func TestRoutedOverloadSheds(t *testing.T) {
	cfg := fleetCfg(1)
	cfg.FleetMaxConcurrentScans = 1
	cfg.FleetQueueDepth = 1
	cfg.FleetQueueTimeout = 5 * time.Millisecond
	c, err := dbimadg.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tbl, _ := c.CreateTable(simpleSpec("T", 1))
	_ = c.AlterInMemory(1, "T", "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly})
	insertRows(t, c, tbl, 0, 100)
	if !c.WaitStandbyCaughtUp(10*time.Second) || !c.WaitFleetReady(10*time.Second) {
		t.Fatal("fleet sync failed")
	}
	// Hold the only slot via the router, then drive session queries into it.
	p, err := c.Router().Place(dbimadg.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	parked := make(chan struct{})
	go func() { // occupies the queue slot until its deadline
		defer close(parked)
		_, _ = c.Router().Place(dbimadg.RouterOptions{})
	}()
	sTbl, _ := c.StandbyTable(1, "T")
	sess := c.RoutedSession(dbimadg.RouterOptions{})
	deadline := time.Now().Add(2 * time.Second)
	var qerr error
	for time.Now().Before(deadline) {
		_, qerr = sess.Query(&dbimadg.Query{Table: sTbl, Aggs: []dbimadg.AggSpec{{Kind: dbimadg.AggCount}}})
		if errors.Is(qerr, dbimadg.ErrOverloaded) {
			break
		}
	}
	if !errors.Is(qerr, dbimadg.ErrOverloaded) {
		t.Fatalf("saturated routed query err = %v, want ErrOverloaded", qerr)
	}
	<-parked
}
