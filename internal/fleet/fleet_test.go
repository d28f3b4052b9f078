package fleet_test

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"dbimadg/internal/fleet"
	"dbimadg/internal/primary"
	"dbimadg/internal/redo"
	"dbimadg/internal/router"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
	"dbimadg/internal/standby"
	"dbimadg/internal/testutil"
	"dbimadg/internal/transport"
)

type fleetPair struct {
	pri    *primary.Cluster
	master *standby.Instance
	tbl    *rowstore.Table
}

// newFleetPair builds a primary and a standby master whose home-location map
// has shares+1 instances: a manager over it provisions that many home-share
// readers. memLimit caps each column store (0 = unlimited).
func newFleetPair(t *testing.T, shares int, memLimit ...int) *fleetPair {
	t.Helper()
	cfg := standby.Config{CheckpointInterval: time.Millisecond, HomeInstances: shares + 1}
	if len(memLimit) > 0 {
		cfg.MemLimitBytes = memLimit[0]
	}
	return newFleetPairCfg(t, cfg)
}

// newFleetPairCfg is newFleetPair with the master's heartbeat, home-location
// map and memory limit taken from cfg.
func newFleetPairCfg(t *testing.T, cfg standby.Config) *fleetPair {
	t.Helper()
	pri := primary.NewCluster(1, 32)
	cfg.RowsPerBlock = 32
	cfg.PopulationInterval = time.Millisecond
	cfg.BlocksPerIMCU = 4
	master := standby.New(cfg)
	master.Attach(transport.NewInProc(priStreams(pri)...))
	master.Start()
	t.Cleanup(func() { master.Stop() })

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
	return &fleetPair{pri: pri, master: master, tbl: tbl}
}

func priStreams(pri *primary.Cluster) []*redo.Stream {
	var streams []*redo.Stream
	for _, inst := range pri.Instances() {
		streams = append(streams, inst.Stream())
	}
	return streams
}

func (p *fleetPair) manager(t *testing.T, spec fleet.Spec) *fleet.Manager {
	t.Helper()
	m := fleet.NewManager(p.master, spec)
	t.Cleanup(m.Shutdown)
	return m
}

func (p *fleetPair) insert(t *testing.T, from, to int64) {
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

// update sets n1 = val on the given rows in one transaction.
func (p *fleetPair) update(t *testing.T, val int64, ids ...int64) {
	t.Helper()
	s := p.tbl.Schema()
	tx := p.pri.Instance(0).Begin()
	for _, id := range ids {
		if err := tx.UpdateByID(p.tbl, id, []uint16{1}, func(row *rowstore.Row) {
			row.Nums[s.Col(1).Slot()] = val
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// catchUp waits for the master and then every reader of either kind to reach
// the primary's current snapshot.
func (p *fleetPair) catchUp(t *testing.T, m *fleet.Manager) scn.SCN {
	t.Helper()
	target := p.pri.Snapshot()
	if !p.master.WaitForSCN(target, 10*time.Second) {
		t.Fatalf("master did not catch up: %+v", p.master.Stats())
	}
	for _, r := range slices.Concat(m.ShareReaders(), m.Readers()) {
		r := r
		if !testutil.WaitFor(10*time.Second, 0, func() bool { return r.QuerySCN() >= target }) {
			t.Fatalf("fleet reader %d stuck at QuerySCN %d, target %d (state %v)",
				r.ID(), r.QuerySCN(), target, r.State())
		}
	}
	return target
}

// waitPopulated waits for the master's and every home-share reader's
// population to settle.
func (p *fleetPair) waitPopulated(t *testing.T, m *fleet.Manager) {
	t.Helper()
	if !p.master.Engine().WaitIdle(10 * time.Second) {
		t.Fatal("master population did not settle")
	}
	for _, r := range m.ShareReaders() {
		if !r.Engine().WaitIdle(10 * time.Second) {
			t.Fatalf("share reader %d population did not settle", r.ID())
		}
	}
}

func (p *fleetPair) sbyTable(t *testing.T) *rowstore.Table {
	t.Helper()
	tbl, err := p.master.DB().Table(1, "T")
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// scanKey canonicalizes a full scan for equivalence checks.
func scanKey(t *testing.T, ex *scanengine.Executor, tbl *rowstore.Table, snap scn.SCN) string {
	t.Helper()
	res, err := ex.Run(&scanengine.Query{Table: tbl}, snap)
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Schema()
	keys := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		keys = append(keys, fmt.Sprintf("%d:%d", r.Num(s, 0), r.Num(s, 1)))
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += k + ";"
	}
	return out
}

// TestShareReaderNeverAheadOfItsGroups commits small transactions back to back
// against a master whose heartbeat is a minute, so every publication is driven
// by apply and they come as fast as the pacing lets them. Behind each one the
// test scans the master's and the share's stores together, with no waiting, at
// the QuerySCN the master has published (the barrier: the share has applied
// every group of that consistency point) and at the one the share has
// observed (the feed's order: a publication follows the groups it covers). A
// share that lagged either would serve a row's old image from its IMCU.
func TestShareReaderNeverAheadOfItsGroups(t *testing.T) {
	p := newFleetPairCfg(t, standby.Config{CheckpointInterval: time.Minute, HomeInstances: 2})
	m := p.manager(t, fleet.Spec{})
	p.insert(t, 0, 1000)
	p.catchUp(t, m)
	p.waitPopulated(t, m)
	share := m.ShareReaders()[0]
	if share.Store().Stats().Units == 0 {
		t.Fatal("the share hosts no unit")
	}

	var stop atomic.Bool
	written := make(chan error, 1)
	go func() { // the writer: five-row updates in back-to-back runs of 25 until told to stop
		s := p.tbl.Schema()
		for round := int64(0); !stop.Load(); round++ {
			if round%25 == 0 && !p.master.WaitForSCN(p.pri.Snapshot(), 10*time.Second) {
				written <- errors.New("master lagging")
				return
			}
			tx := p.pri.Instance(0).Begin()
			for i := int64(0); i < 5; i++ {
				err := tx.UpdateByID(p.tbl, (round*37+i*211)%1000, []uint16{1}, func(row *rowstore.Row) {
					row.Nums[s.Col(1).Slot()] = 1000 + round
				})
				if err != nil {
					written <- err
					return
				}
			}
			if _, err := tx.Commit(); err != nil {
				written <- err
				return
			}
		}
		written <- nil
	}()

	sTbl := p.sbyTable(t)
	base := scanengine.NewExecutor(p.master.Txns())
	hybrid := scanengine.NewExecutor(p.master.Txns(), m.Stores()...)
	probed := map[scn.SCN]bool{}
	snaps := rowstore.SnapshotsOf(p.master.Txns())
	for deadline := time.Now().Add(10 * time.Second); len(probed) < 40 && time.Now().Before(deadline); {
		for _, q := range []scn.SCN{p.master.QuerySCN(), share.QuerySCN()} {
			// Two scans at one SCN under a live writer: the probe holds the
			// snapshot, or the master may reclaim what the second one reads.
			if snaps.Pin(q) != nil {
				continue // reclaimed between the read and the pin
			}
			a, b := scanKey(t, hybrid, sTbl, q), scanKey(t, base, sTbl, q)
			snaps.Unpin(q)
			if a != b {
				stop.Store(true)
				t.Fatalf("master+share scan diverges at QuerySCN %d (master at %d, share at %d)",
					q, p.master.QuerySCN(), share.QuerySCN())
			}
			probed[q] = true
		}
	}
	stop.Store(true)
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	q := p.catchUp(t, m)
	if a, b := scanKey(t, hybrid, sTbl, q), scanKey(t, base, sTbl, q); a != b {
		t.Fatalf("master+share scan diverges at the final QuerySCN %d", q)
	}
	if len(probed) < 40 || share.Store().RowsInvalidated() == 0 {
		t.Fatalf("probed %d consistency points, share invalidated %d rows: the test saw too little",
			len(probed), share.Store().RowsInvalidated())
	}
}

// TestReaderLifecycleToReady provisions a reader against a standby with data
// already applied and checks the Provisioning -> CatchingUp -> Ready walk:
// the reader must reach the fleet watermark captured at provision time and
// settle its initial population before turning Ready.
func TestReaderLifecycleToReady(t *testing.T) {
	p := newFleetPair(t, 0)
	p.insert(t, 0, 1000)
	target := p.pri.Snapshot()
	if !p.master.WaitForSCN(target, 10*time.Second) {
		t.Fatal("master lagging")
	}
	m := p.manager(t, fleet.Spec{Readers: 1})
	if got := len(m.Readers()); got != 1 {
		t.Fatalf("readers = %d, want 1", got)
	}
	if !m.WaitReady(10 * time.Second) {
		r := m.Readers()[0]
		t.Fatalf("reader never Ready: state=%v q=%d wm=%d pending=%d",
			r.State(), r.QuerySCN(), m.Watermark(), r.Engine().Pending())
	}
	r := m.Readers()[0]
	if r.State() != fleet.StateReady {
		t.Fatalf("state = %v, want READY", r.State())
	}
	if r.QuerySCN() < target {
		t.Fatalf("Ready below provision watermark: q=%d, want >= %d", r.QuerySCN(), target)
	}
	if r.Store().Stats().Units == 0 {
		t.Fatal("Ready reader has an empty column store")
	}
}

// TestIdleMasterProvisioning provisions a reader while the master is
// completely idle (no redo in flight, watermark parked). The synthetic
// enlistment publication must still hand the reader a consistency point —
// without it the lifecycle would wait forever for a publication the
// coordinator never emits.
func TestIdleMasterProvisioning(t *testing.T) {
	p := newFleetPair(t, 0)
	p.insert(t, 0, 100)
	target := p.pri.Snapshot()
	if !p.master.WaitForSCN(target, 10*time.Second) {
		t.Fatal("master lagging")
	}
	// Let the pipeline go fully quiet before provisioning.
	time.Sleep(20 * time.Millisecond)
	m := p.manager(t, fleet.Spec{Readers: 1})
	if !m.WaitReady(10 * time.Second) {
		r := m.Readers()[0]
		t.Fatalf("idle-master reader never Ready: state=%v q=%d wm=%d",
			r.State(), r.QuerySCN(), m.Watermark())
	}
}

// TestReaderScanConsistency checks a fleet reader serves exactly the
// master's row-store CR view at the reader's own published QuerySCN, across
// rounds of updates that exercise the invalidation feed.
func TestReaderScanConsistency(t *testing.T) {
	p := newFleetPair(t, 0)
	p.insert(t, 0, 1000)
	m := p.manager(t, fleet.Spec{Readers: 1})
	p.catchUp(t, m)
	if !m.WaitReady(10 * time.Second) {
		t.Fatal("reader never Ready")
	}
	r := m.Readers()[0]
	sTbl := p.sbyTable(t)
	for round := 0; round < 8; round++ {
		var ids []int64
		for i := int64(0); i < 40; i++ {
			ids = append(ids, (int64(round)*61+i*11)%1000)
		}
		p.update(t, int64(round*100+1), ids...)
		p.catchUp(t, m)
		q := r.QuerySCN()
		viaReader := scanengine.NewExecutor(p.master.Txns(), r.Store())
		viaRowStore := scanengine.NewExecutor(p.master.Txns())
		if a, b := scanKey(t, viaReader, sTbl, q), scanKey(t, viaRowStore, sTbl, q); a != b {
			t.Fatalf("round %d: fleet-reader scan diverges from row store at QuerySCN %d", round, q)
		}
	}
}

// TestStalledReaderFeedStaysBounded stalls a full-copy reader under ten times
// its feed's bound in transactions: the feed folds and stays at the bound, and
// once let go the reader catches up and serves the row store's answers. The
// last bound's worth of transactions update one row, so every other row's
// last invalidation is one the feed folded.
func TestStalledReaderFeedStaysBounded(t *testing.T) {
	p := newFleetPair(t, 0)
	p.insert(t, 0, 400)
	m := p.manager(t, fleet.Spec{Readers: 1})
	p.catchUp(t, m)
	if !m.WaitReady(10 * time.Second) {
		t.Fatal("reader never Ready")
	}
	r := m.Readers()[0]
	resume := fleet.Stall(r)
	for i := int64(0); i < 10*fleet.FeedBound; i++ {
		id := i % 400
		if i >= 9*fleet.FeedBound {
			id = 0
		}
		p.update(t, 1000+i, id)
		if backlog := fleet.FeedBacklog(r); backlog > fleet.FeedBound {
			resume()
			t.Fatalf("a stalled reader's feed holds %d messages, bound %d", backlog, fleet.FeedBound)
		}
	}
	if !p.master.WaitForSCN(p.pri.Snapshot(), 10*time.Second) {
		t.Fatal("master did not catch up")
	}
	backlog, shed := fleet.FeedBacklog(r), fleet.FeedShed(m)
	resume()
	if backlog > fleet.FeedBound || shed == 0 {
		t.Fatalf("feed backlog %d (bound %d), %d messages folded", backlog, fleet.FeedBound, shed)
	}
	q := p.catchUp(t, m)
	r.Engine().Scan()
	if !r.Engine().WaitIdle(10 * time.Second) {
		t.Fatal("reader population did not settle")
	}
	sTbl := p.sbyTable(t)
	viaReader := scanengine.NewExecutor(p.master.Txns(), r.Store())
	viaRowStore := scanengine.NewExecutor(p.master.Txns())
	if a, b := scanKey(t, viaReader, sTbl, q), scanKey(t, viaRowStore, sTbl, q); a != b {
		t.Fatalf("resumed reader diverges from the row store at QuerySCN %d", q)
	}
	if a, b := scanKey(t, viaReader, sTbl, q), scanKey(t, scanengine.NewExecutor(p.pri.Txns()), p.tbl, q); a != b {
		t.Fatalf("resumed reader diverges from the primary CR at QuerySCN %d", q)
	}
}

// TestFoldKeepsLaterInvalidationsAfterPublication ends a stall with a fold
// whose trailing stretch, the groups of one transaction over rows nothing
// updates afterwards, has no publication behind it yet. Folded ahead of the
// publication before it, those invalidations would be applied and gone before
// the reader released its quiesce there, and a repopulation at that older
// QuerySCN would serve the transaction's rows stale once its own publication
// arrived.
func TestFoldKeepsLaterInvalidationsAfterPublication(t *testing.T) {
	p := newFleetPair(t, 0)
	p.insert(t, 0, 400)
	m := p.manager(t, fleet.Spec{Readers: 1})
	p.catchUp(t, m)
	if !m.WaitReady(10 * time.Second) {
		t.Fatal("reader never Ready")
	}
	r := m.Readers()[0]
	resume := fleet.Stall(r)
	for i := int64(0); i < 2*fleet.FeedBound; i++ {
		p.update(t, 1000+i, i%200)
	}
	if !p.master.WaitForSCN(p.pri.Snapshot(), 10*time.Second) {
		resume()
		t.Fatal("master did not catch up")
	}
	last := make([]int64, 0, 200)
	for id := int64(200); id < 400; id++ {
		last = append(last, id)
	}
	p.update(t, 7, last...)
	held, publish := fleet.FoldHoldingPublications(r, p.pri.Snapshot())
	resume()
	if held == 0 || fleet.FeedShed(m) == 0 {
		publish()
		t.Fatalf("%d publications held back, %d messages folded", held, fleet.FeedShed(m))
	}
	// Give the reader the chance to repopulate at the publication the fold
	// kept: with the trailing invalidations after it, its quiesce holds the
	// engine's snapshot back until the held publications arrive.
	if !testutil.WaitFor(10*time.Second, 0, func() bool { return fleet.Drained(r) }) {
		publish()
		t.Fatal("reader did not apply its feed")
	}
	r.Engine().Scan()
	r.Engine().WaitIdle(300 * time.Millisecond)
	publish()
	q := p.catchUp(t, m)
	r.Engine().Scan()
	if !r.Engine().WaitIdle(10 * time.Second) {
		t.Fatal("reader population did not settle")
	}
	viaReader := scanengine.NewExecutor(p.master.Txns(), r.Store())
	if a, b := scanKey(t, viaReader, p.sbyTable(t), q), scanKey(t, scanengine.NewExecutor(p.pri.Txns()), p.tbl, q); a != b {
		t.Fatalf("resumed reader diverges from the primary CR at QuerySCN %d", q)
	}
}

// TestScaleUpAndDown reconciles the fleet through 0 -> 2 -> 1 -> 0 and
// checks membership, Ready catch-up of a mid-stream-added reader, and the
// Draining -> Gone walk of removed ones.
func TestScaleUpAndDown(t *testing.T) {
	p := newFleetPair(t, 0)
	p.insert(t, 0, 500)
	m := p.manager(t, fleet.Spec{Readers: 0, DrainTimeout: time.Second})
	if got := len(m.Readers()); got != 0 {
		t.Fatalf("empty fleet has %d readers", got)
	}

	m.SetReaders(2)
	if got := len(m.Readers()); got != 2 {
		t.Fatalf("after scale-up: readers = %d, want 2", got)
	}
	// More DML lands while the new readers are catching up.
	p.insert(t, 500, 1000)
	p.catchUp(t, m)
	if !m.WaitReady(10 * time.Second) {
		t.Fatalf("scale-up readers never Ready: %+v", m.Stats())
	}

	removed := m.Readers()[1]
	m.SetReaders(1)
	if got := len(m.Readers()); got != 1 {
		t.Fatalf("after scale-down: readers = %d, want 1", got)
	}
	if removed.State() != fleet.StateGone {
		t.Fatalf("removed reader state = %v, want GONE", removed.State())
	}
	// The survivor keeps applying and stays consistent.
	p.insert(t, 1000, 1200)
	p.catchUp(t, m)
	r := m.Readers()[0]
	ex := scanengine.NewExecutor(p.master.Txns(), r.Store())
	res, err := ex.Run(&scanengine.Query{Table: p.sbyTable(t), Aggs: []scanengine.AggSpec{{Kind: scanengine.AggCount}}}, r.QuerySCN())
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1200 {
		t.Fatalf("survivor count = %d, want 1200", res.Count)
	}

	m.SetReaders(0)
	if got := len(m.Readers()); got != 0 {
		t.Fatalf("after scale-to-zero: readers = %d, want 0", got)
	}
}

// TestAdmissionControl exercises the per-reader scan admission: a saturated
// reader queues up to QueueDepth, sheds the excess immediately, sheds queued
// waiters at the queue deadline, and recovers once slots release.
func TestAdmissionControl(t *testing.T) {
	p := newFleetPair(t, 0)
	p.insert(t, 0, 200)
	m := p.manager(t, fleet.Spec{
		Readers:            1,
		MaxConcurrentScans: 1,
		QueueDepth:         1,
		QueueTimeout:       10 * time.Millisecond,
	})
	p.catchUp(t, m)
	if !m.WaitReady(10 * time.Second) {
		t.Fatal("reader never Ready")
	}
	r := m.Readers()[0]

	release, err := r.Admit()
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	if r.InFlight() != 1 {
		t.Fatalf("in-flight = %d, want 1", r.InFlight())
	}
	// Second arrival queues and sheds at the deadline (the slot never frees).
	start := time.Now()
	if _, err := r.Admit(); !errors.Is(err, fleet.ErrOverloaded) {
		t.Fatalf("queued admit err = %v, want ErrOverloaded", err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("queued admit shed before the queue deadline")
	}
	// A burst beyond QueueDepth sheds immediately: occupy the queue slot...
	overflow := make(chan error, 1)
	go func() {
		_, err := r.Admit()
		overflow <- err
	}()
	if !testutil.WaitFor(time.Second, 0, func() bool { return r.Queued() == 1 }) {
		t.Fatal("waiter never queued")
	}
	// ...then the next arrival finds the queue full.
	if _, err := r.Admit(); !errors.Is(err, fleet.ErrOverloaded) {
		t.Fatalf("overflow admit err = %v, want ErrOverloaded", err)
	}
	release() // frees the slot for the queued waiter
	if err := <-overflow; err != nil {
		t.Fatalf("queued waiter after release: %v", err)
	}
	admitted, shed := r.SchedStats()
	if admitted != 2 || shed != 2 {
		t.Fatalf("sched stats admitted=%d shed=%d, want 2/2", admitted, shed)
	}
}

// TestShutdownDetaches checks the failover path: Shutdown drains every
// reader, detaches the sink so flush no longer blocks on fleet state, and
// later Admits fail typed.
func TestShutdownDetaches(t *testing.T) {
	p := newFleetPair(t, 0)
	p.insert(t, 0, 200)
	m := fleet.NewManager(p.master, fleet.Spec{Readers: 1})
	p.catchUp(t, m)
	if !m.WaitReady(10 * time.Second) {
		t.Fatal("reader never Ready")
	}
	r := m.Readers()[0]
	m.Shutdown()
	m.Shutdown() // idempotent
	if got := len(m.Readers()); got != 0 {
		t.Fatalf("readers after Shutdown = %d, want 0", got)
	}
	if r.State() != fleet.StateGone {
		t.Fatalf("reader state = %v, want GONE", r.State())
	}
	if _, err := r.Admit(); !errors.Is(err, fleet.ErrNoReader) {
		t.Fatalf("admit on gone reader err = %v, want ErrNoReader", err)
	}
	// The pipeline keeps running with the sink detached.
	p.insert(t, 200, 400)
	target := p.pri.Snapshot()
	if !p.master.WaitForSCN(target, 10*time.Second) {
		t.Fatal("master stalled after fleet shutdown")
	}
}

// TestRefusedReaderIsNotEnlisted: a reader goes live through standby.Install
// at the master's QuerySCN. With the reclaim floor forced past it Install
// refuses the pin, and the reader is not enlisted: reconciling stops at the
// refusal instead of retrying forever. (The master is stopped first: its own
// population could not pin a snapshot either.)
func TestRefusedReaderIsNotEnlisted(t *testing.T) {
	p := newFleetPair(t, 0)
	m := p.manager(t, fleet.Spec{})
	p.insert(t, 0, 200)
	p.catchUp(t, m)
	p.master.Stop()
	rowstore.SnapshotsOf(p.master.Txns()).Reclaim(p.master.QuerySCN() + 1000)
	m.SetReaders(2)
	if n := len(m.Readers()); n != 0 || m.Spec().Readers != 2 {
		t.Fatalf("%d readers enlisted below the reclaim floor (spec %d)", n, m.Spec().Readers)
	}
}

// TestSharesDistributeIMCUs: with one home-share reader the home-location map
// splits the column store between it and the master, and a scan over both
// stores at the master's QuerySCN is served entirely from the IMCS.
func TestSharesDistributeIMCUs(t *testing.T) {
	p := newFleetPair(t, 1)
	m := p.manager(t, fleet.Spec{})
	p.insert(t, 0, 2000) // 2000 rows / 32 per block = 63 blocks / 4-block IMCUs
	p.catchUp(t, m)
	p.waitPopulated(t, m)
	masterUnits := p.master.Store().Stats().Units
	shareUnits := m.ShareReaders()[0].Store().Stats().Units
	if masterUnits == 0 || shareUnits == 0 {
		t.Fatalf("units not distributed: master=%d share=%d", masterUnits, shareUnits)
	}
	ex := scanengine.NewExecutor(p.master.Txns(), m.Stores()...)
	res, err := ex.Run(&scanengine.Query{Table: p.sbyTable(t)}, p.master.QuerySCN())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2000 || res.FromIMCS != 2000 {
		t.Fatalf("cross-instance scan: %d rows, %d from the IMCS, want 2000/2000", len(res.Rows), res.FromIMCS)
	}
}

// TestShareReceivesItsGroups: invalidations of a transaction that touches
// units on both homes reach the share reader's SMUs with what they changed, and
// the updated rows are served from the units' column deltas on either home.
func TestShareReceivesItsGroups(t *testing.T) {
	p := newFleetPair(t, 1)
	m := p.manager(t, fleet.Spec{})
	p.insert(t, 0, 2000)
	p.catchUp(t, m)
	p.waitPopulated(t, m)

	var ids []int64
	for i := int64(0); i < 2000; i += 10 {
		ids = append(ids, i)
	}
	p.update(t, -7, ids...)
	p.catchUp(t, m)

	ex := scanengine.NewExecutor(p.master.Txns(), m.Stores()...)
	res, err := ex.Run(&scanengine.Query{
		Table:   p.sbyTable(t),
		Filters: []scanengine.Filter{scanengine.EqNum(1, -7)},
	}, p.master.QuerySCN())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 200 || res.FromDelta != 200 || res.FromRowStore != 0 {
		t.Fatalf("updated rows = %d (%d from the deltas, %d from the row store), want 200/200/0", len(res.Rows), res.FromDelta, res.FromRowStore)
	}
	if m.ShareReaders()[0].Store().Stats().InvalidRows == 0 {
		t.Fatal("no invalidations reached the share reader")
	}
}

// TestShareQuerySCNConsistency: at any QuerySCN a share reader publishes, a
// scan over all stores equals the master's row-store CR scan at the same SCN.
func TestShareQuerySCNConsistency(t *testing.T) {
	p := newFleetPair(t, 2)
	m := p.manager(t, fleet.Spec{})
	p.insert(t, 0, 1000)
	p.catchUp(t, m)
	p.waitPopulated(t, m)
	sTbl := p.sbyTable(t)
	for round := 0; round < 10; round++ {
		var ids []int64
		for i := int64(0); i < 50; i++ {
			ids = append(ids, (int64(round)*53+i*7)%1000)
		}
		p.update(t, int64(round*100), ids...)
		p.catchUp(t, m)
		q := m.ShareReaders()[0].QuerySCN()
		hybrid := scanengine.NewExecutor(p.master.Txns(), m.Stores()...)
		base := scanengine.NewExecutor(p.master.Txns())
		if a, b := scanKey(t, hybrid, sTbl, q), scanKey(t, base, sTbl, q); a != b {
			t.Fatalf("round %d: cross-instance scan diverges at QuerySCN %d", round, q)
		}
	}
}

// TestCoarseInvalidationReachesShares: a transaction whose journal entries
// died with a master restart is coarse-invalidated on the share readers too.
func TestCoarseInvalidationReachesShares(t *testing.T) {
	p := newFleetPair(t, 1)
	m := p.manager(t, fleet.Spec{})
	p.insert(t, 0, 500)
	p.catchUp(t, m)
	p.waitPopulated(t, m)

	// Partial transaction, restart the master, commit.
	s := p.tbl.Schema()
	longTx := p.pri.Instance(0).Begin()
	if err := longTx.UpdateByID(p.tbl, 1, []uint16{1}, func(r *rowstore.Row) {
		r.Nums[s.Col(1).Slot()] = 1234
	}); err != nil {
		t.Fatal(err)
	}
	p.catchUp(t, m)
	if err := p.master.Restart(transport.NewInProc(priStreams(p.pri)...)); err != nil {
		t.Fatalf("restart: %v", err)
	}
	p.waitPopulated(t, m)
	share := m.ShareReaders()[0].Store()
	before := share.UnitsInvalidated()
	if _, err := longTx.Commit(); err != nil {
		t.Fatal(err)
	}
	p.catchUp(t, m)
	if p.master.Stats().CoarseInvals == 0 {
		t.Fatal("coarse invalidation did not fire on the master")
	}
	if share.UnitsInvalidated() == before {
		t.Fatal("coarse invalidation did not reach the share reader")
	}
	ex := scanengine.NewExecutor(p.master.Txns(), m.Stores()...)
	res, err := ex.Run(&scanengine.Query{
		Table:   p.sbyTable(t),
		Filters: []scanengine.Filter{scanengine.EqNum(1, 1234)},
	}, p.master.QuerySCN())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows after restart+coarse = %d, want 1", len(res.Rows))
	}
}

// TestMixedPlacement runs one home-share reader beside two full-copy readers
// over the same master. The publish barrier covers the share only: whenever
// the master publishes, the share has applied every group homed on it, so a
// scan over master + share stores at the master's QuerySCN is consistent with
// no waiting. The router places on the full copies only.
func TestMixedPlacement(t *testing.T) {
	p := newFleetPair(t, 1)
	m := p.manager(t, fleet.Spec{Readers: 2})
	p.insert(t, 0, 1000)
	p.catchUp(t, m)
	p.waitPopulated(t, m)
	if !m.WaitReady(10 * time.Second) {
		t.Fatalf("full-copy readers never Ready: %+v", m.Stats())
	}
	if len(m.ShareReaders()) != 1 || len(m.Readers()) != 2 {
		t.Fatalf("membership: %d shares, %d full copies, want 1/2", len(m.ShareReaders()), len(m.Readers()))
	}
	share := m.ShareReaders()[0]

	// Barrier: probe right behind each master publication, without waiting for
	// any reader.
	sTbl := p.sbyTable(t)
	base := scanengine.NewExecutor(p.master.Txns())
	for round := 0; round < 10; round++ {
		var ids []int64
		for i := int64(0); i < 50; i++ {
			ids = append(ids, (int64(round)*37+i*13)%1000)
		}
		p.update(t, int64(1000+round), ids...)
		if !p.master.WaitForSCN(p.pri.Snapshot(), 10*time.Second) {
			t.Fatal("master lagging")
		}
		q := p.master.QuerySCN()
		hybrid := scanengine.NewExecutor(p.master.Txns(), m.Stores()...)
		if a, b := scanKey(t, hybrid, sTbl, q), scanKey(t, base, sTbl, q); a != b {
			t.Fatalf("round %d: master+share scan diverges at the master's QuerySCN %d", round, q)
		}
	}
	if share.Store().Stats().Units == 0 || share.Store().RowsInvalidated() == 0 {
		t.Fatalf("share reader idle: %+v", share.Store().Stats())
	}
	for _, r := range m.Readers() {
		if r.Store().Stats().Units <= share.Store().Stats().Units {
			t.Fatalf("full-copy reader %d hosts %d units, the share alone %d",
				r.ID(), r.Store().Stats().Units, share.Store().Stats().Units)
		}
	}

	// Router eligibility: every placement lands on a full copy.
	p.catchUp(t, m)
	rtr := router.New(m, p.master.Services(), p.master.Obs())
	placed := map[int]bool{}
	for i := 0; i < 50; i++ {
		pl, err := rtr.Place(router.Options{})
		if err != nil {
			t.Fatalf("placement %d: %v", i, err)
		}
		if pl.Reader == share {
			t.Fatal("router placed a session on the home-share reader")
		}
		placed[pl.Reader.ID()] = true
		pl.Release()
	}
	if placed[share.ID()] {
		t.Fatal("router placed a session on the home-share reader")
	}

	// Scaling the full copies down leaves the share alone.
	m.SetReaders(0)
	if len(m.ShareReaders()) != 1 || len(m.Readers()) != 0 {
		t.Fatalf("after scale-down: %d shares, %d full copies, want 1/0", len(m.ShareReaders()), len(m.Readers()))
	}
	if _, err := rtr.Place(router.Options{Wait: -1}); !errors.Is(err, fleet.ErrNoReader) {
		t.Fatalf("placement with only a share reader: err = %v, want ErrNoReader", err)
	}
}

// TestShareHonoursMemLimit: MemLimitBytes caps each column store, the
// home-share reader's included — once over the limit its engine schedules no
// further population.
func TestShareHonoursMemLimit(t *testing.T) {
	const limit = 2 << 10
	p := newFleetPair(t, 1, limit)
	m := p.manager(t, fleet.Spec{})
	share := m.ShareReaders()[0]
	// The limit is checked per scheduler pass, so grow the table in steps and
	// let each step's population finish before the next lands.
	atLimit := -1 // populated units when the store first exceeded the limit
	for i := int64(0); i < 10; i++ {
		p.insert(t, i*800, (i+1)*800)
		p.catchUp(t, m)
		share.Engine().Scan()
		if !testutil.WaitFor(10*time.Second, 0, func() bool { return share.Engine().Pending() == 0 }) {
			t.Fatal("share reader population did not settle")
		}
		if st := share.Store().Stats(); atLimit < 0 && st.MemBytes >= limit {
			atLimit = st.PopulatedUnits
		}
	}
	st := share.Store().Stats()
	if atLimit <= 0 {
		t.Fatalf("fixture too small: share store never reached the %d-byte limit (%+v)", limit, st)
	}
	if st.PopulatedUnits != atLimit {
		t.Fatalf("share reader kept populating past the limit: %d units at the limit, %d at the end (%+v)",
			atLimit, st.PopulatedUnits, st)
	}
}
