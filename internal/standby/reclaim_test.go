package standby_test

import (
	"errors"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"dbimadg/internal/primary"
	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
	"dbimadg/internal/standby"
	"dbimadg/internal/transport"
	"dbimadg/internal/workload"
)

// wideLog is the redo of a standalone primary that loaded the wide table and
// enabled it INMEMORY on the standby service, and the means to extend that log
// with updates the primary never made: a standby-only fixture, whose source
// stream the test owns and may release once the standby has read it.
type wideLog struct {
	tbl    *rowstore.Table // the primary's
	images []rowstore.Image
	rids   []rowstore.RowID
	src    *redo.Stream
	next   scn.SCN
	txn    scn.TxnID
	rng    *rand.Rand
}

func newWideLog(t testing.TB, rows int) *wideLog {
	t.Helper()
	pri := primary.NewCluster(1, 32)
	inst := pri.Instance(0)
	tbl, err := inst.CreateTable(workload.WideTableSpec("C101", 1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tx := inst.Begin()
	for id := 0; id < rows; id++ {
		if _, err := tx.Insert(tbl, workload.FillRow(tbl.Schema(), int64(id), rng)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := inst.AlterInMemory(1, "C101", "", rowstore.InMemoryAttr{Enabled: true, Service: "standby"}); err != nil {
		t.Fatal(err)
	}
	w := &wideLog{tbl: tbl, src: redo.NewStream(inst.Stream().Thread()), txn: 1 << 40, rng: rng}
	for i := 0; i < inst.Stream().Len(); i++ {
		rec, _ := inst.Stream().At(i)
		w.src.Append(rec)
	}
	w.next = w.src.LastSCN() + 1
	for id := 0; id < rows; id++ {
		rid, _ := tbl.Index().Get(int64(id))
		img, _ := tbl.Segments()[0].Block(rid.DBA.Block()).LatestImage(rid.Slot, pri.Txns())
		w.rids, w.images = append(w.rids, rid), append(w.images, img)
	}
	return w
}

// updates appends n updates of n1 in random rows, batch rows to a
// transaction, and returns the SCN of the last commit.
func (w *wideLog) updates(n, batch int) scn.SCN {
	n1 := w.tbl.Schema().Col(1).Slot()
	for done := 0; done < n; {
		w.txn++
		cvs := []redo.CV{{Kind: redo.CVBegin, Txn: w.txn, Tenant: 1}}
		for ; len(cvs) <= batch && done < n; done++ {
			id := w.rng.Intn(len(w.rids))
			row := w.images[id].Row()
			row.Nums[n1] = w.rng.Int63n(1000)
			cvs = append(cvs, redo.CV{
				Kind: redo.CVUpdate, Txn: w.txn, Tenant: 1, DBA: w.rids[id].DBA, Slot: w.rids[id].Slot,
				Row: rowstore.Pack(row), ChangedCols: []uint16{1},
			})
		}
		w.src.Append(redo.NewRecord(w.next, w.src.Thread(), cvs, 0))
		w.src.Append(redo.NewRecord(w.next+1, w.src.Thread(), []redo.CV{{Kind: redo.CVCommit, Txn: w.txn, Tenant: 1, HasIMCS: true}}, 0))
		w.next += 2
	}
	return w.next - 1
}

// serve starts a standby fed from the log over loopback TCP.
func (w *wideLog) serve(t *testing.T) (*standby.Instance, *transport.Receiver) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(ln, w.src)
	t.Cleanup(func() { _ = srv.Close() })
	rcv, err := transport.Connect(srv.Addr(), []uint16{w.src.Thread()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rcv.Close() })
	sby := standby.New(standby.Config{RowsPerBlock: 32, FreshnessSampleEvery: -1, WatchdogInterval: -1})
	sby.Attach(rcv)
	sby.Start()
	t.Cleanup(func() { sby.Stop() })
	return sby, rcv
}

// settle waits until the standby has published through last and its
// population is idle.
func settle(t *testing.T, sby *standby.Instance, last scn.SCN) {
	t.Helper()
	if !sby.WaitForSCN(last, 30*time.Second) || !sby.Engine().WaitIdle(30*time.Second) {
		t.Fatalf("standby did not settle at SCN %d: %+v", last, sby.Stats())
	}
}

func heapAlloc() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestMemoryWaterfallSumsToHeap: on a standby-only fixture, after a load and
// twice the row count in updates, settled, the memory block's components sum
// to the heap the standby added, within 15 %.
func TestMemoryWaterfallSumsToHeap(t *testing.T) {
	const rows = 16000
	w := newWideLog(t, rows)
	last := w.updates(2*rows, 50)
	before := heapAlloc()
	sby, _ := w.serve(t)
	settle(t, sby, last)
	grown := heapAlloc() - before
	m := sby.Memory()
	t.Logf("heap grew %.2f MB; components %.2f MB: %+v", float64(grown)/(1<<20), float64(m.Total)/(1<<20), m)
	if m.Versions == 0 || m.IMCUs == 0 || m.ImagesLive == 0 {
		t.Fatalf("the waterfall misses a component: %+v", m)
	}
	if d := float64(m.Total-grown) / float64(grown); d < -0.15 || d > 0.15 {
		t.Fatalf("components sum to %d bytes, the heap grew %d (%+.1f %%)", m.Total, grown, 100*d)
	}
}

// TestHeapPlateausUnderUpdates is the soak: ten rounds of updates, each as
// many as the table has rows in ten steps, with no snapshot held open.
// Repopulations reclaim what they superseded and the mirror releases what the
// merger dispatched, so the settled heap stays within 5 % of where the second
// round left it, and answers stay those of the row store.
func TestHeapPlateausUnderUpdates(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	const rows = 3000
	w := newWideLog(t, rows)
	sby, rcv := w.serve(t)
	settle(t, sby, w.src.LastSCN())
	var base int64
	for round := 1; round <= 10; round++ {
		for step := 0; step < 10; step++ {
			settle(t, sby, w.updates(rows/10, 100))
		}
		w.src.Release(w.src.Len()) // the test's own log, shipped
		heap := heapAlloc()
		t.Logf("round %d: heap %.2f MB, %+v", round, float64(heap)/(1<<20), sby.Memory())
		switch {
		case round == 2:
			base = heap
		case round > 2 && (heap > base*105/100 || heap < base*95/100):
			t.Fatalf("round %d: settled heap %d is more than 5 %% from round 2's %d", round, heap, base)
		}
	}
	if n, _ := rcv.Held(); n != 0 {
		t.Fatalf("the mirror holds %d records after settling", n)
	}
	if sby.Engine().Stats().VersionsReclaimed < 5*rows {
		t.Fatalf("reclaimed %d versions of %d updates", sby.Engine().Stats().VersionsReclaimed, 10*rows)
	}
	tbl, err := sby.DB().Table(1, "C101")
	if err != nil {
		t.Fatal(err)
	}
	q := sby.QuerySCN()
	hybrid, pure := scanengine.NewExecutor(sby.Txns(), sby.Store()), scanengine.NewExecutor(sby.Txns())
	agg := &scanengine.Query{Table: tbl, Aggs: []scanengine.AggSpec{{Kind: scanengine.AggSum, Col: 1}}}
	a, err := hybrid.Run(agg, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pure.Run(agg, q)
	if err != nil {
		t.Fatal(err)
	}
	if a.AggVals[0] != b.AggVals[0] || a.Count != rows {
		t.Fatalf("SUM(n1) hybrid %d over %d rows, row store %d", a.AggVals[0], a.Count, b.AggVals[0])
	}
}

// TestRestartOnTrimmedReceiver: once a standby's merger has dispatched the
// log, its receiver's mirror holds nothing and serves only past it, and a
// standby that must resume below that is refused with ErrArchiveWindow.
func TestRestartOnTrimmedReceiver(t *testing.T) {
	w := newWideLog(t, 500)
	last := w.updates(500, 10)
	sby, rcv := w.serve(t)
	settle(t, sby, last)
	if n, _ := rcv.Held(); n != 0 || rcv.ResumeSCN() != last+1 {
		t.Fatalf("after the merger passed the log: mirror holds %d records, ResumeSCN %d (want 0, %d)", n, rcv.ResumeSCN(), last+1)
	}
	fresh := standby.New(standby.Config{RowsPerBlock: 32})
	if err := fresh.Restart(rcv); !errors.Is(err, standby.ErrArchiveWindow) {
		t.Fatalf("restart at SCN 0 on a mirror trimmed through %d: %v", last, err)
	}
}
