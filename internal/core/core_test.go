package core

import (
	"math/rand"
	"sync"
	"testing"

	"dbimadg/internal/imcs"
	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

func TestJournalAnchorsAndAreas(t *testing.T) {
	j := NewJournal(0, 4)
	a := j.EnsureAnchor(1, 7, true)
	if !a.Began() {
		t.Fatal("began not set")
	}
	// Different workers append without stepping on each other.
	j.Add(0, 1, 7, InvalRecord{Obj: 1, Blk: 0, Slot: 0})
	j.Add(3, 1, 7, InvalRecord{Obj: 1, Blk: 1, Slot: 2})
	j.Add(3, 1, 7, InvalRecord{Obj: 1, Blk: 1, Slot: 3})
	got, ok := j.Get(1)
	if !ok || got != a {
		t.Fatal("anchor identity broken")
	}
	if a.RecordCount() != 3 {
		t.Fatalf("RecordCount = %d", a.RecordCount())
	}
	seen := 0
	a.Records(func(r InvalRecord) { seen++ })
	if seen != 3 {
		t.Fatalf("Records visited %d", seen)
	}
	// Adding without a begin creates an unbegun anchor (restart scenario).
	j.Add(1, 2, 7, InvalRecord{Obj: 1})
	if a2, _ := j.Get(2); a2.Began() {
		t.Fatal("anchor began without begin record")
	}
	j.Remove(1)
	if _, ok := j.Get(1); ok {
		t.Fatal("removed anchor still present")
	}
	if j.Len() != 1 {
		t.Fatalf("Len = %d", j.Len())
	}
}

func TestJournalConcurrentWorkers(t *testing.T) {
	const workers = 8
	j := NewJournal(0, workers)
	var wg sync.WaitGroup
	// All workers mine records for an overlapping set of transactions — the
	// common case the per-worker areas are designed for.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				txn := scn.TxnID(i%10 + 1)
				j.Add(w, txn, 1, InvalRecord{Obj: 1, Blk: rowstore.BlockNo(i), Slot: uint16(w)})
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for id := scn.TxnID(1); id <= 10; id++ {
		a, ok := j.Get(id)
		if !ok {
			t.Fatalf("txn %d lost", id)
		}
		total += a.RecordCount()
	}
	if total != workers*1000 {
		t.Fatalf("records = %d, want %d", total, workers*1000)
	}
}

func TestCommitTableSortedChop(t *testing.T) {
	ct := NewCommitTable(1)
	// Insert out of order; the list must stay sorted.
	for _, s := range []scn.SCN{50, 10, 30, 20, 40} {
		ct.Insert(&CommitNode{Txn: scn.TxnID(s), CommitSCN: s})
	}
	if ct.Len() != 5 {
		t.Fatalf("Len = %d", ct.Len())
	}
	w := ct.Chop(30)
	if w.Len() != 3 {
		t.Fatalf("chopped %d, want 3", w.Len())
	}
	prev := scn.SCN(0)
	for _, n := range w.nodes {
		if n.CommitSCN > 30 {
			t.Fatalf("node %d beyond chop point", n.CommitSCN)
		}
		if n.CommitSCN < prev {
			t.Fatal("worklink not sorted within partition")
		}
		prev = n.CommitSCN
	}
	if ct.Len() != 2 {
		t.Fatalf("remaining = %d", ct.Len())
	}
	// Chop is exclusive of later commits, inclusive of the boundary.
	w2 := ct.Chop(50)
	if w2.Len() != 2 {
		t.Fatalf("second chop = %d", w2.Len())
	}
	if ct.Chop(100).Len() != 0 {
		t.Fatal("third chop should be empty")
	}
}

func TestCommitTablePartitioned(t *testing.T) {
	ct := NewCommitTable(4)
	for i := 1; i <= 100; i++ {
		ct.Insert(&CommitNode{Txn: scn.TxnID(i), CommitSCN: scn.SCN(i)})
	}
	w := ct.Chop(60)
	if w.Len() != 60 {
		t.Fatalf("chopped %d, want 60", w.Len())
	}
	seen := map[scn.TxnID]bool{}
	for _, n := range w.nodes {
		if seen[n.Txn] {
			t.Fatal("duplicate node in worklink")
		}
		seen[n.Txn] = true
	}
}

func TestWorklinkCooperativeDrain(t *testing.T) {
	w := &Worklink{}
	for i := 0; i < 1000; i++ {
		w.nodes = append(w.nodes, &CommitNode{Txn: scn.TxnID(i + 1)})
	}
	var (
		mu      sync.Mutex
		claimed = map[scn.TxnID]int{}
		wg      sync.WaitGroup
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				batch := w.NextBatch(7)
				if batch == nil {
					return
				}
				mu.Lock()
				for _, n := range batch {
					claimed[n.Txn]++
				}
				mu.Unlock()
				w.MarkDone(len(batch))
			}
		}()
	}
	wg.Wait()
	if len(claimed) != 1000 {
		t.Fatalf("claimed %d distinct nodes", len(claimed))
	}
	for txn, c := range claimed {
		if c != 1 {
			t.Fatalf("node %d claimed %d times", txn, c)
		}
	}
	if !w.Drained() {
		t.Fatal("worklink not drained")
	}
}

type allowAll struct{}

func (allowAll) Enabled(rowstore.ObjID) bool { return true }

type allowNone struct{}

func (allowNone) Enabled(rowstore.ObjID) bool { return false }

func TestMinerRoutesCVs(t *testing.T) {
	j := NewJournal(0, 2)
	ct := NewCommitTable(2)
	ddl := NewDDLTable()
	m := NewMiner(j, ct, ddl, allowAll{})

	m.MineCV(0, 10, &redo.CV{Kind: redo.CVBegin, Txn: 1, Tenant: 5})
	m.MineCV(0, 11, &redo.CV{Kind: redo.CVUpdate, Txn: 1, Tenant: 5, DBA: rowstore.MakeDBA(9, 3), Slot: 4})
	m.MineCV(1, 12, &redo.CV{Kind: redo.CVInsert, Txn: 1, Tenant: 5, DBA: rowstore.MakeDBA(9, 7), Slot: 0})
	m.MineCV(1, 20, &redo.CV{Kind: redo.CVCommit, Txn: 1, Tenant: 5, HasIMCS: true})

	a, ok := j.Get(1)
	if !ok || a.RecordCount() != 2 || !a.Began() {
		t.Fatalf("journal state wrong: ok=%v records=%d", ok, a.RecordCount())
	}
	w := ct.Chop(20)
	if w.Len() != 1 {
		t.Fatal("commit not in table")
	}
	n := w.nodes[0]
	if n.CommitSCN != 20 || !n.HasIMCS || n.Anchor != a {
		t.Fatalf("commit node wrong: %+v", n)
	}
	if m.MinedRecords() != 2 || m.MinedCommits() != 1 {
		t.Fatalf("counters: %d %d", m.MinedRecords(), m.MinedCommits())
	}

	// Markers land in the DDL table.
	m.MineCV(0, 30, &redo.CV{Kind: redo.CVMarker, Marker: &redo.Marker{Kind: redo.MarkerTruncate, Obj: 9}})
	if ddl.Len() != 1 {
		t.Fatal("marker not buffered")
	}
	got := ddl.Collect(30)
	if len(got) != 1 || got[0].Kind != redo.MarkerTruncate {
		t.Fatal("marker not collected")
	}
	if ddl.Len() != 0 {
		t.Fatal("collected marker not removed")
	}
}

func TestMinerRespectsPolicy(t *testing.T) {
	j := NewJournal(0, 1)
	m := NewMiner(j, NewCommitTable(1), NewDDLTable(), allowNone{})
	m.MineCV(0, 11, &redo.CV{Kind: redo.CVUpdate, Txn: 1, DBA: rowstore.MakeDBA(9, 3)})
	if j.Len() != 0 {
		t.Fatal("disabled object mined")
	}
}

func TestMinerAbortDiscards(t *testing.T) {
	// Abort does NOT drop the anchor at mining time (a concurrent worker could
	// still be mining the txn's data CVs and would re-create it as an orphan);
	// it queues an abort node, and the flusher releases the anchor once the
	// chop watermark proves the transaction is fully applied.
	j := NewJournal(0, 2)
	ct := NewCommitTable(1)
	store := imcs.NewStore()
	f := NewFlusher(j, store, imcs.HomeMap{Instances: 1}, 0, 64, nil)
	m := NewMiner(j, ct, NewDDLTable(), allowAll{})
	m.MineCV(0, 10, &redo.CV{Kind: redo.CVBegin, Txn: 1})
	m.MineCV(0, 11, &redo.CV{Kind: redo.CVUpdate, Txn: 1, DBA: rowstore.MakeDBA(9, 3)})
	m.MineCV(0, 12, &redo.CV{Kind: redo.CVAbort, Txn: 1})
	if j.Len() != 1 {
		t.Fatal("anchor must survive until the abort node is flushed")
	}
	// A straggler worker mines one more of the aborted txn's data CVs after
	// the abort record — the orphan-anchor race this design closes.
	m.MineCV(1, 11, &redo.CV{Kind: redo.CVUpdate, Txn: 1, DBA: rowstore.MakeDBA(9, 4)})
	w := ct.Chop(12)
	if w.Len() != 1 || !w.nodes[0].Aborted {
		t.Fatalf("abort node not queued: %+v", w.nodes)
	}
	f.DrainWorklink(w, 8)
	if j.Len() != 0 {
		t.Fatal("aborted txn's records not discarded at flush")
	}
	if f.FlushedRecords() != 0 || store.RowsInvalidated() != 0 {
		t.Fatal("aborted txn's records must not invalidate anything")
	}
}

// flushFixture builds a store with populated units over a tiny segment.
func flushFixture(t testing.TB) (*imcs.Store, *rowstore.Segment, *Journal, *Flusher) {
	t.Helper()
	store := imcs.NewStore()
	seg := rowstore.NewSegment(9, 5, "T", "", 8)
	schema := rowstore.MustSchema([]rowstore.Column{{Name: "id", Kind: rowstore.KindNumber}})
	// 4 blocks of 8 rows, all committed by a frozen writer.
	for b := 0; b < 4; b++ {
		for s := 0; s < 8; s++ {
			rid := seg.AllocRowSlot()
			row := rowstore.NewRow(schema)
			row.Nums[0] = int64(b*8 + s)
			_ = seg.Block(rid.DBA.Block()).Insert(rid.Slot, scn.FrozenTxn, rowstore.Pack(row))
		}
	}
	unit, err := store.CreateUnit(9, 5, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := imcs.NewBuilder(9, 5, schema, 100, 0, 4)
	for blk := rowstore.BlockNo(0); blk < 4; blk++ {
		b.BeginBlock(8)
		for s := 0; s < 8; s++ {
			row := rowstore.NewRow(schema)
			row.Nums[0] = int64(int(blk)*8 + s)
			b.AddRow(rowstore.Pack(row), true)
		}
	}
	unit.Attach(b.Build())
	j := NewJournal(0, 2)
	f := NewFlusher(j, store, imcs.HomeMap{Instances: 1}, 0, 64, nil)
	return store, seg, j, f
}

func TestFlushNodeInvalidatesSMU(t *testing.T) {
	store, _, j, f := flushFixture(t)
	j.EnsureAnchor(1, 5, true)
	j.Add(0, 1, 5, InvalRecord{Obj: 9, Blk: 1, Slot: 2})
	j.Add(1, 1, 5, InvalRecord{Obj: 9, Blk: 3, Slot: 7})
	a, _ := j.Get(1)
	f.FlushNode(&CommitNode{Txn: 1, CommitSCN: 50, Tenant: 5, HasIMCS: true, Anchor: a})

	u, _ := store.UnitForBlock(9, 0)
	imcu, invalid, ok := u.ScanView()
	if !ok {
		t.Fatal("unit unusable")
	}
	for _, want := range []struct {
		blk  rowstore.BlockNo
		slot uint16
	}{{1, 2}, {3, 7}} {
		idx, _ := imcu.RowIndexOf(want.blk, want.slot)
		if invalid[idx/64]&(1<<(idx%64)) == 0 {
			t.Fatalf("row %d.%d not invalidated", want.blk, want.slot)
		}
	}
	if u.Stats().InvalidRows != 2 {
		t.Fatalf("InvalidRows = %d", u.Stats().InvalidRows)
	}
	if _, ok := j.Get(1); ok {
		t.Fatal("anchor not released after flush")
	}
	if f.FlushedRecords() != 2 {
		t.Fatalf("FlushedRecords = %d", f.FlushedRecords())
	}
}

func TestFlushNodeLateAnchorResolution(t *testing.T) {
	// Commit mined before any data CV: node.Anchor is nil, but the anchor
	// exists by flush time and must be found.
	store, _, j, f := flushFixture(t)
	node := &CommitNode{Txn: 1, CommitSCN: 50, Tenant: 5, HasIMCS: true, Anchor: nil}
	j.EnsureAnchor(1, 5, true)
	j.Add(0, 1, 5, InvalRecord{Obj: 9, Blk: 0, Slot: 0})
	f.FlushNode(node)
	u, _ := store.UnitForBlock(9, 0)
	if u.Stats().InvalidRows != 1 {
		t.Fatal("late-resolved anchor not flushed")
	}
	if f.CoarseInvalidations() != 0 {
		t.Fatal("coarse invalidation fired spuriously")
	}
}

func TestFlushCoarseInvalidationOnMissingBegin(t *testing.T) {
	store, _, j, f := flushFixture(t)
	// Partial mining: records exist but no begin control record (restart).
	j.Add(0, 1, 5, InvalRecord{Obj: 9, Blk: 0, Slot: 0})
	a, _ := j.Get(1)
	f.FlushNode(&CommitNode{Txn: 1, CommitSCN: 50, Tenant: 5, HasIMCS: true, Anchor: a})
	if f.CoarseInvalidations() != 1 {
		t.Fatal("coarse invalidation did not fire")
	}
	u, _ := store.UnitForBlock(9, 0)
	if _, _, ok := u.ScanView(); ok {
		t.Fatal("unit scannable after coarse invalidation")
	}
	// Missing anchor entirely, flagged commit → also coarse.
	f.FlushNode(&CommitNode{Txn: 2, CommitSCN: 51, Tenant: 5, HasIMCS: true})
	if f.CoarseInvalidations() != 2 {
		t.Fatal("missing-anchor coarse invalidation did not fire")
	}
	// Unflagged commit without anchor: nothing to do, no coarse.
	f.FlushNode(&CommitNode{Txn: 3, CommitSCN: 52, Tenant: 5, HasIMCS: false})
	if f.CoarseInvalidations() != 2 {
		t.Fatal("unflagged commit triggered coarse invalidation")
	}
}

type captureSink struct {
	mu     sync.Mutex
	sent   []Group
	coarse []rowstore.TenantID
}

func (c *captureSink) Groups(groups []Group) {
	c.mu.Lock()
	c.sent = append(c.sent, groups...)
	c.mu.Unlock()
}

func (c *captureSink) Barrier() {}

func (c *captureSink) CoarseInvalidate(tenant rowstore.TenantID) {
	c.mu.Lock()
	c.coarse = append(c.coarse, tenant)
	c.mu.Unlock()
}

// TestFlushHandsEveryGroupToSink: the sink sees one transaction's groups for
// every home (it does the routing), while the local store only takes the
// groups homed on this instance.
func TestFlushHandsEveryGroupToSink(t *testing.T) {
	_, _, j, _ := flushFixture(t)
	sink := &captureSink{}
	store := imcs.NewStore()
	home := imcs.HomeMap{Instances: 2}
	// One placeholder unit per chunk, so local invalidations are countable.
	for blk := rowstore.BlockNo(0); blk < 64; blk += 4 {
		if _, err := store.CreateUnit(9, 5, blk, blk+4); err != nil {
			t.Fatal(err)
		}
	}
	f := NewFlusher(j, store, home, 0, 4, sink)
	j.EnsureAnchor(1, 5, true)
	// Spread records over many chunks so both homes appear.
	local := 0
	for blk := rowstore.BlockNo(0); blk < 64; blk += 4 {
		j.Add(0, 1, 5, InvalRecord{Obj: 9, Blk: blk, Slot: 0})
		if home.HomeOf(9, blk) == 0 {
			local++
		}
	}
	a, _ := j.Get(1)
	f.FlushNode(&CommitNode{Txn: 1, CommitSCN: 50, Tenant: 5, HasIMCS: true, Anchor: a})
	if len(sink.sent) != 16 {
		t.Fatalf("sink received %d groups, want all 16", len(sink.sent))
	}
	if local == 0 || local == 16 {
		t.Fatalf("fixture does not spread over both homes: %d local", local)
	}
	if got := store.RowsInvalidated(); got != int64(local) {
		t.Fatalf("local store invalidated %d rows, want the %d homed here", got, local)
	}
	// Coarse invalidation must fan out to the sink.
	f.FlushNode(&CommitNode{Txn: 2, CommitSCN: 51, Tenant: 5, HasIMCS: true})
	if len(sink.coarse) != 1 || sink.coarse[0] != 5 {
		t.Fatalf("sink coarse invalidation: %v", sink.coarse)
	}
}

func TestApplyGroups(t *testing.T) {
	store, _, _, _ := flushFixture(t)
	ApplyGroups(store, []Group{{Obj: 9, Blk: 2, Slots: []uint16{1, 3}}})
	u, _ := store.UnitForBlock(9, 2)
	if u.Stats().InvalidRows != 2 {
		t.Fatalf("InvalidRows = %d", u.Stats().InvalidRows)
	}
}

func TestDrainWorklink(t *testing.T) {
	store, _, j, f := flushFixture(t)
	w := &Worklink{}
	for i := 0; i < 20; i++ {
		txn := scn.TxnID(i + 1)
		j.EnsureAnchor(txn, 5, true)
		j.Add(0, txn, 5, InvalRecord{Obj: 9, Blk: rowstore.BlockNo(i % 4), Slot: uint16(i % 8)})
		a, _ := j.Get(txn)
		w.nodes = append(w.nodes, &CommitNode{Txn: txn, CommitSCN: scn.SCN(i + 10), Tenant: 5, HasIMCS: true, Anchor: a})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.DrainWorklink(w, 3)
		}()
	}
	wg.Wait()
	if !w.Drained() {
		t.Fatal("worklink not drained")
	}
	if j.Len() != 0 {
		t.Fatalf("anchors remain: %d", j.Len())
	}
	u, _ := store.UnitForBlock(9, 0)
	if u.Stats().InvalidRows == 0 {
		t.Fatal("no invalidations applied")
	}
}

func TestCommitTableChopStress(t *testing.T) {
	// Randomized: interleave inserts and chops; every inserted txn must be
	// chopped exactly once, in commitSCN-respecting order per chop.
	rng := rand.New(rand.NewSource(3))
	ct := NewCommitTable(4)
	seen := map[scn.TxnID]bool{}
	next := scn.SCN(1)
	inserted := 0
	for round := 0; round < 50; round++ {
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			next += scn.SCN(rng.Intn(3))
			inserted++
			ct.Insert(&CommitNode{Txn: scn.TxnID(inserted), CommitSCN: next})
		}
		w := ct.Chop(next)
		for _, node := range w.nodes {
			if seen[node.Txn] {
				t.Fatal("txn chopped twice")
			}
			seen[node.Txn] = true
		}
	}
	ctFinal := ct.Chop(next + 1000)
	for _, node := range ctFinal.nodes {
		seen[node.Txn] = true
	}
	if len(seen) != inserted {
		t.Fatalf("chopped %d, inserted %d", len(seen), inserted)
	}
}

// TestFlushHandsOverWhatChanged: a record that kept its change vector reaches
// the SMU as a patch with the node's commitSCN — the row is explained, not
// opaque — and the same goes to the sink; an insert, a record without its CV
// and an update that declared no column leave opaque rows.
func TestFlushHandsOverWhatChanged(t *testing.T) {
	store, _, j, f := flushFixture(t)
	var got []Group
	f.SetSink(sinkFunc(func(g []Group) { got = append(got, g...) }))
	m := NewMiner(j, NewCommitTable(1), NewDDLTable(), allowAll{})
	img := func(v int64) rowstore.Image { return rowstore.Pack(rowstore.Row{Nums: []int64{v}}) }
	m.MineCV(0, 101, &redo.CV{Kind: redo.CVBegin, Txn: 1, Tenant: 5})
	m.MineCV(0, 102, &redo.CV{Kind: redo.CVUpdate, Txn: 1, Tenant: 5, DBA: rowstore.MakeDBA(9, 1), Slot: 2, Row: img(-7), ChangedCols: []uint16{0}})
	m.MineCV(0, 103, &redo.CV{Kind: redo.CVDelete, Txn: 1, Tenant: 5, DBA: rowstore.MakeDBA(9, 1), Slot: 3})
	m.MineCV(1, 104, &redo.CV{Kind: redo.CVUpdate, Txn: 1, Tenant: 5, DBA: rowstore.MakeDBA(9, 2), Slot: 0, Row: img(-8)})
	m.MineCV(1, 105, &redo.CV{Kind: redo.CVInsert, Txn: 1, Tenant: 5, DBA: rowstore.MakeDBA(9, 2), Slot: 1, Row: img(-9)})
	j.Add(1, 1, 5, InvalRecord{Obj: 9, Blk: 3, Slot: 4})
	a, _ := j.Get(1)
	f.FlushNode(&CommitNode{Txn: 1, CommitSCN: 110, Tenant: 5, HasIMCS: true, Anchor: a})

	u, _ := store.UnitForBlock(9, 0)
	if st := u.Stats(); st.InvalidRows != 5 || st.OpaqueRows != 3 || st.DeltaEntries != 2 {
		t.Fatalf("after the flush: %+v, want 5 invalid rows, 3 of them opaque, 2 delta entries", st)
	}
	var v imcs.View
	u.View(&v)
	if e := v.Delta[0]; e.SCN != 110 || e.Val != -7 || e.Col() != imcs.NumColID(0) || v.Delta[1].Col() != imcs.ColDeleted {
		t.Fatalf("delta %+v", v.Delta)
	}
	if len(got) != 3 || got[0].SCN != 110 || len(got[0].Patches) != 2 || !got[0].Patches[1].Deleted || got[0].Patches[0].Row != img(-7) {
		t.Fatalf("sink got %+v", got)
	}
	// A reader applying the groups ends up with the same delta.
	readerStore, _, _, _ := flushFixture(t)
	ApplyGroups(readerStore, got)
	ru, _ := readerStore.UnitForBlock(9, 0)
	if st := ru.Stats(); st.InvalidRows != 5 || st.OpaqueRows != 3 || st.DeltaEntries != 2 {
		t.Fatalf("reader after ApplyGroups: %+v", st)
	}
}

type sinkFunc func([]Group)

func (s sinkFunc) Groups(g []Group)                 { s(g) }
func (sinkFunc) CoarseInvalidate(rowstore.TenantID) {}
func (sinkFunc) Barrier()                           {}

// BenchmarkFlushNode is the invalidation flush of one single-row update a
// transaction: the journal record, the commit node's flush, the SMU's delta.
func BenchmarkFlushNode(b *testing.B) {
	_, _, j, f := flushFixture(b)
	cv := &redo.CV{Kind: redo.CVUpdate, Tenant: 5, Row: rowstore.Pack(rowstore.Row{Nums: []int64{1}}), ChangedCols: []uint16{0}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		txn := scn.TxnID(i + 1)
		j.EnsureAnchor(txn, 5, true)
		j.Add(0, txn, 5, InvalRecord{Obj: 9, Blk: rowstore.BlockNo(i % 4), Slot: uint16(i % 8), CV: cv})
		a, _ := j.Get(txn)
		f.FlushNode(&CommitNode{Txn: txn, CommitSCN: scn.SCN(200 + i), Tenant: 5, HasIMCS: true, Anchor: a})
	}
}
