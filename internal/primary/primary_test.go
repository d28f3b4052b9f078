package primary

import (
	"errors"
	"sync"
	"testing"

	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
	"dbimadg/internal/txn"
)

func wideSpec(tenant rowstore.TenantID) *rowstore.TableSpec {
	return &rowstore.TableSpec{
		Name:   "T",
		Tenant: tenant,
		Columns: []rowstore.Column{
			{Name: "id", Kind: rowstore.KindNumber},
			{Name: "n1", Kind: rowstore.KindNumber},
			{Name: "c1", Kind: rowstore.KindVarchar},
		},
		IdentityCol:  0,
		PartitionCol: -1,
	}
}

func newRow(tbl *rowstore.Table, id, n1 int64, c1 string) rowstore.Row {
	s := tbl.Schema()
	r := rowstore.NewRow(s)
	r.Nums[s.Col(0).Slot()] = id
	r.Nums[s.Col(1).Slot()] = n1
	r.Strs[s.Col(2).Slot()] = c1
	return r
}

func TestInsertCommitVisible(t *testing.T) {
	c := NewCluster(1, 8)
	inst := c.Instance(0)
	tbl, err := inst.CreateTable(wideSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	tx := inst.Begin()
	if _, err := tx.Insert(tbl, newRow(tbl, 1, 100, "a")); err != nil {
		t.Fatal(err)
	}
	before := c.Snapshot()
	commitSCN, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if commitSCN <= before {
		t.Fatalf("commitSCN %d not after pre-commit snapshot %d", commitSCN, before)
	}
	seg := tbl.Segments()[0]
	if n := seg.RowCountVisible(before, c.Txns()); n != 0 {
		t.Fatalf("%d rows visible before commit", n)
	}
	if n := seg.RowCountVisible(c.Snapshot(), c.Txns()); n != 1 {
		t.Fatalf("%d rows visible after commit, want 1", n)
	}
}

func TestUpdateByIDAndIndex(t *testing.T) {
	c := NewCluster(1, 8)
	inst := c.Instance(0)
	tbl, _ := inst.CreateTable(wideSpec(1))
	tx := inst.Begin()
	for i := int64(0); i < 20; i++ {
		if _, err := tx.Insert(tbl, newRow(tbl, i, i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := inst.Begin()
	if err := tx2.UpdateByID(tbl, 7, []uint16{1}, func(r *rowstore.Row) {
		r.Nums[tbl.Schema().Col(1).Slot()] = 777
	}); err != nil {
		t.Fatal(err)
	}
	mid := c.Snapshot() // before commit: still old value
	if _, err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	rid, _ := tbl.Index().Get(7)
	seg := tbl.Segments()[0]
	row, ok := seg.Block(rid.DBA.Block()).ReadRow(rid.Slot, mid, c.Txns(), scn.InvalidTxn)
	if !ok || row.Num(tbl.Schema().Col(1).Slot()) != 7 {
		t.Fatalf("pre-commit snapshot sees n1=%d, want 7", row.Num(tbl.Schema().Col(1).Slot()))
	}
	row, ok = seg.Block(rid.DBA.Block()).ReadRow(rid.Slot, c.Snapshot(), c.Txns(), scn.InvalidTxn)
	if !ok || row.Num(tbl.Schema().Col(1).Slot()) != 777 {
		t.Fatalf("post-commit snapshot sees n1=%d, want 777", row.Num(tbl.Schema().Col(1).Slot()))
	}
	if err := tx2.UpdateByID(tbl, 7, nil, nil); err != txn.ErrTxnDone {
		t.Fatalf("use after commit: %v, want ErrTxnDone", err)
	}
}

func TestAbortInvisible(t *testing.T) {
	c := NewCluster(1, 8)
	inst := c.Instance(0)
	tbl, _ := inst.CreateTable(wideSpec(1))
	tx := inst.Begin()
	_, _ = tx.Insert(tbl, newRow(tbl, 1, 1, "a"))
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	if n := tbl.Segments()[0].RowCountVisible(c.Snapshot(), c.Txns()); n != 0 {
		t.Fatalf("aborted insert visible: %d rows", n)
	}
	// Abort emitted a CVAbort record.
	stream := inst.Stream()
	last, _ := stream.At(stream.Len() - 1)
	if last.CVs[0].Kind != redo.CVAbort {
		t.Fatalf("last record kind = %v, want ABORT", last.CVs[0].Kind)
	}
}

func TestRedoShapePerTransaction(t *testing.T) {
	c := NewCluster(1, 8)
	inst := c.Instance(0)
	tbl, _ := inst.CreateTable(wideSpec(1))
	startLen := inst.Stream().Len() // skip the create-table marker
	tx := inst.Begin()
	_, _ = tx.Insert(tbl, newRow(tbl, 1, 1, "a"))
	_ = tx.UpdateByID(tbl, 1, []uint16{1}, func(r *rowstore.Row) { r.Nums[1] = 2 })
	commitSCN, _ := tx.Commit()

	var kinds []redo.CVKind
	for i := startLen; i < inst.Stream().Len(); i++ {
		rec, _ := inst.Stream().At(i)
		for _, cv := range rec.CVs {
			kinds = append(kinds, cv.Kind)
		}
	}
	want := []redo.CVKind{redo.CVBegin, redo.CVInsert, redo.CVUpdate, redo.CVCommit}
	if len(kinds) != len(want) {
		t.Fatalf("CV kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("CV kinds = %v, want %v", kinds, want)
		}
	}
	// Commit CV record SCN is the commitSCN.
	last, _ := inst.Stream().At(inst.Stream().Len() - 1)
	if last.SCN != commitSCN {
		t.Fatalf("commit record SCN %d != commitSCN %d", last.SCN, commitSCN)
	}
	// Update CV carries the changed-column list and a full after-image.
	upd, _ := inst.Stream().At(inst.Stream().Len() - 2)
	cv := upd.CVs[0]
	if cv.Kind != redo.CVUpdate || len(cv.ChangedCols) != 1 || cv.ChangedCols[0] != 1 {
		t.Fatalf("update CV mangled: %+v", cv)
	}
	if cv.Row.Num(1) != 2 {
		t.Fatalf("after-image n1 = %d, want 2", cv.Row.Num(1))
	}
}

func TestHasIMCSFlag(t *testing.T) {
	c := NewCluster(1, 8)
	inst := c.Instance(0)
	tbl, _ := inst.CreateTable(wideSpec(1))

	// No INMEMORY policy: commit not flagged.
	tx := inst.Begin()
	_, _ = tx.Insert(tbl, newRow(tbl, 1, 1, "a"))
	_, _ = tx.Commit()
	last, _ := inst.Stream().At(inst.Stream().Len() - 1)
	if last.CVs[0].HasIMCS {
		t.Fatal("commit flagged without INMEMORY policy")
	}

	// Standby-enabled policy: commit flagged.
	if err := inst.AlterInMemory(1, "T", "", rowstore.InMemoryAttr{Enabled: true, Service: "standby"}); err != nil {
		t.Fatal(err)
	}
	tx = inst.Begin()
	_, _ = tx.Insert(tbl, newRow(tbl, 2, 2, "b"))
	_, _ = tx.Commit()
	last, _ = inst.Stream().At(inst.Stream().Len() - 1)
	if !last.CVs[0].HasIMCS {
		t.Fatal("commit not flagged for standby-enabled object")
	}

	// Primary-only policy: not standby-relevant, so not flagged.
	_ = inst.AlterInMemory(1, "T", "", rowstore.InMemoryAttr{Enabled: true, Service: "primary"})
	tx = inst.Begin()
	_, _ = tx.Insert(tbl, newRow(tbl, 3, 3, "c"))
	_, _ = tx.Commit()
	last, _ = inst.Stream().At(inst.Stream().Len() - 1)
	if last.CVs[0].HasIMCS {
		t.Fatal("commit flagged for primary-only object")
	}
}

type captureHook struct {
	mu      sync.Mutex
	commits []scn.SCN
	changes int
}

func (h *captureHook) OnCommit(_ rowstore.TenantID, changes []txn.RowChange, commitSCN scn.SCN) {
	h.mu.Lock()
	h.commits = append(h.commits, commitSCN)
	h.changes += len(changes)
	h.mu.Unlock()
}

func TestDBIMHookFiresOnCommit(t *testing.T) {
	c := NewCluster(1, 8)
	hook := &captureHook{}
	c.SetDBIMHook(hook)
	inst := c.Instance(0)
	tbl, _ := inst.CreateTable(wideSpec(1))
	_ = inst.AlterInMemory(1, "T", "", rowstore.InMemoryAttr{Enabled: true, Service: "both"})

	tx := inst.Begin()
	_, _ = tx.Insert(tbl, newRow(tbl, 1, 1, "a"))
	_, _ = tx.Insert(tbl, newRow(tbl, 2, 2, "b"))
	commitSCN, _ := tx.Commit()
	if len(hook.commits) != 1 || hook.commits[0] != commitSCN || hook.changes != 2 {
		t.Fatalf("hook got %v/%d, want [%d]/2", hook.commits, hook.changes, commitSCN)
	}

	// Aborted transactions never reach the hook.
	tx = inst.Begin()
	_, _ = tx.Insert(tbl, newRow(tbl, 3, 3, "c"))
	_ = tx.Abort()
	if len(hook.commits) != 1 {
		t.Fatal("hook fired for aborted transaction")
	}
}

func TestCommitAtomicityUnderConcurrentSnapshots(t *testing.T) {
	// A transaction updates two rows; concurrent readers taking snapshots
	// must never see exactly one of the two changes.
	c := NewCluster(1, 8)
	inst := c.Instance(0)
	tbl, _ := inst.CreateTable(wideSpec(1))
	seed := inst.Begin()
	_, _ = seed.Insert(tbl, newRow(tbl, 0, 0, "a"))
	_, _ = seed.Insert(tbl, newRow(tbl, 1, 0, "a"))
	_, _ = seed.Commit()
	rid0, _ := tbl.Index().Get(0)
	rid1, _ := tbl.Index().Get(1)
	seg := tbl.Segments()[0]
	schema := tbl.Schema()

	stop := make(chan struct{})
	errs := make(chan string, 1)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := c.Snapshot()
				v0, _ := seg.Block(rid0.DBA.Block()).ReadRow(rid0.Slot, snap, c.Txns(), scn.InvalidTxn)
				v1, _ := seg.Block(rid1.DBA.Block()).ReadRow(rid1.Slot, snap, c.Txns(), scn.InvalidTxn)
				if v0.Num(schema.Col(1).Slot()) != v1.Num(schema.Col(1).Slot()) {
					select {
					case errs <- "torn transaction observed":
					default:
					}
					return
				}
			}
		}()
	}
	for i := int64(1); i <= 300; i++ {
		tx := inst.Begin()
		val := i
		for _, id := range []int64{0, 1} {
			if err := tx.UpdateByID(tbl, id, []uint16{1}, func(r *rowstore.Row) {
				r.Nums[schema.Col(1).Slot()] = val
			}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

func TestRACTwoThreadsShareClockAndData(t *testing.T) {
	c := NewCluster(2, 8)
	i1, i2 := c.Instance(0), c.Instance(1)
	tbl, _ := i1.CreateTable(wideSpec(1))

	tx1 := i1.Begin()
	_, _ = tx1.Insert(tbl, newRow(tbl, 1, 1, "a"))
	s1, _ := tx1.Commit()
	tx2 := i2.Begin()
	_, _ = tx2.Insert(tbl, newRow(tbl, 2, 2, "b"))
	s2, _ := tx2.Commit()
	if s2 <= s1 {
		t.Fatalf("cluster SCNs not shared: %d then %d", s1, s2)
	}
	if n := tbl.Segments()[0].RowCountVisible(c.Snapshot(), c.Txns()); n != 2 {
		t.Fatalf("rows visible across instances = %d, want 2", n)
	}
	if i1.Stream().Len() == 0 || i2.Stream().Len() == 0 {
		t.Fatal("each instance should write its own redo thread")
	}
	if i1.Stream().Thread() == i2.Stream().Thread() {
		t.Fatal("redo threads must differ")
	}
}

func TestDDLMarkers(t *testing.T) {
	c := NewCluster(1, 8)
	inst := c.Instance(0)
	spec := wideSpec(1)
	tbl, _ := inst.CreateTable(spec)

	tx := inst.Begin()
	_, _ = tx.Insert(tbl, newRow(tbl, 1, 1, "a"))
	_, _ = tx.Commit()

	if err := inst.Truncate(1, "T", ""); err != nil {
		t.Fatal(err)
	}
	if n := tbl.Segments()[0].RowCountVisible(c.Snapshot(), c.Txns()); n != 0 {
		t.Fatal("truncate left visible rows")
	}
	if tbl.Index().Len() != 0 {
		t.Fatal("truncate left index entries")
	}
	if err := inst.DropColumn(1, "T", "n1"); err != nil {
		t.Fatal(err)
	}
	if tbl.Schema().ColIndex("n1") != -1 {
		t.Fatal("column still present after drop")
	}
	// The stream carries create/truncate/drop markers.
	var kinds []redo.MarkerKind
	for i := 0; i < inst.Stream().Len(); i++ {
		rec, _ := inst.Stream().At(i)
		for _, cv := range rec.CVs {
			if cv.Kind == redo.CVMarker {
				kinds = append(kinds, cv.Marker.Kind)
			}
		}
	}
	want := []redo.MarkerKind{redo.MarkerCreateTable, redo.MarkerTruncate, redo.MarkerDropColumn}
	if len(kinds) != len(want) {
		t.Fatalf("marker kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("marker kinds = %v, want %v", kinds, want)
		}
	}
}

func TestVacuumAndForget(t *testing.T) {
	c := NewCluster(1, 8)
	inst := c.Instance(0)
	tbl, _ := inst.CreateTable(wideSpec(1))
	tx := inst.Begin()
	_, _ = tx.Insert(tbl, newRow(tbl, 1, 0, "a"))
	_, _ = tx.Commit()
	for i := 0; i < 10; i++ {
		tx := inst.Begin()
		_ = tx.UpdateByID(tbl, 1, []uint16{1}, func(r *rowstore.Row) { r.Nums[1]++ })
		_, _ = tx.Commit()
	}
	horizon := c.Snapshot()
	freed, _ := c.Vacuum(horizon)
	if freed == 0 {
		t.Fatal("vacuum freed nothing")
	}
	// Second vacuum can forget transactions below the first horizon.
	tx2 := inst.Begin()
	_ = tx2.UpdateByID(tbl, 1, []uint16{1}, func(r *rowstore.Row) { r.Nums[1]++ })
	_, _ = tx2.Commit()
	_, dropped := c.Vacuum(c.Snapshot())
	if dropped == 0 {
		t.Fatal("forget dropped nothing")
	}
	// Data remains correct after vacuum+forget.
	rid, _ := tbl.Index().Get(1)
	row, ok := tbl.Segments()[0].Block(rid.DBA.Block()).ReadRow(rid.Slot, c.Snapshot(), c.Txns(), scn.InvalidTxn)
	if !ok || row.Num(tbl.Schema().Col(1).Slot()) != 11 {
		t.Fatalf("post-vacuum read: %v ok=%v, want n1=11", row.Num(tbl.Schema().Col(1).Slot()), ok)
	}
}

func TestRowLockConflictAcrossTxns(t *testing.T) {
	c := NewCluster(1, 8)
	inst := c.Instance(0)
	tbl, _ := inst.CreateTable(wideSpec(1))
	tx := inst.Begin()
	_, _ = tx.Insert(tbl, newRow(tbl, 1, 0, "a"))
	_, _ = tx.Commit()

	t1 := inst.Begin()
	if err := t1.UpdateByID(tbl, 1, nil, func(r *rowstore.Row) { r.Nums[1] = 1 }); err != nil {
		t.Fatal(err)
	}
	t2 := inst.Begin()
	err := t2.UpdateByID(tbl, 1, nil, func(r *rowstore.Row) { r.Nums[1] = 2 })
	if err != rowstore.ErrRowLocked {
		t.Fatalf("conflict err = %v, want ErrRowLocked", err)
	}
	_, _ = t1.Commit()
	// After commit the row is free.
	if err := t2.UpdateByID(tbl, 1, nil, func(r *rowstore.Row) { r.Nums[1] = 2 }); err != nil {
		t.Fatalf("update after unlock: %v", err)
	}
	_, _ = t2.Commit()
}

// TestUpdateOfDeletedRow: updating a row whose newest version is a delete —
// through a stale RowID, or after a delete in the same transaction — returns
// rowstore.ErrRowDeleted and never runs the callback (it used to receive an
// empty row and index it while the block latch was write-held).
func TestUpdateOfDeletedRow(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sameTxn bool
	}{{"stale RowID after a committed delete", false}, {"delete then update in one transaction", true}} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCluster(1, 8)
			inst := c.Instance(0)
			tbl, _ := inst.CreateTable(wideSpec(1))
			tx := inst.Begin()
			rid, err := tx.Insert(tbl, newRow(tbl, 1, 1, "a"))
			if err != nil {
				t.Fatal(err)
			}
			_, _ = tx.Commit()
			tx = inst.Begin()
			if err := tx.DeleteByID(tbl, 1); err != nil {
				t.Fatal(err)
			}
			if !tc.sameTxn {
				_, _ = tx.Commit()
				tx = inst.Begin()
			}
			mutate := func(r *rowstore.Row) { t.Error("callback ran on a deleted row"); r.Nums[1] = 9 }
			if err := tx.UpdateAt(tbl, rid, []uint16{1}, mutate); !errors.Is(err, rowstore.ErrRowDeleted) {
				t.Fatalf("UpdateAt = %v, want ErrRowDeleted", err)
			}
			if err := tx.UpdateByID(tbl, 1, []uint16{1}, mutate); !errors.Is(err, rowstore.ErrRowDeleted) {
				t.Fatalf("UpdateByID = %v, want ErrRowDeleted", err)
			}
			if err := tx.DeleteByID(tbl, 1); !errors.Is(err, rowstore.ErrRowDeleted) {
				t.Fatalf("second DeleteByID = %v, want ErrRowDeleted", err)
			}
		})
	}
}

// TestInsertCopiesTheRow: the row store packs what Insert is given; the caller
// may go on using its Row.
func TestInsertCopiesTheRow(t *testing.T) {
	c := NewCluster(1, 8)
	inst := c.Instance(0)
	tbl, _ := inst.CreateTable(wideSpec(1))
	row := newRow(tbl, 1, 100, "a")
	tx := inst.Begin()
	rid, err := tx.Insert(tbl, row)
	if err != nil {
		t.Fatal(err)
	}
	row.Nums[1], row.Strs[0] = -1, "overwritten"
	_, _ = tx.Commit()
	img, ok := tbl.Segments()[0].Block(rid.DBA.Block()).ReadRow(rid.Slot, c.Snapshot(), c.Txns(), scn.InvalidTxn)
	if !ok || img.Num(1) != 100 || img.Str(0) != "a" {
		t.Fatalf("stored image follows the caller's row: n1=%d c1=%q", img.Num(1), img.Str(0))
	}
	rec, _ := inst.Stream().At(inst.Stream().Len() - 2)
	if cv := rec.CVs[len(rec.CVs)-1]; cv.Kind != redo.CVInsert || cv.Row != img {
		t.Fatalf("insert CV does not carry the version's image: %+v", cv)
	}
}

// TestUpdateDeclaresItsColumns: the changed-column list is checked against what
// the callback did before anything is written or logged, and goes into the redo
// record as given.
func TestUpdateDeclaresItsColumns(t *testing.T) {
	c := NewCluster(1, 8)
	inst := c.Instance(0)
	tbl, _ := inst.CreateTable(wideSpec(1))
	tx := inst.Begin()
	rid, err := tx.Insert(tbl, newRow(tbl, 1, 100, "a"))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = tx.Commit()
	logged := inst.Stream().Len()

	tx = inst.Begin()
	for _, tc := range []struct {
		name     string
		declared []uint16
		mutate   func(*rowstore.Row)
	}{
		{"number for a varchar", []uint16{1}, func(r *rowstore.Row) { r.Strs[0] = "b" }},
		{"one of two", []uint16{2}, func(r *rowstore.Row) { r.Nums[1], r.Strs[0] = 5, "b" }},
	} {
		if err := tx.UpdateAt(tbl, rid, tc.declared, tc.mutate); !errors.Is(err, rowstore.ErrUndeclaredChange) {
			t.Fatalf("%s: UpdateAt = %v, want ErrUndeclaredChange", tc.name, err)
		}
		if err := tx.UpdateByID(tbl, 1, tc.declared, tc.mutate); !errors.Is(err, rowstore.ErrUndeclaredChange) {
			t.Fatalf("%s: UpdateByID = %v, want ErrUndeclaredChange", tc.name, err)
		}
	}
	if n := inst.Stream().Len(); n != logged {
		t.Fatalf("refused updates logged %d records", n-logged)
	}
	if img, _ := tbl.Segments()[0].Block(rid.DBA.Block()).LatestImage(rid.Slot, c.Txns()); img.Num(1) != 100 || img.Str(0) != "a" {
		t.Fatalf("refused updates changed the row: n1=%d c1=%q", img.Num(1), img.Str(0))
	}
	// Declared, and more than changed: accepted, logged as declared.
	if err := tx.UpdateAt(tbl, rid, []uint16{2, 1}, func(r *rowstore.Row) { r.Strs[0] = "b" }); err != nil {
		t.Fatal(err)
	}
	rec, _ := inst.Stream().At(inst.Stream().Len() - 1)
	cv := rec.CVs[len(rec.CVs)-1]
	if cv.Kind != redo.CVUpdate || len(cv.ChangedCols) != 2 || cv.ChangedCols[0] != 2 || cv.ChangedCols[1] != 1 {
		t.Fatalf("logged %v with columns %v, want the update with [2 1]", cv.Kind, cv.ChangedCols)
	}
	// No list: unknown, not checked.
	if err := tx.UpdateAt(tbl, rid, nil, func(r *rowstore.Row) { r.Nums[1] = 1 }); err != nil {
		t.Fatal(err)
	}
	_, _ = tx.Commit()
}
