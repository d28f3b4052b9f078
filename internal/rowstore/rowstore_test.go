package rowstore

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"dbimadg/internal/scn"
)

// fakeTxnTable is a simple transaction table for tests.
type fakeTxnTable struct {
	mu sync.RWMutex
	m  map[scn.TxnID]struct {
		st  TxnStatus
		scn scn.SCN
	}
}

func newFakeTxnTable() *fakeTxnTable {
	return &fakeTxnTable{m: make(map[scn.TxnID]struct {
		st  TxnStatus
		scn scn.SCN
	})}
}

func (f *fakeTxnTable) set(id scn.TxnID, st TxnStatus, s scn.SCN) {
	f.mu.Lock()
	f.m[id] = struct {
		st  TxnStatus
		scn scn.SCN
	}{st, s}
	f.mu.Unlock()
}

func (f *fakeTxnTable) Lookup(id scn.TxnID) (TxnStatus, scn.SCN) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	e, ok := f.m[id]
	if !ok {
		return TxnUnknown, scn.Invalid
	}
	return e.st, e.scn
}

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Column{
		{Name: "id", Kind: KindNumber},
		{Name: "n1", Kind: KindNumber},
		{Name: "c1", Kind: KindVarchar},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mkRow(s *Schema, id, n1 int64, c1 string) Row {
	r := NewRow(s)
	r.Nums[s.Col(0).Slot()] = id
	r.Nums[s.Col(1).Slot()] = n1
	r.Strs[s.Col(2).Slot()] = c1
	return r
}

func mkImg(s *Schema, id, n1 int64, c1 string) Image { return Pack(mkRow(s, id, n1, c1)) }

func TestSchemaBasics(t *testing.T) {
	s := testSchema(t)
	if s.NumCols() != 3 {
		t.Fatalf("NumCols = %d, want 3", s.NumCols())
	}
	if s.NumberSlots() != 2 || s.VarcharSlots() != 1 {
		t.Fatalf("slots = (%d,%d), want (2,1)", s.NumberSlots(), s.VarcharSlots())
	}
	if got := s.ColIndex("c1"); got != 2 {
		t.Fatalf("ColIndex(c1) = %d, want 2", got)
	}
	if got := s.ColIndex("missing"); got != -1 {
		t.Fatalf("ColIndex(missing) = %d, want -1", got)
	}
	r := mkRow(s, 7, 42, "hello")
	if r.Num(s, 0) != 7 || r.Num(s, 1) != 42 || r.Str(s, 2) != "hello" {
		t.Fatalf("row accessors wrong: %+v", r)
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema([]Column{{Name: "a", Kind: KindNumber}, {Name: "a", Kind: KindVarchar}}); err == nil {
		t.Fatal("duplicate column name not rejected")
	}
	if _, err := NewSchema([]Column{{Name: "", Kind: KindNumber}}); err == nil {
		t.Fatal("empty column name not rejected")
	}
	if _, err := NewSchema([]Column{{Name: "a", Kind: ColKind(9)}}); err == nil {
		t.Fatal("bad kind not rejected")
	}
}

func TestSchemaDropColumn(t *testing.T) {
	s := testSchema(t)
	s2, err := s.DropColumn("n1")
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumCols() != 2 {
		t.Fatalf("NumCols after drop = %d, want 2", s2.NumCols())
	}
	if s2.ColIndex("n1") != -1 {
		t.Fatal("dropped column still resolvable")
	}
	// Old row images remain addressable through surviving columns' slots.
	r := mkRow(s, 1, 2, "x")
	if r.Str(s2, s2.ColIndex("c1")) != "x" {
		t.Fatal("surviving column slot broken after drop")
	}
	if _, err := s.DropColumn("nope"); err == nil {
		t.Fatal("dropping missing column not rejected")
	}
}

func TestDBAEncoding(t *testing.T) {
	d := MakeDBA(123, 456)
	if d.Obj() != 123 || d.Block() != 456 {
		t.Fatalf("round-trip failed: %v", d)
	}
	if d.String() != "123.456" {
		t.Fatalf("String() = %q", d.String())
	}
}

func TestDBAHashSpreads(t *testing.T) {
	// Consecutive blocks of one object must spread across a small worker pool.
	const workers = 4
	counts := make([]int, workers)
	for b := BlockNo(0); b < 1000; b++ {
		counts[MakeDBA(1, b).Hash()%workers]++
	}
	for w, c := range counts {
		if c < 150 {
			t.Fatalf("worker %d got only %d/1000 blocks; hash does not spread", w, c)
		}
	}
}

func TestBlockInsertAndVisibility(t *testing.T) {
	s := testSchema(t)
	tt := newFakeTxnTable()
	b := NewBlock(MakeDBA(1, 0), 16)

	tt.set(10, TxnActive, 0)
	if err := b.Insert(0, 10, mkImg(s, 1, 100, "a")); err != nil {
		t.Fatal(err)
	}
	// Uncommitted: invisible to other readers at any snapshot.
	if _, ok := b.ReadRow(0, 1000, tt, scn.InvalidTxn); ok {
		t.Fatal("uncommitted row visible")
	}
	// ... but visible to its own transaction.
	if _, ok := b.ReadRow(0, 1000, tt, 10); !ok {
		t.Fatal("own write not visible to writer")
	}
	tt.set(10, TxnCommitted, 50)
	if _, ok := b.ReadRow(0, 49, tt, scn.InvalidTxn); ok {
		t.Fatal("row visible before commitSCN")
	}
	row, ok := b.ReadRow(0, 50, tt, scn.InvalidTxn)
	if !ok || row.Num(s.Col(0).Slot()) != 1 {
		t.Fatal("row not visible at commitSCN")
	}
}

func TestBlockUpdateVersionChain(t *testing.T) {
	s := testSchema(t)
	tt := newFakeTxnTable()
	b := NewBlock(MakeDBA(1, 0), 16)

	tt.set(1, TxnCommitted, 10)
	if err := b.Insert(0, 1, mkImg(s, 1, 100, "a")); err != nil {
		t.Fatal(err)
	}
	tt.set(2, TxnCommitted, 20)
	if _, err := b.Update(0, 2, tt, new(Row), nil, nil, func(r *Row) { r.Nums[s.Col(1).Slot()] = 200 }); err != nil {
		t.Fatal(err)
	}
	// Snapshot between the two commits sees the old image (CR via chain).
	row, ok := b.ReadRow(0, 15, tt, scn.InvalidTxn)
	if !ok || row.Num(s.Col(1).Slot()) != 100 {
		t.Fatalf("CR read at 15: got %v ok=%v, want n1=100", row, ok)
	}
	row, ok = b.ReadRow(0, 20, tt, scn.InvalidTxn)
	if !ok || row.Num(s.Col(1).Slot()) != 200 {
		t.Fatalf("CR read at 20: got %v ok=%v, want n1=200", row, ok)
	}
	// Update must not have mutated the old version in place.
	if row.Str(s.Col(2).Slot()) != "a" {
		t.Fatal("unchanged column lost by update")
	}
}

func TestBlockWriteConflict(t *testing.T) {
	s := testSchema(t)
	tt := newFakeTxnTable()
	b := NewBlock(MakeDBA(1, 0), 16)
	tt.set(1, TxnCommitted, 10)
	_ = b.Insert(0, 1, mkImg(s, 1, 100, "a"))

	tt.set(2, TxnActive, 0)
	if _, err := b.Update(0, 2, tt, new(Row), nil, nil, func(r *Row) { r.Nums[0] = 1 }); err != nil {
		t.Fatal(err)
	}
	tt.set(3, TxnActive, 0)
	if _, err := b.Update(0, 3, tt, new(Row), nil, nil, func(r *Row) { r.Nums[0] = 2 }); err != ErrRowLocked {
		t.Fatalf("concurrent update err = %v, want ErrRowLocked", err)
	}
	// Same transaction may stack updates.
	if _, err := b.Update(0, 2, tt, new(Row), nil, nil, func(r *Row) { r.Nums[0] = 3 }); err != nil {
		t.Fatalf("same-txn second update: %v", err)
	}
}

func TestBlockAbortedVersionsSkipped(t *testing.T) {
	s := testSchema(t)
	tt := newFakeTxnTable()
	b := NewBlock(MakeDBA(1, 0), 16)
	tt.set(1, TxnCommitted, 10)
	_ = b.Insert(0, 1, mkImg(s, 1, 100, "a"))
	tt.set(2, TxnActive, 0)
	_, _ = b.Update(0, 2, tt, new(Row), nil, nil, func(r *Row) { r.Nums[s.Col(1).Slot()] = 999 })
	tt.set(2, TxnAborted, 0)

	row, ok := b.ReadRow(0, 100, tt, scn.InvalidTxn)
	if !ok || row.Num(s.Col(1).Slot()) != 100 {
		t.Fatalf("aborted version leaked: %v ok=%v", row, ok)
	}
	// A new writer sees through the aborted version for its base image.
	tt.set(3, TxnCommitted, 30)
	if _, err := b.Update(0, 3, tt, new(Row), nil, nil, func(r *Row) { r.Nums[s.Col(1).Slot()]++ }); err != nil {
		t.Fatal(err)
	}
	row, _ = b.ReadRow(0, 30, tt, scn.InvalidTxn)
	if row.Num(s.Col(1).Slot()) != 101 {
		t.Fatalf("base image included aborted version: n1=%d, want 101", row.Num(s.Col(1).Slot()))
	}
}

func TestBlockDelete(t *testing.T) {
	s := testSchema(t)
	tt := newFakeTxnTable()
	b := NewBlock(MakeDBA(1, 0), 16)
	tt.set(1, TxnCommitted, 10)
	_ = b.Insert(0, 1, mkImg(s, 1, 100, "a"))
	tt.set(2, TxnCommitted, 20)
	if err := b.Delete(0, 2, tt); err != nil {
		t.Fatal(err)
	}
	if _, ok := b.ReadRow(0, 15, tt, scn.InvalidTxn); !ok {
		t.Fatal("row invisible before delete commit")
	}
	if _, ok := b.ReadRow(0, 20, tt, scn.InvalidTxn); ok {
		t.Fatal("deleted row still visible")
	}
}

func TestBlockVacuum(t *testing.T) {
	s := testSchema(t)
	tt := newFakeTxnTable()
	b := NewBlock(MakeDBA(1, 0), 16)
	tt.set(1, TxnCommitted, 10)
	_ = b.Insert(0, 1, mkImg(s, 1, 0, "a"))
	for i := 2; i <= 10; i++ {
		tt.set(scn.TxnID(i), TxnCommitted, scn.SCN(i*10))
		_, _ = b.Update(0, scn.TxnID(i), tt, new(Row), nil, nil, func(r *Row) { r.Nums[s.Col(1).Slot()] = int64(i) })
	}
	if got := b.ChainLen(0); got != 10 {
		t.Fatalf("chain length = %d, want 10", got)
	}
	freed := b.Vacuum(55, tt) // newest version committed <= 55 is txn 5 (SCN 50)
	if freed == 0 {
		t.Fatal("vacuum freed nothing")
	}
	// Reads at or above the horizon still work.
	row, ok := b.ReadRow(0, 55, tt, scn.InvalidTxn)
	if !ok || row.Num(s.Col(1).Slot()) != 5 {
		t.Fatalf("post-vacuum read at 55: %v ok=%v, want n1=5", row, ok)
	}
	row, ok = b.ReadRow(0, 100, tt, scn.InvalidTxn)
	if !ok || row.Num(s.Col(1).Slot()) != 10 {
		t.Fatalf("post-vacuum read at 100: %v ok=%v, want n1=10", row, ok)
	}
}

func TestSegmentAllocAndScan(t *testing.T) {
	s := testSchema(t)
	tt := newFakeTxnTable()
	seg := NewSegment(1, 0, "t", "", 4) // tiny blocks to force several
	tt.set(1, TxnCommitted, 10)
	const rows = 10
	for i := 0; i < rows; i++ {
		rid := seg.AllocRowSlot()
		blk := seg.Block(rid.DBA.Block())
		if blk == nil {
			t.Fatalf("allocated slot in missing block %v", rid)
		}
		if err := blk.Insert(rid.Slot, 1, mkImg(s, int64(i), int64(i*10), fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if seg.BlockCount() != 3 {
		t.Fatalf("BlockCount = %d, want 3 (10 rows / 4 per block)", seg.BlockCount())
	}
	var got []int64
	seg.Scan(10, tt, func(_ RowID, r Image) bool {
		got = append(got, r.Num(s.Col(0).Slot()))
		return true
	})
	if len(got) != rows {
		t.Fatalf("scan returned %d rows, want %d", len(got), rows)
	}
	for i, id := range got {
		if id != int64(i) {
			t.Fatalf("scan order: got id %d at position %d", id, i)
		}
	}
	if n := seg.RowCountVisible(5, tt); n != 0 {
		t.Fatalf("rows visible before commit = %d, want 0", n)
	}
}

func TestSegmentEnsureBlockMirrorsLayout(t *testing.T) {
	seg := NewSegment(7, 0, "t", "", 8)
	b := seg.EnsureBlock(3)
	if b.DBA() != MakeDBA(7, 3) {
		t.Fatalf("EnsureBlock DBA = %v", b.DBA())
	}
	if seg.BlockCount() != 4 {
		t.Fatalf("BlockCount = %d, want 4 (gap fill)", seg.BlockCount())
	}
	if seg.EnsureBlock(3) != b {
		t.Fatal("EnsureBlock not idempotent")
	}
}

func TestSegmentTruncate(t *testing.T) {
	s := testSchema(t)
	tt := newFakeTxnTable()
	seg := NewSegment(1, 0, "t", "", 4)
	tt.set(1, TxnCommitted, 5)
	rid := seg.AllocRowSlot()
	_ = seg.Block(rid.DBA.Block()).Insert(rid.Slot, 1, mkImg(s, 1, 1, "x"))
	seg.Truncate()
	if seg.BlockCount() != 0 {
		t.Fatal("truncate left blocks behind")
	}
	if n := seg.RowCountVisible(100, tt); n != 0 {
		t.Fatalf("%d rows visible after truncate", n)
	}
}

func TestIndexBasics(t *testing.T) {
	idx := NewIndex()
	for i := int64(0); i < 1000; i++ {
		idx.Put(i, RowID{DBA: MakeDBA(1, BlockNo(i/128)), Slot: uint16(i % 128)})
	}
	if idx.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", idx.Len())
	}
	rid, ok := idx.Get(500)
	if !ok || rid.Slot != uint16(500%128) {
		t.Fatalf("Get(500) = %v %v", rid, ok)
	}
	idx.Clear()
	if idx.Len() != 0 {
		t.Fatal("Clear left entries")
	}
}

func TestDatabaseCreateTableAndRouting(t *testing.T) {
	db := NewDatabase(8)
	spec := &TableSpec{
		Name:         "SALES",
		Tenant:       1,
		Columns:      []Column{{Name: "id", Kind: KindNumber}, {Name: "month", Kind: KindNumber}, {Name: "amt", Kind: KindNumber}},
		IdentityCol:  0,
		PartitionCol: 1,
		Partitions: []PartitionSpec{
			{Name: "JAN", Lo: 1, Hi: 2},
			{Name: "FEB", Lo: 2, Hi: 3},
			{Name: "REST", Lo: 3, Hi: 13},
		},
	}
	tbl, err := db.CreateTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Object ids were assigned and written back into the spec.
	for _, ps := range spec.Partitions {
		if ps.Obj == 0 {
			t.Fatal("object id not assigned in spec")
		}
	}
	p, err := tbl.PartitionFor(2)
	if err != nil || p.Name != "FEB" {
		t.Fatalf("PartitionFor(2) = %v, %v", p, err)
	}
	if _, err := tbl.PartitionFor(13); err == nil {
		t.Fatal("out-of-range key not rejected")
	}
	if tbl.Index() == nil {
		t.Fatal("identity index missing")
	}
	got, err := db.Table(1, "SALES")
	if err != nil || got != tbl {
		t.Fatal("Table lookup failed")
	}
	if _, err := db.Table(2, "SALES"); err == nil {
		t.Fatal("tenant scoping broken")
	}
	owner, ok := db.TableForObj(spec.Partitions[1].Obj)
	if !ok || owner != tbl {
		t.Fatal("TableForObj failed")
	}
}

func TestDatabaseReplicatedCatalogIdentical(t *testing.T) {
	pri := NewDatabase(8)
	spec := &TableSpec{
		Name:        "T",
		Columns:     []Column{{Name: "id", Kind: KindNumber}},
		IdentityCol: 0, PartitionCol: -1,
	}
	if _, err := pri.CreateTable(spec); err != nil {
		t.Fatal(err)
	}
	// Ship the completed spec (with assigned object ids) to a standby catalog.
	sby := NewDatabase(8)
	if _, err := sby.CreateTable(spec); err != nil {
		t.Fatal(err)
	}
	pSeg, _ := pri.Segment(spec.Partitions[0].Obj)
	sSeg, ok := sby.Segment(spec.Partitions[0].Obj)
	if !ok || pSeg.Obj() != sSeg.Obj() {
		t.Fatal("standby segment ids differ from primary")
	}
}

func TestDatabaseCreateTableErrors(t *testing.T) {
	db := NewDatabase(8)
	if _, err := db.CreateTable(&TableSpec{
		Name: "bad1", Columns: []Column{{Name: "c", Kind: KindVarchar}}, IdentityCol: 0, PartitionCol: -1,
	}); err == nil {
		t.Fatal("varchar identity column accepted")
	}
	if _, err := db.CreateTable(&TableSpec{
		Name: "bad2", Columns: []Column{{Name: "c", Kind: KindNumber}}, IdentityCol: -1, PartitionCol: 0,
	}); err == nil {
		t.Fatal("partitioned table without partitions accepted")
	}
	ok := &TableSpec{Name: "t", Columns: []Column{{Name: "c", Kind: KindNumber}}, IdentityCol: -1, PartitionCol: -1}
	if _, err := db.CreateTable(ok); err != nil {
		t.Fatal(err)
	}
	dup := &TableSpec{Name: "t", Columns: []Column{{Name: "c", Kind: KindNumber}}, IdentityCol: -1, PartitionCol: -1}
	if _, err := db.CreateTable(dup); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

func TestDatabaseVacuum(t *testing.T) {
	db := NewDatabase(4)
	s := testSchema(t)
	tt := newFakeTxnTable()
	spec := &TableSpec{
		Name:        "t",
		Columns:     []Column{{Name: "id", Kind: KindNumber}, {Name: "n1", Kind: KindNumber}, {Name: "c1", Kind: KindVarchar}},
		IdentityCol: -1, PartitionCol: -1,
	}
	tbl, err := db.CreateTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	seg := tbl.Segments()[0]
	rid := seg.AllocRowSlot()
	tt.set(1, TxnCommitted, 10)
	_ = seg.Block(0).Insert(rid.Slot, 1, mkImg(s, 1, 0, "a"))
	for i := 2; i < 8; i++ {
		tt.set(scn.TxnID(i), TxnCommitted, scn.SCN(i*10))
		_, _ = seg.Block(0).Update(rid.Slot, scn.TxnID(i), tt, new(Row), nil, nil, func(r *Row) { r.Nums[1] = int64(i) })
	}
	if freed := db.Vacuum(math.MaxInt64, tt); freed == 0 {
		t.Fatal("vacuum freed nothing")
	}
	if got := seg.Block(0).ChainLen(rid.Slot); got != 1 {
		t.Fatalf("chain length after full vacuum = %d, want 1", got)
	}
}

// Property: Consistent Read returns, for every snapshot, the value written by
// the newest transaction whose commitSCN <= snapshot.
func TestCRVisibilityProperty(t *testing.T) {
	s := testSchema(t)
	f := func(commitSCNs []uint8) bool {
		if len(commitSCNs) == 0 || len(commitSCNs) > 24 {
			return true
		}
		tt := newFakeTxnTable()
		b := NewBlock(MakeDBA(1, 0), 4)
		// Build a history: version i written by txn i+1 with an arbitrary but
		// strictly increasing commitSCN derived from the fuzz input.
		cur := scn.SCN(0)
		commits := make([]scn.SCN, len(commitSCNs))
		for i, d := range commitSCNs {
			cur += scn.SCN(d%16) + 1
			commits[i] = cur
			txn := scn.TxnID(i + 1)
			tt.set(txn, TxnCommitted, cur)
			if i == 0 {
				if err := b.Insert(0, txn, mkImg(s, 0, int64(i), "v")); err != nil {
					return false
				}
			} else if _, err := b.Update(0, txn, tt, new(Row), nil, nil, func(r *Row) { r.Nums[s.Col(1).Slot()] = int64(i) }); err != nil {
				return false
			}
		}
		// Check every snapshot in range.
		for snap := scn.SCN(0); snap <= cur+2; snap++ {
			want := int64(-1)
			for i, c := range commits {
				if c <= snap {
					want = int64(i)
				}
			}
			row, ok := b.ReadRow(0, snap, tt, scn.InvalidTxn)
			if want == -1 {
				if ok {
					return false
				}
				continue
			}
			if !ok || row.Num(s.Col(1).Slot()) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	s := testSchema(t)
	tt := newFakeTxnTable()
	seg := NewSegment(1, 0, "t", "", 32)
	// Seed 64 rows.
	tt.set(1, TxnCommitted, 1)
	rids := make([]RowID, 64)
	for i := range rids {
		rids[i] = seg.AllocRowSlot()
		_ = seg.Block(rids[i].DBA.Block()).Insert(rids[i].Slot, 1, mkImg(s, int64(i), 0, "x"))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers: each owns a disjoint row range, so no lock conflicts.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			txn := scn.TxnID(100 + w)
			next := scn.SCN(100 + w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tt.set(txn, TxnActive, 0)
				rid := rids[w*16+i%16]
				_, _ = seg.Block(rid.DBA.Block()).Update(rid.Slot, txn, tt, new(Row), nil, nil, func(r *Row) { r.Nums[1]++ })
				next += 10
				tt.set(txn, TxnCommitted, next)
				txn += 10
			}
		}(w)
	}
	// Readers: scans must never crash or see torn rows.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				seg.Scan(scn.SCN(1+i), tt, func(_ RowID, row Image) bool {
					_ = row.Num(s.Col(1).Slot())
					return true
				})
			}
		}()
	}
	// Let readers finish, then stop writers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Readers exit on their own; writers need the stop signal. Wait a little
	// by closing stop immediately after readers are done is racy to detect,
	// so just close stop now and wait for everything.
	close(stop)
	<-done
}

// TestBlockUpdateUndeclaredChange: a change to a column outside a non-empty
// declared list is ErrUndeclaredChange and installs no version; the list may
// name columns that did not change, and an empty one is not checked.
func TestBlockUpdateUndeclaredChange(t *testing.T) {
	s := MustSchema([]Column{
		{Name: "id", Kind: KindNumber}, {Name: "n1", Kind: KindNumber},
		{Name: "c1", Kind: KindVarchar}, {Name: "c2", Kind: KindVarchar},
	})
	for _, tc := range []struct {
		name     string
		declared []uint16
		mutate   func(*Row)
		ok       bool
	}{
		{"declared number", []uint16{1}, func(r *Row) { r.Nums[1] = 7 }, true},
		{"declared varchar", []uint16{3}, func(r *Row) { r.Strs[1] = "longer than it was" }, true},
		{"both declared", []uint16{1, 2}, func(r *Row) { r.Nums[1], r.Strs[0] = 7, "" }, true},
		{"declared, unchanged", []uint16{1, 3}, func(r *Row) {}, true},
		{"declared, same value", []uint16{1}, func(r *Row) { r.Nums[1] = 100 }, true},
		{"undeclared number", []uint16{2}, func(r *Row) { r.Nums[1] = 7 }, false},
		{"undeclared identity", []uint16{1}, func(r *Row) { r.Nums[0], r.Nums[1] = 9, 7 }, false},
		{"undeclared varchar, same length", []uint16{2}, func(r *Row) { r.Strs[0], r.Strs[1] = "x", "B" }, false},
		{"undeclared varchar, bytes moved", []uint16{2}, func(r *Row) { r.Strs[0], r.Strs[1] = "aa", "" }, false},
		{"wrong kind's slot", []uint16{0}, func(r *Row) { r.Strs[0] = "x" }, false},
		{"column past the schema", []uint16{9}, func(r *Row) { r.Nums[1] = 7 }, false},
		{"nothing declared", nil, func(r *Row) { r.Nums[0], r.Strs[1] = 9, "any" }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tt := newFakeTxnTable()
			b := NewBlock(MakeDBA(1, 0), 4)
			tt.set(1, TxnCommitted, 10)
			r := NewRow(s)
			r.Nums[0], r.Nums[1], r.Strs[0], r.Strs[1] = 1, 100, "a", "b"
			if err := b.Insert(0, 1, Pack(r)); err != nil {
				t.Fatal(err)
			}
			tt.set(2, TxnActive, 0)
			img, err := b.Update(0, 2, tt, new(Row), s, tc.declared, tc.mutate)
			if tc.ok != (err == nil) || (!tc.ok && !errors.Is(err, ErrUndeclaredChange)) {
				t.Fatalf("Update = %v, want ok=%v", err, tc.ok)
			}
			if want := map[bool]int{true: 2, false: 1}[tc.ok]; b.ChainLen(0) != want || (img == "") == tc.ok {
				t.Fatalf("chain length %d, image returned %v; want %d versions", b.ChainLen(0), img != "", want)
			}
		})
	}
}
