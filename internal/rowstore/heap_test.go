package rowstore_test

import (
	"math/rand"
	"runtime"
	"testing"

	"dbimadg/internal/primary"
	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/testutil"
	"dbimadg/internal/workload"
)

// sizeClasses are the allocator's classes around a row image of the bench table.
var sizeClasses = []int{704, 768, 896, 1024, 1152}

func classOf(n int) int {
	for _, c := range sizeClasses {
		if n <= c {
			return c
		}
	}
	return n
}

// TestVersionStaysInItsSizeClass pins what a row version costs: the version
// struct in the 48-byte class (walk fields, commit hint and the image's string
// header — a word more moves it to 64), and the bench table's packed image, 51
// numbers and 50 eight-byte strings, in the 896-byte class (31 bytes more move
// it to 1 024, a seventh on every version of the heap).
func TestVersionStaysInItsSizeClass(t *testing.T) {
	if rowstore.VersionSize > 48 {
		t.Fatalf("version is %d bytes, want <= 48", rowstore.VersionSize)
	}
	tbl, err := rowstore.NewDatabase(128).CreateTable(workload.WideTableSpec("C101", 1))
	if err != nil {
		t.Fatal(err)
	}
	img := rowstore.Pack(workload.FillRow(tbl.Schema(), 1<<40, rand.New(rand.NewSource(1))))
	if len(img) > 896 {
		t.Fatalf("the bench table's row image is %d bytes, want <= 896", len(img))
	}
}

// TestHeapPerVersion measures the layout where it is paid: 10 000 rows of the
// bench table held as row versions, on a standby (encoded, decoded, applied)
// and on a primary (inserted), in bytes of live heap per version after a
// collection. With a version that pointed to two arrays and fifty string
// bodies the same harness read 1 802 and 1 629 (1 400 of version, whose string
// bodies the generator interns, under the primary's redo record and index
// entry).
func TestHeapPerVersion(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector changes what the heap holds")
	}
	const rows, rowsPerBlock = 10000, 128
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	spec := workload.WideTableSpec("C101", 1)

	rng := rand.New(rand.NewSource(1))
	tbl, err := rowstore.NewDatabase(rowsPerBlock).CreateTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	seg := tbl.Segments()[0]
	var wire []byte
	before := live()
	imgLen := 0
	for i := 0; i < rows; i++ {
		rec := &redo.Record{SCN: 5, Thread: 1, CVs: []redo.CV{{
			Kind: redo.CVInsert, Txn: 9, Tenant: 1, Slot: uint16(i % rowsPerBlock),
			DBA: rowstore.MakeDBA(seg.Obj(), rowstore.BlockNo(i/rowsPerBlock)),
			Row: rowstore.Pack(workload.FillRow(tbl.Schema(), int64(i), rng)),
		}}}
		wire = redo.AppendRecord(wire[:0], rec)
		got, err := redo.DecodeRecord(wire)
		if err != nil {
			t.Fatal(err)
		}
		cv := &got.CVs[0]
		seg.EnsureBlock(cv.DBA.Block()).ApplyVersion(cv.Slot, cv.Txn, cv.Row, false)
		imgLen = len(cv.Row)
	}
	standby := float64(live()-before) / rows
	t.Logf("standby: %.0f B of heap per version; image %d B, size class %d, version struct %d B",
		standby, imgLen, classOf(imgLen), rowstore.VersionSize)
	if standby > 1000 {
		t.Errorf("a standby's row version holds %.0f B of heap, want <= 1000", standby)
	}
	runtime.KeepAlive(tbl)

	c := primary.NewCluster(1, rowsPerBlock)
	pTbl, err := c.Instance(0).CreateTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	stream := c.Instance(0).Stream()
	before = live()
	tx := c.Instance(0).Begin()
	for i := 0; i < rows; i++ {
		if _, err := tx.Insert(pTbl, workload.FillRow(pTbl.Schema(), int64(i), rng)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Beside the version the primary keeps the insert's redo record (record and
	// CV, about 150 B; the image is the version's) and an index entry.
	pri := float64(live()-before) / rows
	t.Logf("primary: %.0f B of heap per inserted row (version, redo record, index entry)", pri)
	if pri > 1200 {
		t.Errorf("a primary's inserted row holds %.0f B of heap, want <= 1200 (1000 of version)", pri)
	}
	runtime.KeepAlive(pTbl)
	runtime.KeepAlive(stream)
}
