package redo

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

func sampleRecord() *Record {
	return &Record{
		SCN:    12345,
		Thread: 2,
		CVs: []CV{
			{
				Kind: CVBegin, Txn: 7, Tenant: 3,
			},
			{
				Kind: CVInsert, Txn: 7, Tenant: 3,
				DBA: rowstore.MakeDBA(42, 9), Slot: 17,
				Row: rowstore.Pack(rowstore.Row{Nums: []int64{1, -5, 1 << 40}, Strs: []string{"hello", "", "wörld"}}),
			},
			{
				Kind: CVUpdate, Txn: 7, Tenant: 3,
				DBA: rowstore.MakeDBA(42, 10), Slot: 3,
				Row:         rowstore.Pack(rowstore.Row{Nums: []int64{9}, Strs: []string{"x"}}),
				ChangedCols: []uint16{1, 4},
			},
			{
				Kind: CVCommit, Txn: 7, Tenant: 3, HasIMCS: true,
			},
		},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	r := sampleRecord()
	buf := AppendRecord(nil, r)
	got, err := DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", r, got)
	}
}

func TestCodecMarkerRoundTrip(t *testing.T) {
	r := &Record{
		SCN: 5, Thread: 1,
		CVs: []CV{{
			Kind: CVMarker, Tenant: 1,
			Marker: &Marker{
				Kind: MarkerAlterInMemory, Tenant: 1, TableName: "SALES", Partition: "JAN",
				InMemory: &rowstore.InMemoryAttr{Enabled: true, Service: "standby", Priority: 5},
			},
		}},
	}
	got, err := DecodeRecord(AppendRecord(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("marker round trip mismatch:\n in: %+v\nout: %+v", r.CVs[0].Marker, got.CVs[0].Marker)
	}
}

func TestCodecCreateTableMarker(t *testing.T) {
	spec := &rowstore.TableSpec{
		Name: "T", Tenant: 2,
		Columns:     []rowstore.Column{{Name: "id", Kind: rowstore.KindNumber}, {Name: "c", Kind: rowstore.KindVarchar}},
		IdentityCol: 0, PartitionCol: -1,
		Partitions: []rowstore.PartitionSpec{{Name: "", Lo: -1 << 62, Hi: 1 << 62, Obj: 99}},
	}
	r := &Record{SCN: 1, CVs: []CV{{Kind: CVMarker, Marker: &Marker{Kind: MarkerCreateTable, Spec: spec}}}}
	got, err := DecodeRecord(AppendRecord(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	gs := got.CVs[0].Marker.Spec
	if gs.Name != "T" || gs.Partitions[0].Obj != 99 || len(gs.Columns) != 2 {
		t.Fatalf("spec mangled: %+v", gs)
	}
}

func TestCodecTruncatedInput(t *testing.T) {
	buf := AppendRecord(nil, sampleRecord())
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeRecord(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(buf))
		}
	}
	// Trailing garbage must also be rejected.
	if _, err := DecodeRecord(append(buf, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestCodecRandomRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rec := randomRecord(rand.New(rand.NewSource(seed)))
		got, err := DecodeRecord(AppendRecord(nil, rec))
		return err == nil && reflect.DeepEqual(rec, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	r1, r2 := sampleRecord(), sampleRecord()
	r2.SCN = 99999
	if _, err := WriteFrame(&buf, r1); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFrame(&buf, r2); err != nil {
		t.Fatal(err)
	}
	g1, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g1.SCN != r1.SCN || g2.SCN != 99999 {
		t.Fatalf("frames out of order: %d %d", g1.SCN, g2.SCN)
	}
}

func TestFrameLimit(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestStreamAppendRead(t *testing.T) {
	s := NewStream(1)
	for i := 1; i <= 10; i++ {
		s.Append(&Record{SCN: scn.SCN(i * 10), Thread: 1})
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.LastSCN() != 100 {
		t.Fatalf("LastSCN = %d", s.LastSCN())
	}
	if s.Bytes() <= 0 {
		t.Fatal("Bytes not accounted")
	}
	rd := NewReader(s, 0)
	for i := 1; i <= 10; i++ {
		rec, ok := rd.Next()
		if !ok || rec.SCN != scn.SCN(i*10) {
			t.Fatalf("Next %d = %v %v", i, rec, ok)
		}
	}
	s.Close()
	if _, ok := rd.Next(); ok {
		t.Fatal("read past end-of-log")
	}
}

func TestStreamOutOfOrderPanics(t *testing.T) {
	s := NewStream(1)
	s.Append(&Record{SCN: 100})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order append did not panic")
		}
	}()
	s.Append(&Record{SCN: 50})
}

func TestStreamBlockingReader(t *testing.T) {
	s := NewStream(1)
	got := make(chan scn.SCN, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rec, ok := NewReader(s, 0).Next()
		if ok {
			got <- rec.SCN
		}
	}()
	s.Append(&Record{SCN: 7})
	wg.Wait()
	if v := <-got; v != 7 {
		t.Fatalf("blocked reader got %d", v)
	}
}

func TestStreamReattachAtSCN(t *testing.T) {
	s := NewStream(1)
	for i := 1; i <= 10; i++ {
		s.Append(&Record{SCN: scn.SCN(i * 10)})
	}
	rd := NewReaderAtSCN(s, 55)
	rec, ok := rd.Next()
	if !ok || rec.SCN != 60 {
		t.Fatalf("reattach: got %v %v, want SCN 60", rec, ok)
	}
	// Exact hit attaches at the record itself.
	rd = NewReaderAtSCN(s, 60)
	rec, _ = rd.Next()
	if rec.SCN != 60 {
		t.Fatalf("reattach exact: got SCN %d", rec.SCN)
	}
}

// TestStreamRelease: released records are gone, positions stay absolute, the
// counters keep counting them, a reader attaching by SCN past them starts at
// the first record held, and an attach at or below them or a read of one
// panics.
func TestStreamRelease(t *testing.T) {
	s := NewStream(1)
	for i := 1; i <= 10; i++ {
		s.Append(&Record{SCN: scn.SCN(i * 10), CVs: make([]CV, 2)})
	}
	bytes := s.Bytes()
	_, heldAll, _ := s.Held()
	s.Release(7) // past half: compacts
	s.Release(3) // behind what is released already: nothing
	if n, b, _ := s.Held(); n != 3 || b != heldAll*3/10 {
		t.Fatalf("Held = %d records, %d bytes; want 3, %d", n, b, heldAll*3/10)
	}
	if _, _, rel := s.Held(); s.Len() != 10 || s.LastSCN() != 100 || s.Bytes() != bytes || rel != 70 {
		t.Fatalf("Len %d LastSCN %d Bytes %d released through SCN %d", s.Len(), s.LastSCN(), s.Bytes(), rel)
	}
	if rec, ok := s.At(8); !ok || rec.SCN != 90 {
		t.Fatalf("At(8) = %v %v, want SCN 90", rec, ok)
	}
	rd := NewReaderAtSCN(s, 71)
	if rd.Pos() != 7 {
		t.Fatalf("reader attaches at %d, want the first record held, 7", rd.Pos())
	}
	s.Append(&Record{SCN: 110})
	s.Release(8)
	if rec, _, _ := NewReaderAtSCN(s, 81).TryNext(); rec.SCN != 90 || s.Len() != 11 {
		t.Fatalf("after a second release: first held SCN %d, Len %d", rec.SCN, s.Len())
	}
	for _, target := range []scn.SCN{0, 55, 80} {
		if !panics(func() { NewReaderAtSCN(s, target) }) {
			t.Fatalf("attach at SCN %d, at or below the released SCN 80, did not panic", target)
		}
	}
	if !panics(func() { s.At(6) }) {
		t.Fatal("read of a released record did not panic")
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

func TestStreamTryNext(t *testing.T) {
	s := NewStream(1)
	rd := NewReader(s, 0)
	if _, ok, eol := rd.TryNext(); ok || eol {
		t.Fatal("empty open stream should report not-ready")
	}
	s.Append(&Record{SCN: 1})
	if rec, ok, _ := rd.TryNext(); !ok || rec.SCN != 1 {
		t.Fatal("TryNext missed appended record")
	}
	s.Close()
	if _, ok, eol := rd.TryNext(); ok || !eol {
		t.Fatal("closed drained stream should report end-of-log")
	}
}

// TestStreamWatch: a watcher is poked by appends and by Close without ever
// blocking the appender, pokes coalesce in its buffer, one channel can watch
// several streams, and Unwatch ends it.
func TestStreamWatch(t *testing.T) {
	a, b := NewStream(1), NewStream(2)
	wake := make(chan struct{}, 1)
	poked := func() bool {
		select {
		case <-wake:
			return true
		default:
			return false
		}
	}
	a.Watch(wake)
	b.Watch(wake)
	if poked() {
		t.Fatal("poked before any append")
	}
	a.Append(&Record{SCN: 1})
	a.Append(&Record{SCN: 2}) // finds the first poke pending; must not block
	if !poked() || poked() {
		t.Fatal("two appends should leave exactly one pending poke")
	}
	b.Append(&Record{SCN: 1, Thread: 2})
	if !poked() {
		t.Fatal("append to the second watched stream did not poke")
	}
	b.Close()
	if !poked() {
		t.Fatal("Close did not poke")
	}
	a.Unwatch(wake)
	a.Append(&Record{SCN: 3})
	if poked() {
		t.Fatal("poked after Unwatch")
	}
}

func TestCodecOriginExtensionRoundTrip(t *testing.T) {
	r := sampleRecord()
	r.OriginNS = 1_722_000_000_123_456_789
	buf := AppendRecord(nil, r)
	got, err := DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("origin round trip mismatch:\n in: %+v\nout: %+v", r, got)
	}
	// The stamped frame must also survive the full wire framing.
	var w bytes.Buffer
	if _, err := WriteFrame(&w, r); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadFrame(&w)
	if err != nil {
		t.Fatal(err)
	}
	if got2.OriginNS != r.OriginNS {
		t.Fatalf("framed origin = %d, want %d", got2.OriginNS, r.OriginNS)
	}
}

func TestCodecLegacyRecordDecodes(t *testing.T) {
	// A record without extensions is byte-identical to the pre-extension
	// format; decoding it must succeed with OriginNS zero.
	r := sampleRecord()
	buf := AppendRecord(nil, r)
	withExt := AppendRecord(nil, &Record{SCN: r.SCN, Thread: r.Thread, CVs: r.CVs, OriginNS: 1})
	if len(withExt) <= len(buf) {
		t.Fatal("extension did not extend the encoding")
	}
	got, err := DecodeRecord(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.OriginNS != 0 {
		t.Fatalf("legacy record decoded OriginNS = %d, want 0", got.OriginNS)
	}
}

func TestCodecUnknownExtensionSkipped(t *testing.T) {
	r := sampleRecord()
	r.OriginNS = 42
	buf := AppendRecord(nil, r)
	// A future sender appends an extension this decoder does not know.
	buf = append(buf, 0x7E)    // unknown tag
	buf = append(buf, 3)       // payload length
	buf = append(buf, 9, 9, 9) // opaque payload
	got, err := DecodeRecord(buf)
	if err != nil {
		t.Fatalf("unknown extension rejected: %v", err)
	}
	if got.OriginNS != 42 {
		t.Fatalf("known extension lost while skipping unknown one: OriginNS = %d", got.OriginNS)
	}
}

func TestCodecExtensionCorruption(t *testing.T) {
	r := sampleRecord()
	r.OriginNS = 42
	buf := AppendRecord(nil, r)
	// Reserved tag zero reads as corruption.
	if _, err := DecodeRecord(append(append([]byte{}, buf...), 0, 1, 1)); err == nil {
		t.Fatal("reserved tag 0 accepted")
	}
	// Truncated extension payloads are rejected at every cut.
	for cut := len(buf) - 1; cut > len(buf)-8; cut-- {
		if _, err := DecodeRecord(buf[:cut]); err == nil {
			// Cutting the whole extension off is legal (optional block); any
			// partial cut is not. Find the extension start to tell them apart.
			plain := AppendRecord(nil, &Record{SCN: r.SCN, Thread: r.Thread, CVs: r.CVs})
			if cut != len(plain) {
				t.Fatalf("truncated extension at %d/%d accepted", cut, len(buf))
			}
		}
	}
}

// TestCVStaysInItsSizeClass: see CV.
func TestCVStaysInItsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(CV{}); sz > 72 {
		t.Fatalf("CV is %d bytes, want <= 72 (two of them in the 144-byte class)", sz)
	}
}
