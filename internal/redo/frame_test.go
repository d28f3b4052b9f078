package redo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"reflect"
	"testing"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
	"dbimadg/internal/testutil"
)

// randomRecord draws a record of up to five CVs of every kind, markers and the
// origin extension included.
func randomRecord(rng *rand.Rand) *Record {
	rec := &Record{SCN: scn.SCN(rng.Uint64() >> 1), Thread: uint16(rng.Intn(4))}
	if rng.Intn(2) == 0 {
		rec.OriginNS = rng.Int63()>>uint(rng.Intn(63)) + 1
	}
	for i := rng.Intn(6); i > 0; i-- {
		cv := CV{
			Kind: CVKind(rng.Intn(7) + 1), Txn: scn.TxnID(rng.Uint64() >> 1),
			Tenant: rowstore.TenantID(rng.Uint32()),
			DBA:    rowstore.DBA(rng.Uint64()), Slot: uint16(rng.Uint32()),
			HasIMCS: rng.Intn(2) == 0,
		}
		if cv.Kind == CVInsert || cv.Kind == CVUpdate {
			var row rowstore.Row
			for j := rng.Intn(5); j > 0; j-- {
				row.Nums = append(row.Nums, rng.Int63()-rng.Int63())
			}
			for j := rng.Intn(5); j > 0; j-- {
				b := make([]byte, rng.Intn(20)*rng.Intn(20)) // past 127 bytes now and then
				rng.Read(b)
				row.Strs = append(row.Strs, string(b))
			}
			cv.Row = rowstore.Pack(row)
		}
		if cv.Kind == CVUpdate {
			for j := rng.Intn(3); j > 0; j-- {
				cv.ChangedCols = append(cv.ChangedCols, uint16(rng.Uint32()))
			}
		}
		if cv.Kind == CVMarker && rng.Intn(4) > 0 { // one marker CV in four carries no payload
			cv.Marker = &Marker{Kind: MarkerKind(rng.Intn(4) + 1), Tenant: cv.Tenant, TableName: "T", Obj: rowstore.ObjID(rng.Uint32())}
			if cv.Marker.Kind == MarkerAlterInMemory {
				cv.Marker.InMemory = &rowstore.InMemoryAttr{Enabled: true, Service: "standby", Priority: rng.Intn(9)}
			}
		}
		rec.CVs = append(rec.CVs, cv)
	}
	return rec
}

// TestRecordSizeMatchesEncoding: the size-only walk behind WireSize agrees with
// the encoder to the byte, and so do the sizes NewRecord and the frame reader
// cache — Stream.Bytes and Receiver.BytesReceived count what they always did.
func TestRecordSizeMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	recs := []*Record{sampleRecord(), {}, {SCN: 1 << 62, Thread: 65535, OriginNS: 1}}
	for i := 0; i < 2000; i++ {
		recs = append(recs, randomRecord(rng))
	}
	for _, rec := range recs {
		want := len(AppendRecord(nil, rec))
		if got := rec.WireSize(); got != want {
			t.Fatalf("WireSize = %d, encoding is %d bytes: %+v", got, want, rec)
		}
		if got := NewRecord(rec.SCN, rec.Thread, rec.CVs, rec.OriginNS).WireSize(); got != want {
			t.Fatalf("NewRecord fixed WireSize = %d, encoding is %d bytes: %+v", got, want, rec)
		}
		read, err := ReadFrame(bytes.NewReader(AppendFrame(nil, rec)))
		if err != nil {
			t.Fatal(err)
		}
		if read.size != uint32(want) || read.WireSize() != want {
			t.Fatalf("frame reader cached size %d, frame body is %d bytes", read.size, want)
		}
	}
}

// TestFrameReaderRecordsOwnTheirBytes: the reader reuses its body buffer, so a
// record must hold copies — reading on may not change one already returned.
func TestFrameReaderRecordsOwnTheirBytes(t *testing.T) {
	a, b := sampleRecord(), sampleRecord()
	b.SCN++
	b.CVs[1].Row = rowstore.Pack(rowstore.Row{Nums: []int64{7, 7, 7}, Strs: []string{"HELLO", "!", "WORLD"}})
	fr := NewFrameReader(bytes.NewReader(AppendFrame(AppendFrame(nil, a), b)))
	gotA, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Next(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotA.CVs, a.CVs) {
		t.Fatalf("first record changed when the second was read: %+v", gotA.CVs)
	}
}

// TestAllocsPerRunFrameReader: reading a frame allocates what decoding its
// record does — no header, no body.
func TestAllocsPerRunFrameReader(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const n = 1000
	rec := sampleRecord()
	body := AppendRecord(nil, rec)
	var wire []byte
	for i := 0; i < n; i++ {
		wire = AppendFrame(wire, rec)
	}
	decode := testing.AllocsPerRun(100, func() {
		if _, err := DecodeRecord(body); err != nil {
			t.Fatal(err)
		}
	})
	src := bytes.NewReader(nil)
	perRun := testing.AllocsPerRun(10, func() {
		src.Reset(wire)
		fr := NewFrameReader(src) // reader, 64 KiB buffer, body buffer: three per run
		for i := 0; i < n; i++ {
			if _, err := fr.Next(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perRun > n*decode+8 {
		t.Fatalf("%.0f allocs for %d frames, want DecodeRecord's %.0f each and the reader's own", perRun, n, decode)
	}
}

// seedFrames adds the corruption tables of crc_test.go and
// TestCodecExtensionCorruption to a fuzz corpus, as frames or as bare bodies.
func seedFrames(f *testing.F, framed bool) {
	add := func(body []byte) {
		if !framed {
			f.Add(body)
			return
		}
		frame := make([]byte, frameHeaderSize, frameHeaderSize+len(body))
		binary.BigEndian.PutUint32(frame, uint32(len(body)))
		binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(body, castagnoli))
		f.Add(append(frame, body...))
	}
	stamped := sampleRecord()
	stamped.OriginNS = 42
	rng := rand.New(rand.NewSource(7))
	for _, rec := range []*Record{sampleRecord(), stamped, {}, randomRecord(rng), randomRecord(rng)} {
		body := AppendRecord(nil, rec)
		add(body)
		add(append(append([]byte{}, body...), 0, 1, 1))       // reserved extension tag
		add(append(append([]byte{}, body...), 0x7E, 3, 9, 9)) // unknown extension, cut short
		for cut := 0; cut < len(body); cut++ {
			add(body[:cut])
		}
		for i := range body {
			mut := append([]byte{}, body...)
			mut[i] ^= 0x40
			add(mut)
		}
	}
	if !framed {
		return
	}
	// Damage to the frame itself: flipped header and body bytes under a CRC
	// that no longer matches, every truncation, and the end-of-log sentinel.
	frame := AppendFrame(nil, sampleRecord())
	for i := range frame {
		mut := append([]byte{}, frame...)
		mut[i] ^= 0x40
		f.Add(mut)
		f.Add(frame[:i])
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
}

// checkReencodes is the property both fuzz targets hold a decoded record to:
// it re-encodes to a body of the size the walk predicts, and that body decodes
// to an equal record.
func checkReencodes(t *testing.T, rec *Record) {
	t.Helper()
	body := AppendRecord(nil, rec)
	again, err := DecodeRecord(body)
	if err != nil {
		t.Fatalf("re-encoded record does not decode: %v: %+v", err, rec)
	}
	if again.WireSize() != len(body) {
		t.Fatalf("size walk says %d, re-encoding is %d bytes: %+v", again.WireSize(), len(body), rec)
	}
	again.size = rec.size
	if !reflect.DeepEqual(rec, again) {
		t.Fatalf("re-encoded record decodes differently:\n was: %+v\n now: %+v", rec, again)
	}
}

// checkDecodeIsExact holds a record DecodeRecord made of body to the two
// properties of a decoder that neither narrows nor borrows. Its CV list
// re-encodes to the bytes it was read from — a slot, thread, tenant or changed
// column past its type's range, an unknown flag, a varint not in its shortest
// form are errors, not values that come back different — and with nothing
// behind the list, so does the record. (What follows the list is a chain of
// extensions a decoder may skip, and a marker's JSON need not be the
// encoder's: those are compared as values, by checkReencodes.) And no image,
// ChangedCols or marker shares memory with body: overwriting body leaves the
// record's encoding as it was. body is destroyed.
func checkDecodeIsExact(t *testing.T, rec *Record, body []byte) {
	t.Helper()
	enc := AppendRecord(nil, rec)
	marker := false
	for i := range rec.CVs {
		marker = marker || rec.CVs[i].Marker != nil
	}
	if cvs := AppendRecord(nil, &Record{SCN: rec.SCN, Thread: rec.Thread, CVs: rec.CVs}); !marker {
		if !bytes.HasPrefix(body, cvs) {
			t.Fatalf("CV list re-encodes differently:\n read: %x\n now:  %x", body, cvs)
		}
		if len(body) == len(cvs) && !bytes.Equal(enc, body) {
			t.Fatalf("record re-encodes differently:\n read: %x\n now:  %x", body, enc)
		}
	}
	for i := range body {
		body[i] ^= 0xA5
	}
	if after := AppendRecord(nil, rec); !bytes.Equal(after, enc) {
		t.Fatalf("record changed when the buffer it was decoded from was overwritten:\n was: %x\n now: %x", enc, after)
	}
}

func FuzzDecodeRecord(f *testing.F) {
	seedFrames(f, false)
	f.Fuzz(func(t *testing.T, body []byte) {
		if rec, err := DecodeRecord(body); err == nil {
			checkReencodes(t, rec)
			checkDecodeIsExact(t, rec, body)
		}
	})
}

// TestDecodeRejectsOutOfRange: a value that does not fit its field is a decode
// error; it used to be narrowed, so that slot 65 536 applied to slot 0.
func TestDecodeRejectsOutOfRange(t *testing.T) {
	head := func(thread uint64) []byte {
		return binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, 9), thread), 1) // scn, thread, one CV
	}
	cv := func(tenant, slot uint64, flags byte, changed ...uint64) []byte {
		b := append([]byte{byte(CVUpdate)}, 5) // kind, txn
		b = binary.AppendUvarint(binary.AppendUvarint(b, tenant), 77)
		b = append(binary.AppendUvarint(b, slot), flags)
		b = binary.AppendUvarint(b, uint64(len(changed)))
		for _, c := range changed {
			b = binary.AppendUvarint(b, c)
		}
		return append(b, 0, 0) // no row
	}
	for _, tc := range []struct {
		name string
		body []byte
		ok   bool
	}{
		{"largest values", append(head(65535), cv(1<<32-1, 65535, cvFlagHasIMCS, 65535)...), true},
		{"thread 65536", append(head(65536), cv(1, 2, 0)...), false},
		{"slot 65536", append(head(1), cv(1, 65536, 0)...), false},
		{"tenant 1<<32", append(head(1), cv(1<<32, 2, 0)...), false},
		{"changed column 65536", append(head(1), cv(1, 2, 0, 3, 65536)...), false},
		{"unknown flag", append(head(1), cv(1, 2, 0x82)...), false},
		{"slot 2 in two bytes", append(head(1), append([]byte{byte(CVUpdate), 5, 1, 77, 0x82, 0x00}, 0, 0, 0, 0)...), false},
	} {
		rec, err := DecodeRecord(tc.body)
		if (err == nil) != tc.ok {
			t.Errorf("%s: decoded to %+v, error %v", tc.name, rec, err)
		}
		if err == nil {
			checkDecodeIsExact(t, rec, tc.body)
		}
	}
}

var sinkRec *Record

// fullRowRecord is what the bench's update mix ships most: one record, one CV,
// one after-image of the 101-column table.
func fullRowRecord() *Record {
	row := rowstore.Row{Nums: make([]int64, 51), Strs: make([]string, 50)}
	for i := range row.Nums {
		row.Nums[i] = int64(i * 19 % 1000)
	}
	for i := range row.Strs {
		row.Strs[i] = "val_0" + string(rune('0'+i%10)) + "07"
	}
	return &Record{SCN: 1 << 20, Thread: 1, CVs: []CV{{
		Kind: CVUpdate, Txn: 1 << 18, Tenant: 1, DBA: rowstore.MakeDBA(1001, 4000), Slot: 17,
		Row: rowstore.Pack(row), ChangedCols: []uint16{1},
	}}}
}

// TestAllocsPerRunDecodeRecord: a full-row CV record decodes into the record,
// its CV list, the changed-column list and one packed image — not an object
// per string.
func TestAllocsPerRunDecodeRecord(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	body := AppendRecord(nil, fullRowRecord())
	allocs := testing.AllocsPerRun(200, func() {
		rec, err := DecodeRecord(body)
		if err != nil {
			t.Fatal(err)
		}
		sinkRec = rec
	})
	if allocs > 4 {
		t.Fatalf("DecodeRecord of a full-row CV record: %.0f allocations, want <= 4", allocs)
	}
}

func BenchmarkDecodeRecord(b *testing.B) {
	body := AppendRecord(nil, fullRowRecord())
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec, err := DecodeRecord(body)
		if err != nil {
			b.Fatal(err)
		}
		sinkRec = rec
	}
}

func BenchmarkEncodeRecord(b *testing.B) {
	rec := fullRowRecord()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendRecord(buf[:0], rec)
	}
}

func FuzzReadFrame(f *testing.F) {
	seedFrames(f, true)
	f.Fuzz(func(t *testing.T, wire []byte) {
		rec, err := ReadFrame(bytes.NewReader(wire))
		buffered, bufErr := NewFrameReader(bytes.NewReader(wire)).Next()
		if (err == nil) != (bufErr == nil) || errors.Is(err, ErrEndOfLog) != errors.Is(bufErr, ErrEndOfLog) || !reflect.DeepEqual(rec, buffered) {
			t.Fatalf("unbuffered read: %+v, %v; buffered: %+v, %v", rec, err, buffered, bufErr)
		}
		if err != nil {
			return
		}
		// A record came back: the bytes must be a whole frame whose checksum holds.
		if len(wire) < frameHeaderSize {
			t.Fatalf("record from %d bytes", len(wire))
		}
		n := binary.BigEndian.Uint32(wire)
		if uint64(n) > uint64(len(wire)-frameHeaderSize) {
			t.Fatalf("record from a frame of %d body bytes with %d on the wire", n, len(wire)-frameHeaderSize)
		}
		if got, want := crc32.Checksum(wire[frameHeaderSize:frameHeaderSize+n], castagnoli), binary.BigEndian.Uint32(wire[4:]); got != want {
			t.Fatalf("record from a frame whose checksum fails (%08x, header says %08x)", got, want)
		}
		if rec.size != n {
			t.Fatalf("cached size %d, frame body is %d bytes", rec.size, n)
		}
		checkReencodes(t, rec)
	})
}
