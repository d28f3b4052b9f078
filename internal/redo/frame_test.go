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
			for j := rng.Intn(5); j > 0; j-- {
				cv.Row.Nums = append(cv.Row.Nums, rng.Int63()-rng.Int63())
			}
			for j := rng.Intn(5); j > 0; j-- {
				b := make([]byte, rng.Intn(20))
				rng.Read(b)
				cv.Row.Strs = append(cv.Row.Strs, string(b))
			}
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
	b.CVs[1].Row.Strs = []string{"HELLO", "!", "WORLD"}
	b.CVs[1].Row.Nums = []int64{7, 7, 7}
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

func FuzzDecodeRecord(f *testing.F) {
	seedFrames(f, false)
	f.Fuzz(func(t *testing.T, body []byte) {
		if rec, err := DecodeRecord(body); err == nil {
			checkReencodes(t, rec)
		}
	})
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
