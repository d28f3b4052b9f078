package redo

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// Wire format (all integers unsigned varints unless noted):
//
//	record  := scn thread nCV cv* ext*
//	cv      := kind txn tenant dba slot flags nChanged changed* row marker
//	row     := nNums num* nStrs str*          (nums are zig-zag varints)
//	str     := len bytes
//	marker  := len jsonBytes                  (only when kind == CVMarker)
//	ext     := tag(byte) len payload          (versioned record extensions)
//
// Extensions are the record format's versioning mechanism: each is a tagged,
// length-prefixed block appended after the CV list. A record without
// extensions is byte-identical to the pre-extension format, so old frames
// decode unchanged; a decoder that does not know a tag skips its payload by
// length, so new senders interoperate with older receivers. Tag zero is
// reserved (a zero byte there indicates corruption, not an extension).
//
// Records are framed on the wire as
//
//	frame := len(uint32 BE) crc(uint32 BE) body
//
// where crc is the CRC-32C (Castagnoli) checksum of body. ReadFrame verifies
// the checksum before decoding and returns a *ChecksumError on mismatch, so a
// receiver can tell a corrupted frame (refetch from the archived log) from a
// malformed record (a protocol bug). This is what the TCP redo transport
// ships.

// cvFlagHasIMCS marks a commit CV whose transaction touched an IMCS-enabled
// object.
const cvFlagHasIMCS = 1 << 0

// Record-extension tags (see the wire-format comment above). Tag 0 is
// reserved so a stray zero byte after the CV list reads as corruption.
const (
	// extOriginNS carries Record.OriginNS as a uvarint payload: the
	// primary-side emission wall clock consumed by the freshness tracer.
	extOriginNS byte = 1
)

// AppendRecord serializes r onto buf and returns the extended slice.
func AppendRecord(buf []byte, r *Record) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.SCN))
	buf = binary.AppendUvarint(buf, uint64(r.Thread))
	buf = binary.AppendUvarint(buf, uint64(len(r.CVs)))
	for i := range r.CVs {
		buf = appendCV(buf, &r.CVs[i])
	}
	if r.OriginNS > 0 {
		var payload [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(payload[:], uint64(r.OriginNS))
		buf = append(buf, extOriginNS)
		buf = binary.AppendUvarint(buf, uint64(n))
		buf = append(buf, payload[:n]...)
	}
	return buf
}

func appendCV(buf []byte, cv *CV) []byte {
	buf = append(buf, byte(cv.Kind))
	buf = binary.AppendUvarint(buf, uint64(cv.Txn))
	buf = binary.AppendUvarint(buf, uint64(cv.Tenant))
	buf = binary.AppendUvarint(buf, uint64(cv.DBA))
	buf = binary.AppendUvarint(buf, uint64(cv.Slot))
	var flags byte
	if cv.HasIMCS {
		flags |= cvFlagHasIMCS
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(cv.ChangedCols)))
	for _, c := range cv.ChangedCols {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	nNums, nStrs := cv.Row.NumCount(), cv.Row.StrCount()
	buf = binary.AppendUvarint(buf, uint64(nNums))
	var tile [16]int64
	for s := 0; s < nNums; s += len(tile) {
		vals := tile[:min(len(tile), nNums-s)]
		cv.Row.Nums(vals, s)
		for _, v := range vals {
			buf = binary.AppendVarint(buf, v)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(nStrs))
	var strs [16]string
	for it := cv.Row.StrsFrom(0); nStrs > 0; {
		views := strs[:min(len(strs), nStrs)]
		it.Fill(views)
		for _, s := range views {
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		}
		nStrs -= len(views)
	}
	if cv.Kind == CVMarker {
		payload := markerPayload(cv.Marker)
		buf = binary.AppendUvarint(buf, uint64(len(payload)))
		buf = append(buf, payload...)
	}
	return buf
}

// markerPayload is a marker's JSON (plain structs: Marshal cannot fail), and
// nothing for no marker, which is how the decoder reads an empty payload back.
func markerPayload(m *Marker) []byte {
	if m == nil {
		return nil
	}
	payload, _ := json.Marshal(m)
	return payload
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// WireSize returns len(AppendRecord(nil, r)) without encoding and without
// writing to r (one record may be appended to several streams at once): the
// size NewRecord or the frame reader fixed, else a walk that mirrors
// AppendRecord and appendCV field for field.
func (r *Record) WireSize() int {
	if r.size != 0 {
		return int(r.size)
	}
	n := uvarintLen(uint64(r.SCN)) + uvarintLen(uint64(r.Thread)) + uvarintLen(uint64(len(r.CVs)))
	for i := range r.CVs {
		cv := &r.CVs[i]
		nNums, nStrs := cv.Row.NumCount(), cv.Row.StrCount()
		n += 2 + uvarintLen(uint64(cv.Txn)) + uvarintLen(uint64(cv.Tenant)) + uvarintLen(uint64(cv.DBA)) +
			uvarintLen(uint64(cv.Slot)) + uvarintLen(uint64(len(cv.ChangedCols))) +
			uvarintLen(uint64(nNums)) + uvarintLen(uint64(nStrs)) // 2: kind, flags
		for _, c := range cv.ChangedCols {
			n += uvarintLen(uint64(c))
		}
		var tile [16]int64
		for s := 0; s < nNums; s += len(tile) {
			vals := tile[:min(len(tile), nNums-s)]
			cv.Row.Nums(vals, s)
			for _, v := range vals {
				n += uvarintLen(uint64(v)<<1 ^ uint64(v>>63)) // zig-zag
			}
		}
		for it := cv.Row.StrsFrom(0); nStrs > 0; nStrs-- {
			s := it.Next()
			n += uvarintLen(uint64(len(s))) + len(s)
		}
		if cv.Kind == CVMarker {
			payload := len(markerPayload(cv.Marker))
			n += uvarintLen(uint64(payload)) + payload
		}
	}
	if r.OriginNS > 0 {
		n += 2 + uvarintLen(uint64(r.OriginNS)) // tag, one-byte length, payload
	}
	return n
}

// decoder reads varint-encoded fields from a byte slice. The first error
// sticks and empties buf, so that every later read fails on its bounds check
// and the common path tests nothing else.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.buf, d.off = nil, 0
}

// uvarint reads an unsigned varint in its shortest form (the only one
// AppendRecord writes: a padded one would decode and re-encode differently).
// The one-byte case — a count, a flag, a short string's length — inlines.
func (d *decoder) uvarint() uint64 {
	if d.off < len(d.buf) {
		if b := d.buf[d.off]; b < 0x80 {
			d.off++
			return uint64(b)
		}
	}
	return d.uvarintLong()
}

func (d *decoder) uvarintLong() uint64 {
	if b := d.buf[d.off:]; len(b) > 1 && b[1]-1 < 0x7f { // two bytes: most numbers
		d.off += 2
		return uint64(b[0]&0x7f) | uint64(b[1])<<7
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("redo: truncated uvarint at offset %d", d.off)
		return 0
	}
	if n > 1 && d.buf[d.off+n-1] == 0 {
		d.fail("redo: uvarint at offset %d is not in its shortest form", d.off)
		return 0
	}
	d.off += n
	return v
}

// upto reads a uvarint that must not exceed max; what names the field in the
// error.
func (d *decoder) upto(max uint64, what string) uint64 {
	v := d.uvarint()
	if v > max {
		d.fail("redo: %s %d out of range", what, v)
		return 0
	}
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1) // zig-zag, as binary.Varint
}

func (d *decoder) byte() byte {
	if d.off >= len(d.buf) {
		d.fail("redo: truncated byte at offset %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) bytes(n uint64) []byte {
	if n > uint64(len(d.buf)-d.off) {
		d.fail("redo: truncated bytes (%d wanted) at offset %d", n, d.off)
		return nil
	}
	d.off += int(n)
	return d.buf[d.off-int(n) : d.off]
}

// DecodeRecord parses one record from buf (which must contain exactly one
// record, e.g. one transport frame).
func DecodeRecord(buf []byte) (*Record, error) {
	d := &decoder{buf: buf}
	r := &Record{
		SCN:    scn.SCN(d.uvarint()),
		Thread: uint16(d.upto(math.MaxUint16, "thread")),
	}
	nCV := d.uvarint()
	if nCV > uint64(len(buf)) { // cheap sanity bound: every CV takes >= 1 byte
		return nil, fmt.Errorf("redo: implausible CV count %d", nCV)
	}
	if nCV > 0 {
		r.CVs = make([]CV, 0, nCV)
	}
	for i := uint64(0); i < nCV; i++ {
		cv, err := decodeCV(d)
		if err != nil {
			return nil, err
		}
		r.CVs = append(r.CVs, cv)
	}
	if d.err != nil {
		return nil, d.err
	}
	// Anything after the CV list is a sequence of tagged extensions; unknown
	// tags are skipped by length so newer senders stay decodable.
	for d.off < len(buf) {
		tag := d.byte()
		n := d.uvarint()
		payload := d.bytes(n)
		if d.err != nil {
			return nil, d.err
		}
		switch tag {
		case 0:
			return nil, fmt.Errorf("redo: reserved extension tag 0 at offset %d", d.off)
		case extOriginNS:
			v, k := binary.Uvarint(payload)
			if k <= 0 || v > math.MaxInt64 {
				return nil, fmt.Errorf("redo: bad origin-timestamp extension payload")
			}
			r.OriginNS = int64(v)
		default:
			// Unknown extension: skipped.
		}
	}
	return r, nil
}

func decodeCV(d *decoder) (CV, error) {
	var cv CV
	cv.Kind = CVKind(d.byte())
	cv.Txn = scn.TxnID(d.uvarint())
	cv.Tenant = rowstore.TenantID(d.upto(math.MaxUint32, "tenant"))
	cv.DBA = rowstore.DBA(d.uvarint())
	cv.Slot = uint16(d.upto(math.MaxUint16, "slot"))
	flags := d.byte()
	if flags&^cvFlagHasIMCS != 0 {
		d.fail("redo: unknown CV flags %#x", flags)
	}
	cv.HasIMCS = flags&cvFlagHasIMCS != 0
	nChanged := d.upto(math.MaxUint16, "changed-column count")
	if d.err != nil {
		return cv, d.err
	}
	if nChanged > 0 {
		cv.ChangedCols = make([]uint16, nChanged)
		for i := range cv.ChangedCols {
			cv.ChangedCols[i] = uint16(d.upto(math.MaxUint16, "changed column"))
		}
	}
	cv.Row = decodeImage(d)
	if cv.Kind == CVMarker {
		n := d.uvarint()
		payload := d.bytes(n)
		if d.err != nil {
			return cv, d.err
		}
		if len(payload) > 0 {
			cv.Marker = new(Marker)
			if err := json.Unmarshal(payload, cv.Marker); err != nil {
				return cv, fmt.Errorf("redo: bad marker payload: %w", err)
			}
		}
	}
	return cv, d.err
}

// decodeImage reads a CV's row section into the row store's packed image — the
// record's one allocation per row. A first pass over the section sizes the
// image, a second fills it in the order it is laid out: the numbers, then the
// strings.
func decodeImage(d *decoder) rowstore.Image {
	var p rowstore.Packer
	nNums := d.upto(math.MaxUint16, "number-column count")
	nums := d.off
	for k := nNums; k > 0; d.off++ { // a varint ends at its first byte below 0x80
		if d.off >= len(d.buf) {
			d.fail("redo: truncated row at offset %d", d.off)
			return ""
		}
		if d.buf[d.off] < 0x80 {
			k--
		}
	}
	nStrs := d.upto(math.MaxUint16, "string-column count")
	strs := d.off
	for i := uint64(0); i < nStrs; i++ {
		p.CountStr(len(d.bytes(d.uvarint())))
	}
	end := d.off
	if d.err != nil {
		return ""
	}
	p.Count(int(nNums))
	p.Begin()
	d.off = nums
	for i := uint64(0); i < nNums; i++ {
		p.Num(d.varint())
	}
	if d.err != nil { // a number padded, or past 64 bits; the strings have been read once
		return ""
	}
	for d.off = strs; d.off < end; {
		p.StrBytes(d.bytes(d.uvarint()))
	}
	return p.Image()
}

// castagnoli is the CRC-32C table used for frame checksums; the same
// polynomial Oracle uses for redo block checking (and that modern CPUs
// accelerate).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderSize is len(uint32) + crc(uint32).
const frameHeaderSize = 8

// ChecksumError reports a frame whose body failed CRC verification. The
// receiver treats it as transient corruption: drop the connection and refetch
// the record from the archived log (redial at LastSCN+1) rather than failing
// the apply pipeline.
type ChecksumError struct {
	Want, Got uint32
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("redo: frame checksum mismatch (want %08x, got %08x)", e.Want, e.Got)
}

// AppendFrame serializes r as a complete wire frame (length, CRC-32C,
// body) onto buf and returns the extended slice.
func AppendFrame(buf []byte, r *Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = AppendRecord(buf, r)
	body := buf[start+frameHeaderSize:]
	binary.BigEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.BigEndian.PutUint32(buf[start+4:], crc32.Checksum(body, castagnoli))
	return buf
}

// WriteFrame writes one length-prefixed, checksummed record to w.
func WriteFrame(w io.Writer, r *Record) (int, error) {
	frame := AppendFrame(nil, r)
	n, err := w.Write(frame)
	return n, err
}

// MaxFrameSize bounds a single record frame on the wire (16 MiB), protecting
// the reader from corrupt length prefixes.
const MaxFrameSize = 16 << 20

// eolFrame is the length-header sentinel marking a clean end of log. It is
// strictly greater than MaxFrameSize, so it can never be confused with a real
// frame. The explicit sentinel lets the receiver distinguish "the primary
// closed this redo thread" (stop pumping) from a dropped connection (redial
// and resume) — without it both look like io.EOF. The EOL frame is
// header-only: no CRC word, no body.
const eolFrame = 0xFFFFFFFF

// ErrEndOfLog is returned by ReadFrame when the sender signalled a clean end
// of the redo thread.
var ErrEndOfLog = fmt.Errorf("redo: end of log")

// WriteEOL writes the end-of-log sentinel frame to w.
func WriteEOL(w io.Writer) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], eolFrame)
	_, err := w.Write(hdr[:])
	return err
}

// FrameReader reads one connection's frames: the connection 64 KiB at a time,
// so one read call fetches every frame that has arrived, each body into a
// buffer reused from frame to frame (DecodeRecord copies what a record keeps).
// Bytes it has buffered belong to that connection; it must not outlive it.
type FrameReader struct {
	r    io.Reader
	hdr  [frameHeaderSize]byte
	body []byte
}

// NewFrameReader returns a buffered frame reader over conn.
func NewFrameReader(conn io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(conn, 64<<10)}
}

// Next reads one length-prefixed record and verifies its CRC-32C before
// decoding. It returns ErrEndOfLog when the sender wrote the end-of-log
// sentinel, and a *ChecksumError when the body does not match its checksum
// (the caller should refetch the record from the archived log). The header is
// read in one piece: the sentinel is half of one, with the close behind it.
func (f *FrameReader) Next() (*Record, error) {
	got, err := io.ReadFull(f.r, f.hdr[:])
	n := binary.BigEndian.Uint32(f.hdr[:4])
	if got >= 4 && n == eolFrame {
		return nil, ErrEndOfLog
	}
	if err != nil {
		return nil, err
	}
	if n > MaxFrameSize {
		return nil, fmt.Errorf("redo: frame of %d bytes exceeds limit", n)
	}
	if uint32(cap(f.body)) < n {
		f.body = make([]byte, n)
	}
	body := f.body[:n]
	if _, err := io.ReadFull(f.r, body); err != nil {
		return nil, err
	}
	want := binary.BigEndian.Uint32(f.hdr[4:])
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, &ChecksumError{Want: want, Got: got}
	}
	rec, err := DecodeRecord(body)
	if err == nil {
		rec.size = n
	}
	return rec, err
}

// ReadFrame reads one frame from r, taking no byte past it.
func ReadFrame(r io.Reader) (*Record, error) {
	return (&FrameReader{r: r}).Next()
}
