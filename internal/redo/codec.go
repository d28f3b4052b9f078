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
	buf = binary.AppendUvarint(buf, uint64(len(cv.Row.Nums)))
	for _, n := range cv.Row.Nums {
		buf = binary.AppendVarint(buf, n)
	}
	buf = binary.AppendUvarint(buf, uint64(len(cv.Row.Strs)))
	for _, s := range cv.Row.Strs {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
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
		n += 2 + uvarintLen(uint64(cv.Txn)) + uvarintLen(uint64(cv.Tenant)) + uvarintLen(uint64(cv.DBA)) +
			uvarintLen(uint64(cv.Slot)) + uvarintLen(uint64(len(cv.ChangedCols))) +
			uvarintLen(uint64(len(cv.Row.Nums))) + uvarintLen(uint64(len(cv.Row.Strs))) // 2: kind, flags
		for _, c := range cv.ChangedCols {
			n += uvarintLen(uint64(c))
		}
		for _, v := range cv.Row.Nums {
			n += uvarintLen(uint64(v)<<1 ^ uint64(v>>63)) // zig-zag
		}
		for _, s := range cv.Row.Strs {
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

// decoder reads varint-encoded fields from a byte slice.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("redo: truncated uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("redo: truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.err = fmt.Errorf("redo: truncated byte at offset %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) bytes(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.err = fmt.Errorf("redo: truncated bytes (%d wanted) at offset %d", n, d.off)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// DecodeRecord parses one record from buf (which must contain exactly one
// record, e.g. one transport frame).
func DecodeRecord(buf []byte) (*Record, error) {
	d := &decoder{buf: buf}
	r := &Record{
		SCN:    scn.SCN(d.uvarint()),
		Thread: uint16(d.uvarint()),
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
	cv.Tenant = rowstore.TenantID(d.uvarint())
	cv.DBA = rowstore.DBA(d.uvarint())
	cv.Slot = uint16(d.uvarint())
	flags := d.byte()
	cv.HasIMCS = flags&cvFlagHasIMCS != 0
	nChanged := d.uvarint()
	if d.err != nil {
		return cv, d.err
	}
	if nChanged > math.MaxUint16 {
		return cv, fmt.Errorf("redo: implausible changed-column count %d", nChanged)
	}
	if nChanged > 0 {
		cv.ChangedCols = make([]uint16, nChanged)
		for i := range cv.ChangedCols {
			cv.ChangedCols[i] = uint16(d.uvarint())
		}
	}
	nNums := d.uvarint()
	if d.err != nil {
		return cv, d.err
	}
	if nNums > math.MaxUint16 {
		return cv, fmt.Errorf("redo: implausible number-column count %d", nNums)
	}
	if nNums > 0 {
		cv.Row.Nums = make([]int64, nNums)
		for i := range cv.Row.Nums {
			cv.Row.Nums[i] = d.varint()
		}
	}
	nStrs := d.uvarint()
	if d.err != nil {
		return cv, d.err
	}
	if nStrs > math.MaxUint16 {
		return cv, fmt.Errorf("redo: implausible string-column count %d", nStrs)
	}
	if nStrs > 0 {
		cv.Row.Strs = make([]string, nStrs)
		for i := range cv.Row.Strs {
			n := d.uvarint()
			cv.Row.Strs[i] = string(d.bytes(n))
		}
	}
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
