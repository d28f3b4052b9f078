package imcs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// This file implements stable binary serialization of IMCUs and their SMU
// validity state, the substrate of the checkpoint subsystem
// (internal/checkpoint). The encoding covers every column representation the
// codec can produce — constant (width-0 frame-of-reference), bit-packed,
// run-length and dictionary — byte-exactly: a decoded IMCU serves scans
// identically to the original. Framing, CRC guards and file layout live in
// internal/checkpoint; this layer only turns units into bytes and back,
// because every payload field is unexported.

// unitImageVersion is the version byte leading every encoded unit image.
// Bump it whenever the layout below changes; the decoder rejects unknown
// versions (the caller then falls back to population from the row store).
const unitImageVersion = 1

// ErrSchemaChanged reports that a unit image was encoded against a schema
// that no longer matches the live table (DDL between checkpoint and restore).
// The unit must be rebuilt from the row store instead of restored.
var ErrSchemaChanged = errors.New("imcs: checkpointed schema differs from live schema")

// SchemaFingerprint identifies a schema shape for checkpoint validation:
// ordered column names and kinds. Two schemas with equal fingerprints decode
// column payloads identically (DropColumn preserves the slots of surviving
// columns, so any column-set change alters the fingerprint).
func SchemaFingerprint(s *rowstore.Schema) string {
	var b strings.Builder
	for i := 0; i < s.NumCols(); i++ {
		c := s.Col(i)
		fmt.Fprintf(&b, "%s:%d;", c.Name, c.Kind)
	}
	return b.String()
}

// UnitImage is a copy-on-write capture of one populated unit: the IMCU
// pointer (immutable, shared with the live store — no payload copy) plus a
// private copy of the SMU's row-validity bitmap at capture time. Taken under
// the SMU latch, so the bitmap is consistent with a single flush boundary.
type UnitImage struct {
	IMCU        *IMCU
	Invalid     []uint64
	InvalidRows int
}

// CaptureImage snapshots the unit under its SMU latch. ok is false when the
// unit cannot contribute to a checkpoint (still populating, dropped, or
// coarse-invalidated — restoring those would be wasted bytes: scans bypass
// them anyway).
func (u *Unit) CaptureImage() (UnitImage, bool) {
	s := &u.smu
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropped || s.imcu == nil || s.allInvalid {
		return UnitImage{}, false
	}
	cp := make([]uint64, len(s.invalid))
	copy(cp, s.invalid)
	return UnitImage{IMCU: s.imcu, Invalid: cp, InvalidRows: s.invalidRows}, true
}

// CaptureImages captures every checkpointable unit of the store. The IMCU
// payloads are shared (immutable), so the cost is one bitmap copy per unit —
// this is the copy-on-write protocol: population and repopulation keep
// running and simply attach replacement IMCUs while the checkpointer encodes
// the captured generation.
func (s *Store) CaptureImages() []UnitImage {
	var out []UnitImage
	s.mu.RLock()
	objs := make([]*objectUnits, 0, len(s.objs))
	for _, ou := range s.objs {
		objs = append(objs, ou)
	}
	s.mu.RUnlock()
	for _, ou := range objs {
		ou.mu.RLock()
		units := make([]*Unit, len(ou.units))
		copy(units, ou.units)
		ou.mu.RUnlock()
		for _, u := range units {
			if img, ok := u.CaptureImage(); ok {
				out = append(out, img)
			}
		}
	}
	return out
}

// RestoreUnit installs a unit restored from a checkpoint: a fully-attached
// IMCU with its validity bitmap pre-seeded, skipping the placeholder →
// populate lifecycle. The population engine's coverage check then treats the
// restored range as warm. Restored units are counted separately from
// engine-populated ones (UnitsRestored, exported as
// imcs_units_restored_total) so repopulation-pressure metrics stay honest.
// The IMCU's dictionaries are interned into the store's as a build's are; a
// column that changes makes the unit's IMCU a copy.
func (s *Store) RestoreUnit(img UnitImage) error {
	imcu := img.IMCU
	if imcu == nil {
		return errors.New("imcs: restore of unit image without IMCU")
	}
	ou := s.entry(imcu.Obj, imcu.Tenant)
	unit := &Unit{Obj: imcu.Obj, Tenant: imcu.Tenant, StartBlk: imcu.StartBlk, EndBlk: imcu.EndBlk}
	unit.smu.imcu = ou.dicts.reintern(imcu)
	unit.smu.invalid = img.Invalid
	if want := (imcu.Rows() + 63) / 64; len(img.Invalid) != want {
		unit.smu.invalid = make([]uint64, want)
		copy(unit.smu.invalid, img.Invalid)
	}
	unit.smu.invalidRows = img.InvalidRows
	if err := ou.add(unit); err != nil {
		return err
	}
	s.restored.Add(1)
	return nil
}

// UnitsRestored returns how many units were installed from checkpoint images.
func (s *Store) UnitsRestored() int64 { return s.restored.Load() }

// --- binary codec -----------------------------------------------------------

type byteWriter struct{ buf []byte }

func (w *byteWriter) u8(v uint8) { w.buf = append(w.buf, v) }
func (w *byteWriter) u16(v uint16) {
	w.buf = append(w.buf, byte(v), byte(v>>8))
}
func (w *byteWriter) u32(v uint32) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func (w *byteWriter) u64(v uint64) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
func (w *byteWriter) i64(v int64) { w.u64(uint64(v)) }
func (w *byteWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// words bulk-encodes a word vector. Word vectors carry the IMCU payloads
// (bit-packed columns, bitmaps), i.e. nearly every byte of a checkpoint, so
// this grows the buffer once and uses 8-byte stores instead of per-byte
// appends — on the restore-speed critical path together with byteReader.words.
func (w *byteWriter) words(v []uint64) {
	w.u32(uint32(len(v)))
	off := len(w.buf)
	w.buf = append(w.buf, make([]byte, 8*len(v))...)
	for _, x := range v {
		binary.LittleEndian.PutUint64(w.buf[off:], x)
		off += 8
	}
}

type byteReader struct {
	b   []byte
	off int
	err error
}

func (r *byteReader) fail() {
	if r.err == nil {
		r.err = errors.New("imcs: truncated unit image")
	}
}
func (r *byteReader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}
func (r *byteReader) u16() uint16 {
	if r.err != nil || r.off+2 > len(r.b) {
		r.fail()
		return 0
	}
	v := uint16(r.b[r.off]) | uint16(r.b[r.off+1])<<8
	r.off += 2
	return v
}
func (r *byteReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := uint32(r.b[r.off]) | uint32(r.b[r.off+1])<<8 | uint32(r.b[r.off+2])<<16 | uint32(r.b[r.off+3])<<24
	r.off += 4
	return v
}
func (r *byteReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}
func (r *byteReader) i64() int64 { return int64(r.u64()) }

// count reads a u32 length whose elements occupy elemSize bytes each,
// bounds-checking against the remaining input so a corrupt length cannot
// trigger a huge allocation.
func (r *byteReader) count(elemSize int) int {
	n := int(r.u32())
	if r.err == nil && (n < 0 || n*elemSize > len(r.b)-r.off) {
		r.fail()
		return 0
	}
	return n
}
func (r *byteReader) str() string {
	n := r.count(1)
	if r.err != nil {
		return ""
	}
	v := string(r.b[r.off : r.off+n])
	r.off += n
	return v
}

// words bulk-decodes a word vector with one bounds check and 8-byte loads —
// the checkpoint-restore critical path (see byteWriter.words).
func (r *byteReader) words() []uint64 {
	n := r.count(8)
	if r.err != nil {
		return nil
	}
	out := make([]uint64, n)
	b := r.b[r.off : r.off+8*n]
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	r.off += 8 * n
	return out
}

func encodeBitPacked(w *byteWriter, p *bitPacked) {
	w.i64(p.min)
	w.u8(p.width)
	w.u32(uint32(p.n))
	w.words(p.words)
}

func decodeBitPacked(r *byteReader) bitPacked {
	var p bitPacked
	p.min = r.i64()
	p.width = r.u8()
	p.n = int(r.u32())
	p.words = r.words()
	if r.err == nil && p.width > 64 {
		r.err = fmt.Errorf("imcs: bit-packed vector %d bits wide", p.width)
	}
	if r.err == nil && p.width > 0 {
		if want := (p.n*int(p.width) + 63) / 64; len(p.words) != want {
			r.err = fmt.Errorf("imcs: bit-packed vector has %d words, want %d", len(p.words), want)
		}
	}
	return p
}

func encodeNumColumn(w *byteWriter, c *NumColumn) {
	if c == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	w.u32(uint32(c.n))
	w.i64(c.min)
	w.i64(c.max)
	if c.useRLE {
		w.u8(1)
		w.u32(uint32(len(c.runs.runVals)))
		for i := range c.runs.runVals {
			w.i64(c.runs.runVals[i])
			w.u32(c.runs.runEnds[i])
		}
	} else {
		w.u8(0)
		encodeBitPacked(w, &c.packed)
	}
}

func decodeNumColumn(r *byteReader) *NumColumn {
	if r.u8() == 0 {
		return nil
	}
	c := &NumColumn{}
	c.n = int(r.u32())
	c.min = r.i64()
	c.max = r.i64()
	if r.u8() != 0 {
		c.useRLE = true
		c.runs.n = c.n
		nRuns := r.count(12)
		c.runs.runVals = make([]int64, nRuns)
		c.runs.runEnds = make([]uint32, nRuns)
		prev := uint32(0)
		for i := 0; i < nRuns; i++ {
			c.runs.runVals[i] = r.i64()
			c.runs.runEnds[i] = r.u32()
			if r.err == nil && c.runs.runEnds[i] <= prev {
				r.err = errors.New("imcs: RLE run ends not strictly increasing")
			}
			prev = c.runs.runEnds[i]
		}
		if r.err == nil && nRuns > 0 && int(c.runs.runEnds[nRuns-1]) != c.n {
			r.err = errors.New("imcs: RLE runs do not cover the column")
		}
		if r.err == nil && nRuns == 0 && c.n != 0 {
			r.err = errors.New("imcs: RLE column with no runs")
		}
	} else {
		c.packed = decodeBitPacked(r)
		if r.err == nil && c.packed.n != c.n {
			r.err = errors.New("imcs: packed vector length mismatch")
		}
	}
	return c
}

// StringPool dedupes dictionary strings across every unit of a checkpoint.
// Wide tables repeat the same domain values in the per-unit dictionaries of
// every IMCU and every varchar column; pooling them collapses that repetition
// to one file-level string section plus bit-packed per-dictionary references,
// which is most of the difference between a checkpoint sized like the row
// store and one sized like the (much smaller) unique value domain.
type StringPool struct {
	strs []string
	ids  map[string]uint32
}

// NewStringPool returns an empty encode-side pool.
func NewStringPool() *StringPool { return &StringPool{ids: make(map[string]uint32)} }

func (p *StringPool) id(s string) int64 {
	if id, ok := p.ids[s]; ok {
		return int64(id)
	}
	id := uint32(len(p.strs))
	p.strs = append(p.strs, s)
	p.ids[s] = id
	return int64(id)
}

// Len returns the number of distinct pooled strings.
func (p *StringPool) Len() int { return len(p.strs) }

// EncodeStringPool serializes the pool section: count then length-prefixed
// strings in id order.
func EncodeStringPool(p *StringPool) []byte {
	size := 4
	for _, s := range p.strs {
		size += 4 + len(s)
	}
	w := &byteWriter{buf: make([]byte, 0, size)}
	w.u32(uint32(len(p.strs)))
	for _, s := range p.strs {
		w.str(s)
	}
	return w.buf
}

// DecodeStringPool parses EncodeStringPool output. The returned slice is what
// DecodeUnitImage resolves dictionary references against; decoded dictionaries
// alias these strings, so restored units across all columns share one copy of
// each domain value.
func DecodeStringPool(data []byte) ([]string, error) {
	r := &byteReader{b: data}
	n := r.count(1)
	if r.err != nil {
		return nil, r.err
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("imcs: %d trailing bytes after string pool", len(data)-r.off)
	}
	return out, nil
}

func encodeStrColumn(w *byteWriter, c *StrColumn, pool *StringPool) {
	if c == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	w.u32(uint32(c.n))
	// The dictionary is stored as bit-packed pool references in dictionary
	// (i.e. sorted-string) order, not inline strings — see StringPool — and
	// only the values the column holds, the codes ranked among them: an image
	// encodes as it would with a dictionary of its own, whatever the store
	// shares.
	refs := make([]int64, 0, c.dict.Len())
	rank := make([]int64, c.dict.Len())
	for code, s := range c.dict.vals {
		if c.holds(int64(code)) {
			rank[code] = int64(len(refs))
			refs = append(refs, pool.id(s))
		}
	}
	packed := packInts(refs)
	encodeBitPacked(w, &packed)
	codes := c.codes
	if len(refs) < c.dict.Len() {
		vals := make([]int64, c.n)
		c.codes.decode(vals, 0)
		for i, v := range vals {
			vals[i] = rank[v]
		}
		codes = packRange(vals, 0, int64(len(refs)-1))
	}
	encodeBitPacked(w, &codes)
}

func decodeStrColumn(r *byteReader, pool []string) *StrColumn {
	if r.u8() == 0 {
		return nil
	}
	c := &StrColumn{}
	c.n = int(r.u32())
	refs := decodeBitPacked(r)
	if r.err == nil && (refs.n > c.n || refs.width == 0 && refs.n > 1) {
		// More entries than values, or entries that repeat: no column's.
		r.err = fmt.Errorf("imcs: dictionary of %d entries %d bits wide for %d values", refs.n, refs.width, c.n)
	}
	if r.err != nil {
		return c
	}
	vals := make([]string, refs.n)
	for i := range vals {
		id := refs.get(i)
		if id < 0 || id >= int64(len(pool)) {
			r.err = fmt.Errorf("imcs: dictionary reference %d out of pool range [0,%d)", id, len(pool))
			return c
		}
		vals[i] = pool[id]
	}
	// No per-entry sortedness re-check: every decode path runs behind the
	// checkpoint file CRC, and the encoder serializes dictionaries straight
	// from live (sorted) IMCUs — an O(dict) string-compare pass here would
	// only re-verify what the CRC already guarantees, on the restore-latency
	// critical path. The column holds every entry (the encoder writes no
	// other), from code 0.
	c.dict = newDict(vals)
	c.codes = decodeBitPacked(r)
	switch {
	case r.err != nil:
	case c.codes.n != c.n:
		r.err = errors.New("imcs: code vector length mismatch")
	case c.n > 0 && (len(vals) == 0 || c.codes.min != 0):
		r.err = fmt.Errorf("imcs: codes from %d into a dictionary of %d", c.codes.min, len(vals))
	case c.n > 0 && c.codes.width > 0 && uint64(len(vals)-1) < ^uint64(0)>>(64-c.codes.width):
		// The width admits codes past the dictionary's end: look at each.
		for i := 0; i < c.n; i++ {
			if code := c.codes.get(i); uint64(code) >= uint64(len(vals)) {
				r.err = fmt.Errorf("imcs: code %d at row %d past a %d-entry dictionary", code, i, len(vals))
				return c
			}
		}
		fallthrough
	case c.n > 0:
		c.hi, c.used = int64(len(vals)-1), make([]uint64, (len(vals)+63)/64)
		for k := range vals {
			c.used[k>>6] |= 1 << (k & 63)
		}
	}
	return c
}

// EncodeUnitImage serializes a captured unit image. The payload embeds the
// schema fingerprint the IMCU was built against so the decoder can reject
// images that a DDL has since invalidated. Dictionary strings go through pool
// (shared across every unit of one checkpoint file); decode needs the same
// pool's string table.
func EncodeUnitImage(img UnitImage, pool *StringPool) []byte {
	u := img.IMCU
	w := &byteWriter{buf: make([]byte, 0, u.MemSize()/4+256)}
	w.u8(unitImageVersion)
	w.u32(uint32(u.Obj))
	w.u32(uint32(u.Tenant))
	w.u32(uint32(u.StartBlk))
	w.u32(uint32(u.EndBlk))
	w.u32(uint32(u.PopulatedBy))
	w.str(SchemaFingerprint(u.schema))
	w.u64(uint64(u.SnapSCN))
	w.u32(uint32(u.nRows))
	w.u32(uint32(len(u.blockRows)))
	for _, n := range u.blockRows {
		w.u16(n)
	}
	w.words(u.present)
	w.u32(uint32(len(u.numCols)))
	for _, c := range u.numCols {
		encodeNumColumn(w, c)
	}
	w.u32(uint32(len(u.strCols)))
	for _, c := range u.strCols {
		encodeStrColumn(w, c, pool)
	}
	w.u8(0) // reserved: allInvalid units are never captured
	w.u32(uint32(img.InvalidRows))
	w.words(img.Invalid)
	return w.buf
}

// DecodeUnitImage reconstructs a unit image from EncodeUnitImage output.
// pool is the checkpoint file's decoded string table (DecodeStringPool);
// resolve maps an object id to its live schema (nil when the object no longer
// exists) — a fingerprint mismatch returns ErrSchemaChanged so the caller can
// fall back to population for that unit while restoring the rest.
func DecodeUnitImage(data []byte, pool []string, resolve func(rowstore.ObjID) *rowstore.Schema) (UnitImage, error) {
	r := &byteReader{b: data}
	if v := r.u8(); r.err == nil && v != unitImageVersion {
		return UnitImage{}, fmt.Errorf("imcs: unit image version %d, want %d", v, unitImageVersion)
	}
	u := &IMCU{}
	u.Obj = rowstore.ObjID(r.u32())
	u.Tenant = rowstore.TenantID(r.u32())
	u.StartBlk = rowstore.BlockNo(r.u32())
	u.EndBlk = rowstore.BlockNo(r.u32())
	u.PopulatedBy = int(r.u32())
	fp := r.str()
	u.SnapSCN = scn.SCN(r.u64())
	u.nRows = int(r.u32())
	nBlocks := r.count(2)
	if r.err != nil {
		return UnitImage{}, r.err
	}
	u.blockRows = make([]uint16, nBlocks)
	for i := range u.blockRows {
		u.blockRows[i] = r.u16()
	}
	u.present = r.words()
	nNum := r.count(1)
	u.numCols = make([]*NumColumn, 0, nNum)
	for i := 0; i < nNum && r.err == nil; i++ {
		u.numCols = append(u.numCols, decodeNumColumn(r))
	}
	nStr := r.count(1)
	u.strCols = make([]*StrColumn, 0, nStr)
	for i := 0; i < nStr && r.err == nil; i++ {
		u.strCols = append(u.strCols, decodeStrColumn(r, pool))
	}
	_ = r.u8() // reserved
	invalidRows := int(r.u32())
	invalid := r.words()
	if r.err != nil {
		return UnitImage{}, r.err
	}
	if r.off != len(data) {
		return UnitImage{}, fmt.Errorf("imcs: %d trailing bytes after unit image", len(data)-r.off)
	}

	// Structural validation: everything below would otherwise surface as a
	// panic in a scan long after restore.
	if u.EndBlk <= u.StartBlk || nBlocks > int(u.EndBlk-u.StartBlk) {
		return UnitImage{}, fmt.Errorf("imcs: unit image block range [%d,%d) with %d blocks", u.StartBlk, u.EndBlk, nBlocks)
	}
	total := 0
	for _, n := range u.blockRows {
		total += int(n)
	}
	if total != u.nRows {
		return UnitImage{}, fmt.Errorf("imcs: block rows sum %d, want %d rows", total, u.nRows)
	}
	if want := (u.nRows + 63) / 64; len(u.present) != want {
		return UnitImage{}, fmt.Errorf("imcs: presence bitmap has %d words, want %d", len(u.present), want)
	}
	for _, c := range u.numCols {
		if c != nil && c.n != u.nRows {
			return UnitImage{}, fmt.Errorf("imcs: number column has %d values, want %d", c.n, u.nRows)
		}
	}
	for _, c := range u.strCols {
		if c != nil && c.n != u.nRows {
			return UnitImage{}, fmt.Errorf("imcs: varchar column has %d values, want %d", c.n, u.nRows)
		}
		// Codes past the dictionary's end were refused by decodeStrColumn,
		// which looks at each code only when the width admits such a code.
	}
	if want := (u.nRows + 63) / 64; len(invalid) != want {
		return UnitImage{}, fmt.Errorf("imcs: validity bitmap has %d words, want %d", len(invalid), want)
	}

	schema := resolve(u.Obj)
	if schema == nil || SchemaFingerprint(schema) != fp {
		return UnitImage{}, ErrSchemaChanged
	}
	if len(u.numCols) != schema.NumberSlots() || len(u.strCols) != schema.VarcharSlots() {
		return UnitImage{}, ErrSchemaChanged
	}
	u.schema = schema
	u.rowBase = make([]uint32, len(u.blockRows))
	base := uint32(0)
	for i, n := range u.blockRows {
		u.rowBase[i] = base
		base += uint32(n)
	}
	u.memSize = u.computeMemSize()
	return UnitImage{IMCU: u, Invalid: invalid, InvalidRows: invalidRows}, nil
}
