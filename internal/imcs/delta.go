package imcs

import (
	"slices"
	"strings"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// Patch says what one committed change did to a row, beside the fact that it
// changed: what the invalidation flush still holds of the change vector the
// record was mined from. The zero Patch says nothing, and the row is served
// from the row store.
type Patch struct {
	// Row is an update's after-image and Cols the schema columns it changed
	// (the primary checks the list, rowstore.ErrUndeclaredChange).
	Row  rowstore.Image
	Cols []uint16
	// Deleted marks a delete.
	Deleted bool
}

// A DeltaEntry's column: a NUMBER slot as it is, a VARCHAR slot with strCol
// set, or one of the two markers.
const (
	strCol     = 0x8000
	maxSlot    = 0x7FFE // slots from here on would read as a marker
	ColDeleted = 0xFFFE // the row was deleted
	colOpaque  = 0xFFFF // pending only: the position is to be served from the row store
)

// NumColID and StrColID name a number and a varchar slot in a DeltaEntry.
func NumColID(slot int) uint16 { return uint16(slot) }
func StrColID(slot int) uint16 { return strCol | uint16(slot) }

// DeltaEntry is one column of one row as a commit after the unit's population
// snapshot left it. Key orders entries as the IMCU orders its positions: block
// offset in the unit, slot, column. Val is a NUMBER's value; a VARCHAR's code
// in the IMCU's dictionary, resolved once when the entry was made, or, for a
// value the dictionary lacks, the complement of an index into the view's
// strings (see View.Str).
type DeltaEntry struct {
	Key uint64
	SCN scn.SCN
	Val int64
}

// DeltaAddr is the key of column 0 of the row at slot of the unit's off-th block.
func DeltaAddr(off rowstore.BlockNo, slot uint16) uint64 {
	return uint64(off)<<32 | uint64(slot)<<16
}

// Col returns the entry's column.
func (e DeltaEntry) Col() uint16 { return uint16(e.Key) }

// Slot returns the slot of the entry's column among its kind's and whether that
// kind is VARCHAR; the entry must not be a marker.
func (e DeltaEntry) Slot() (slot int, str bool) { return int(e.Col() &^ strCol), e.Col()&strCol != 0 }

// delta is a unit's column delta: the newest committed value per (row, column)
// of the rows it explains, sorted by key, so that whoever walks the validity
// bitmap walks it in step. It copies what it keeps — a number by value, a
// string by its dictionary code or into extra — and pins no row image.
type delta struct {
	e []DeltaEntry
	// extra holds the VARCHAR values no dictionary code stands for, extraBytes
	// of them. It is only appended to, so a view may share it.
	extra      []string
	extraBytes int
}

// seek returns the index of the first entry of e at or after key.
func seek(e []DeltaEntry, key uint64) int {
	lo, hi := 0, len(e)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); e[mid].Key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// row returns the index range of the entries of the row at addr.
func (d *delta) row(addr uint64) (lo, hi int) {
	lo = seek(d.e, addr)
	for hi = lo; hi < len(d.e) && d.e[hi].Key>>16 == addr>>16; hi++ {
	}
	return lo, hi
}

// put records a value; of two for one key the later commit's wins, and the
// later arrival's among one transaction's. from is an index at or before the
// key's place and near it: the first entry of its row, or the end.
func (d *delta) put(from int, key uint64, at scn.SCN, val int64) {
	i := from
	for ; i < len(d.e) && d.e[i].Key < key; i++ {
	}
	if i == len(d.e) || d.e[i].Key != key {
		d.e = slices.Insert(d.e, i, DeltaEntry{key, at, val})
	} else if at >= d.e[i].SCN {
		d.e[i].SCN, d.e[i].Val = at, val
	}
}

// mark records, in a pending delta, that the row of key is to be opaque.
func (d *delta) mark(key uint64) {
	key |= colOpaque
	d.put(seek(d.e, key), key, 0, 0)
}

// deltaStr returns the value a VARCHAR entry's Val stands for.
func deltaStr(extra []string, col *StrColumn, val int64) string {
	if val < 0 {
		return extra[^val]
	}
	return col.Value(val)
}

// putStr is put of a VARCHAR value, coded against col's dictionary.
func (d *delta) putStr(from int, key uint64, at scn.SCN, col *StrColumn, v string) {
	code, found := col.Code(v)
	if !found {
		d.extra = append(d.extra, strings.Clone(v))
		d.extraBytes += len(v)
		code = ^int64(len(d.extra) - 1)
	}
	d.put(from, key, at, code)
}

// apply records patch p, committed at SCN at, for the row at addr of imcu,
// whose entries start at from. It reports false, having recorded some of it or
// nothing, when the patch does not say what changed or does not fit the schema
// the image was built against.
func (d *delta) apply(from int, addr uint64, at scn.SCN, p *Patch, imcu *IMCU) bool {
	if p.Deleted {
		d.put(from, addr|ColDeleted, at, 0)
		return true
	}
	schema := imcu.schema
	for _, c := range p.Cols {
		if int(c) >= schema.NumCols() {
			return false
		}
		col := schema.Col(int(c))
		slot := col.Slot()
		switch {
		case slot >= maxSlot:
			return false
		case col.Kind == rowstore.KindNumber && slot < p.Row.NumCount():
			d.put(from, addr|uint64(NumColID(slot)), at, p.Row.Num(slot))
		case col.Kind == rowstore.KindVarchar && slot < p.Row.StrCount():
			d.putStr(from, addr|uint64(StrColID(slot)), at, imcu.strCols[slot], p.Row.Str(slot))
		default:
			return false
		}
	}
	return len(p.Cols) > 0
}

// memSize is the delta's footprint in bytes.
func (d *delta) memSize() int { return 24*cap(d.e) + 16*cap(d.extra) + d.extraBytes }

// View is what a scan, or a repopulation, reads a unit through: the IMCU, the
// validity bitmap with the presence gaps overlaid, and a copy of the column
// delta, all of one moment under the SMU's latch. An invalid position is
// explained at snapshot S when the delta holds entries for it and none is of a
// commit after S: its row at S is then the IMCU's with the entries' columns
// replaced, or no row if one of them is ColDeleted. Every other invalid
// position is opaque, and is read from the row store.
type View struct {
	IMCU    *IMCU
	Invalid []uint64
	Delta   []DeltaEntry
	extra   []string // the delta's at capture
}

// Str returns the value of a VARCHAR entry of the view's delta, col being the
// IMCU's column of the entry's slot.
func (v *View) Str(col *StrColumn, val int64) string { return deltaStr(v.extra, col, val) }

// Seek returns the index of the delta's first entry at or after the row at addr.
func (v *View) Seek(addr uint64) int { return seek(v.Delta, addr) }

// Row moves a cursor over the delta — negative to begin with, then what the
// last call returned, for rows asked in ascending order — to the row at addr.
// It returns the row's entries, whether they explain it at snapshot snap (there
// are some, none of a later commit) and whether the row was deleted.
func (v *View) Row(cursor int, addr uint64, snap scn.SCN) (entries []DeltaEntry, next int, explained, deleted bool) {
	d := v.Delta
	if cursor < 0 {
		cursor = seek(d, addr)
	}
	for cursor < len(d) && d[cursor].Key < addr {
		cursor++
	}
	explained = true
	for next = cursor; next < len(d) && d[next].Key>>16 == addr>>16; next++ {
		explained = explained && d[next].SCN <= snap
		deleted = deleted || d[next].Col() == ColDeleted
	}
	return d[cursor:next], next, explained && next > cursor, deleted
}

// Release lets go of what the view references, keeping its buffers.
func (v *View) Release() { v.IMCU, v.extra = nil, nil }
