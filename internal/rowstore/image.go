package rowstore

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
)

// Image is one packed row image: every value of a row in a single immutable
// allocation that holds no pointer, so the collector never scans it and a
// reader pulls a row through the cache as one contiguous object. The zero
// Image is the absent row (a deleted version, an empty slot), as Row{} is; a
// row of no values packs to it.
//
//	image  := header nums lens bytes
//	header := nNums(uint16) nStrs(uint16) bytesOff(uint32)   little endian
//	nums   := nNums × int64, little endian: Num(slot) is one load at 8+8·slot
//	lens   := nStrs × uvarint, one byte each below 128
//	bytes  := the strings' bytes, back to back, from bytesOff
//
// The counts are the wire format's (at most 65 535 values of a kind). The
// layout is canonical: two images are equal exactly when their rows are, so ==
// compares them. Being a string, an image is immutable and Str hands out views
// of it without copying; a view keeps the whole image reachable and must not
// outlive the batch it was read for — what stays (a result row, a dictionary
// entry, a group key) is copied out.
type Image string

const imageHeader = 8

// NumCount returns how many numbers the image holds.
func (m Image) NumCount() int {
	if m == "" {
		return 0
	}
	return int(m[0]) | int(m[1])<<8
}

// StrCount returns how many strings the image holds.
func (m Image) StrCount() int {
	if m == "" {
		return 0
	}
	return int(m[2]) | int(m[3])<<8
}

func (m Image) bytesOff() int {
	return int(m[4]) | int(m[5])<<8 | int(m[6])<<16 | int(m[7])<<24
}

// le64 reads the little-endian number at the head of b.
func le64(b Image) int64 {
	_ = b[7]
	return int64(uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56)
}

// Num returns the number in the given slot (Column.Slot of a number column).
func (m Image) Num(slot int) int64 {
	if uint(slot) >= uint(m.NumCount()) {
		panic("rowstore: number slot out of range")
	}
	return le64(m[imageHeader+8*slot:])
}

// Nums copies the numbers of slots from, from+1, … into dst, all of it.
func (m Image) Nums(dst []int64, from int) {
	if from < 0 || from+len(dst) > m.NumCount() {
		panic("rowstore: number slots out of range")
	}
	for i, at := 0, imageHeader+8*from; i < len(dst); i++ {
		dst[i] = le64(m[at:])
		at += 8
	}
}

// Str returns the string in the given slot as a view of the image: a walk over
// the lengths of the slots before it.
func (m Image) Str(slot int) string {
	it := m.StrsFrom(slot)
	return it.Next()
}

// StrIter walks an image's strings in slot order.
type StrIter struct {
	m        Image
	len, off uint32 // where the next string's length and bytes start
}

// StrsFrom returns an iterator at the given string slot, which may be
// StrCount: it has walked the lengths of the slots before it.
func (m Image) StrsFrom(slot int) StrIter {
	if uint(slot) > uint(m.StrCount()) {
		panic("rowstore: string slot out of range")
	}
	if m == "" {
		return StrIter{}
	}
	it := StrIter{m: m, len: uint32(imageHeader + 8*m.NumCount()), off: uint32(m.bytesOff())}
	for ; slot > 0; slot-- {
		it.off += it.length()
	}
	return it
}

// length reads the next length and steps over it.
func (it *StrIter) length() uint32 {
	n := uint32(it.m[it.len])
	it.len++
	if n < 0x80 {
		return n
	}
	n &= 0x7f
	for shift := 7; ; shift += 7 {
		b := it.m[it.len]
		it.len++
		n |= uint32(b&0x7f) << shift
		if b < 0x80 {
			return n
		}
	}
}

// Next returns a view of the next slot's string. The iterator does not count:
// calling it past the last slot is a bug.
func (it *StrIter) Next() string {
	n := it.length()
	it.off += n
	return string(it.m[it.off-n : it.off])
}

// rest returns what the iterator has not walked yet, the lengths and the bytes,
// for comparison with another image's.
func (it *StrIter) rest() [2]Image {
	return [2]Image{it.m[it.len:it.m.bytesOff()], it.m[it.off:]}
}

// Fill sets dst to views of the next len(dst) slots' strings.
func (it *StrIter) Fill(dst []string) {
	for i := range dst {
		n := it.length()
		it.off += n
		dst[i] = string(it.m[it.off-n : it.off])
	}
}

// AppendTo appends the image's numbers to r.Nums and its strings, as views of
// the image, to r.Strs.
func (m Image) AppendTo(r *Row) {
	n := m.NumCount()
	r.Nums = slices.Grow(r.Nums, n)[:len(r.Nums)+n]
	m.Nums(r.Nums[len(r.Nums)-n:], 0)
	n = m.StrCount()
	r.Strs = slices.Grow(r.Strs, n)[:len(r.Strs)+n]
	it := m.StrsFrom(0)
	it.Fill(r.Strs[len(r.Strs)-n:])
}

// Row unpacks the image into a row of its own that shares nothing with the
// image: the exchange form handed to callers who may keep it. Its strings are
// cut from one copy of the image's string bytes.
func (m Image) Row() Row {
	r := Row{Nums: make([]int64, m.NumCount()), Strs: make([]string, m.StrCount())}
	m.Nums(r.Nums, 0)
	if len(r.Strs) > 0 {
		it := m.StrsFrom(0)
		bytes, at := strings.Clone(string(m[it.off:])), uint32(0)
		for i := range r.Strs {
			n := it.length()
			r.Strs[i] = bytes[at : at+n]
			at += n
		}
	}
	return r
}

// CompactStrs copies the bytes of strs into one new string and makes every
// entry a substring of it, in order: whatever the entries were views of is
// let go, and what was up to len(strs) objects is one.
func CompactStrs(strs []string) {
	size := 0
	for _, s := range strs {
		size += len(s)
	}
	if size == 0 {
		clear(strs)
		return
	}
	var b strings.Builder
	b.Grow(size)
	for _, s := range strs {
		b.WriteString(s)
	}
	all, off := b.String(), 0
	for i, s := range strs {
		strs[i] = all[off : off+len(s)]
		off += len(s)
	}
}

// Packer lays an image out front to back in its one allocation. The caller
// sizes it — Count the numbers, CountStr every string — calls Begin, then
// gives it every number and every string's bytes, each in slot order, and
// takes the Image. The zero Packer is ready; Image resets it. The allocation
// can only be appended to, so the strings' lengths, which lie before their
// bytes, are encoded while sizing and kept until the numbers are in; values
// gather in a small buffer on their way.
type Packer struct {
	b          strings.Builder
	nums, strs int
	sz         int // string bytes
	n          int // bytes of chunk not yet written to b
	nl         int // bytes of lens in use
	chunk      [256]byte
	lens       [128]byte // the encoded lengths; those that do not fit follow in more
	more       []byte
}

// Count sizes the image for n numbers.
func (p *Packer) Count(n int) { p.nums = n }

// CountStr sizes the image for one more string, of n bytes.
func (p *Packer) CountStr(n int) {
	p.strs++
	p.sz += n
	if n < 0x80 && p.more == nil && p.nl < len(p.lens) {
		p.lens[p.nl] = byte(n)
		p.nl++
	} else if p.more == nil && p.nl+binary.MaxVarintLen64 <= len(p.lens) {
		p.nl += binary.PutUvarint(p.lens[p.nl:], uint64(n))
	} else {
		p.more = binary.AppendUvarint(p.more, uint64(n))
	}
}

// Begin allocates the image and writes its header. A row of no values has no
// image: nothing follows but Image, which returns the zero one.
func (p *Packer) Begin() {
	if p.nums+p.strs == 0 {
		return
	}
	off := imageHeader + 8*p.nums + p.nl + len(p.more)
	if p.nums > math.MaxUint16 || p.strs > math.MaxUint16 || off+p.sz > math.MaxUint32 {
		panic("rowstore: row too wide for an image")
	}
	p.b.Grow(off + p.sz)
	binary.LittleEndian.PutUint16(p.chunk[0:], uint16(p.nums))
	binary.LittleEndian.PutUint16(p.chunk[2:], uint16(p.strs))
	binary.LittleEndian.PutUint32(p.chunk[4:], uint32(off))
	p.n = imageHeader
}

// room returns the next k bytes of the buffer, k at most its size.
func (p *Packer) room(k int) []byte {
	if p.n+k > len(p.chunk) {
		p.flush()
	}
	p.n += k
	return p.chunk[p.n-k : p.n]
}

func (p *Packer) flush() {
	p.b.Write(p.chunk[:p.n])
	p.n = 0
}

// Num writes the next number.
func (p *Packer) Num(v int64) { binary.LittleEndian.PutUint64(p.room(8), uint64(v)) }

// endNums writes the lengths once the numbers are in: before the first
// string's bytes, or at Image for strings that are all empty.
func (p *Packer) endNums() {
	if p.nl+len(p.more) > 0 {
		p.flush()
		p.b.Write(p.lens[:p.nl])
		p.b.Write(p.more)
		p.nl, p.more = 0, nil
	}
}

// StrBytes writes the next string's bytes, through the buffer; Str is the same
// for a string (a function generic over both moves the packer to the heap).
func (p *Packer) StrBytes(s []byte) {
	p.endNums()
	for ; len(s) > len(p.chunk); s = s[len(p.chunk):] {
		copy(p.room(len(p.chunk)), s)
	}
	copy(p.room(len(s)), s)
}

func (p *Packer) Str(s string) {
	p.endNums()
	for ; len(s) > len(p.chunk); s = s[len(p.chunk):] {
		copy(p.room(len(p.chunk)), s)
	}
	copy(p.room(len(s)), s)
}

// Image returns the finished image and resets the packer.
func (p *Packer) Image() Image {
	p.endNums()
	p.flush()
	m := Image(p.b.String())
	p.b, p.nums, p.strs, p.sz = strings.Builder{}, 0, 0, 0
	return m
}

// Pack packs a row into an image.
func Pack(r Row) Image {
	var p Packer
	p.Count(len(r.Nums))
	for _, s := range r.Strs {
		p.CountStr(len(s))
	}
	p.Begin()
	for _, v := range r.Nums {
		p.Num(v)
	}
	for _, s := range r.Strs {
		p.Str(s)
	}
	return p.Image()
}
