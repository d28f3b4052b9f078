// Package imcs implements the In-Memory Column Store: compressed In-Memory
// Columnar Units (IMCUs), their Snapshot Metadata Units (SMUs), the store
// that organizes them per object, and the background population and
// repopulation engine (paper §II.B and §III.A).
package imcs

import (
	"math/bits"
	"slices"
	"sort"
	"strings"

	"dbimadg/internal/rowstore"
)

// bitPacked is a frame-of-reference, bit-packed vector of n values: value i is
// stored as (v - min) in width bits. width == 0 encodes a constant vector.
type bitPacked struct {
	min   int64
	width uint8
	n     int
	words []uint64
}

func packInts(vals []int64) bitPacked {
	if len(vals) == 0 {
		return bitPacked{}
	}
	mn, mx := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return packRange(vals, mn, mx)
}

// packRange packs vals, whose smallest and largest values the caller already
// knows to be mn and mx. Value i occupies bits [i*width, (i+1)*width) of the
// little-endian word vector; the words are assembled in a register and stored
// once each.
func packRange(vals []int64, mn, mx int64) bitPacked {
	p := bitPacked{n: len(vals), min: mn}
	p.width = uint8(bits.Len64(uint64(mx - mn)))
	if p.width == 0 {
		return p // constant column: min carries the value
	}
	p.words = make([]uint64, (len(vals)*int(p.width)+63)/64)
	w := uint(p.width)
	var acc uint64
	var used uint // bits of acc already filled
	wi := 0
	for _, v := range vals {
		u := uint64(v - mn)
		acc |= u << used
		if used+w >= 64 {
			p.words[wi] = acc
			wi++
			acc = u >> (64 - used) // the part of u that did not fit; 0 when used == 0
			used = used + w - 64
		} else {
			used += w
		}
	}
	if used > 0 {
		p.words[wi] = acc
	}
	return p
}

// get returns value i.
func (p *bitPacked) get(i int) int64 {
	if p.width == 0 {
		return p.min
	}
	w := uint(p.width)
	bitPos := uint(i) * w
	word, off := bitPos/64, bitPos%64
	u := p.words[word] >> off
	if off+w > 64 {
		u |= p.words[word+1] << (64 - off)
	}
	u &= (1 << w) - 1
	return p.min + int64(u)
}

// decode fills dst with values [start, start+len(dst)).
func (p *bitPacked) decode(dst []int64, start int) {
	switch {
	case p.width == 0:
		for i := range dst {
			dst[i] = p.min
		}
	case p.width == 64: // a word a value: nothing to unpack
		for i, u := range p.words[start : start+len(dst)] {
			dst[i] = p.min + int64(u)
		}
	case len(dst) > 0:
		unpack(dst, p.words, uint(p.width), start, p.min)
	}
}

// unpack decodes values from start on out of words packed w (1 to 63) bits a
// value. It walks the words once, carrying the bits of the current word not
// yet consumed: no value costs a division or a second look at a word. The
// masks on the shift counts only tell the compiler they are below 64.
func unpack(dst []int64, words []uint64, w uint, start int, mn int64) {
	mask := uint64(1)<<(w&63) - 1
	bit := uint(start) * w
	k := bit >> 6
	buf, have := words[k]>>(bit&63), 64-bit&63
	for i := range dst {
		var u uint64
		if have >= w {
			u = buf & mask
			buf >>= w & 63
			have -= w
		} else { // low bits from what is left of this word, high bits from the next
			k++
			x := words[k]
			u = (buf | x<<(have&63)) & mask
			buf = x >> ((w - have) & 63)
			have += 64 - w
		}
		dst[i] = mn + int64(u)
	}
}

// CodeCmp is a comparison in a column's code space — value − min, unsigned,
// for a NUMBER column, dictionary code for a VARCHAR one: code < C, or
// code == C when Eq; Neg negates the outcome. The caller translates its
// literal once, so the kernels never leave code space.
type CodeCmp struct {
	C   uint64
	Eq  bool
	Neg bool
}

// operands returns a, b and neg such that the comparison holds of code u
// exactly when bit 0 of below(u^a, b)^neg is set: the one form every kernel
// evaluates.
func (cc CodeCmp) operands() (a, b, neg uint64) {
	if cc.Neg {
		neg = ^uint64(0)
	}
	if cc.Eq {
		return cc.C, 1, neg
	}
	return 0, cc.C, neg
}

// below is the branch-free compare primitive: 1 when x < b (the borrow of
// x − b, which unlike its sign bit holds over all 64 bits).
func below(x, b uint64) uint64 {
	if x < b {
		return 1
	}
	return 0
}

// test evaluates the comparison on one code.
func (cc CodeCmp) test(u uint64) bool {
	a, b, neg := cc.operands()
	return (below(u^a, b)^neg)&1 == 1
}

// cmpMask ANDs into match the outcome of cc over values [start, start+n):
// bit i of match stands for value start+i. A match word that is already zero
// skips its 64 values; a full word whose values begin on a word of the packed
// vector — every one of a window that starts on a multiple of 64 — is compared
// straight off those width words, any other through a decoded group.
func (p *bitPacked) cmpMask(match []uint64, start, n int, cc CodeCmp) {
	a, b, neg := cc.operands()
	w := int(p.width)
	for g := 0; g*64 < n; g++ {
		if match[g] == 0 {
			continue
		}
		var m uint64
		if i, cnt := start+g*64, min(64, n-g*64); cnt == 64 && i%64 == 0 && w > 0 && w < 64 {
			m = cmpGroup(p.words[i/64*w:i/64*w+w], uint(w), a, b)
		} else {
			var group [64]int64
			p.decode(group[:cnt], i)
			m = cmpValues64(group[:cnt], p.min, a, b)
		}
		match[g] &= m ^ neg
	}
}

// cmpGroup returns the match word of the 64 values packed, w (1 to 63) bits
// each, in src's w words: bit j says whether value j has u^a < b. Each word is
// taken apart in a register — first the value its low bits complete, then the
// values wholly inside it, the rest carried to the next word — and the
// outcomes are shifted straight into the match word: no value is stored.
func cmpGroup(src []uint64, w uint, a, b uint64) (m uint64) {
	mask := uint64(1)<<(w&63) - 1
	var carry uint64 // low bits of the value that runs on into the next word
	cb := uint(0)    // how many they are: fewer than w
	for _, x := range src {
		m = m<<1 | below((carry|x<<(cb&63))&mask^a, b)
		x >>= (w - cb) & 63
		rem := 64 - (w - cb)
		for ; rem >= w; rem -= w {
			m = m<<1 | below(x&mask^a, b)
			x >>= w & 63
		}
		carry, cb = x, rem
	}
	return bits.Reverse64(m) // value 0 went in first
}

// memSize returns the approximate in-memory footprint in bytes.
func (p *bitPacked) memSize() int { return 8*len(p.words) + 24 }

// rle is a run-length encoded vector: runEnds[i] is the exclusive end index of
// run i with value runVals[i].
type rle struct {
	n       int
	runVals []int64
	runEnds []uint32
}

// packRLE run-length encodes vals, which the caller counted to hold runs runs.
func packRLE(vals []int64, runs int) rle {
	r := rle{n: len(vals), runVals: make([]int64, 0, runs), runEnds: make([]uint32, 0, runs)}
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		r.runVals = append(r.runVals, vals[i])
		r.runEnds = append(r.runEnds, uint32(j))
		i = j
	}
	return r
}

func (r *rle) runIndexOf(i int) int {
	return sort.Search(len(r.runEnds), func(k int) bool { return int(r.runEnds[k]) > i })
}

func (r *rle) get(i int) int64 {
	return r.runVals[r.runIndexOf(i)]
}

func (r *rle) decode(dst []int64, start int) {
	run := r.runIndexOf(start)
	i := 0
	for i < len(dst) {
		end := int(r.runEnds[run]) - start
		if end > len(dst) {
			end = len(dst)
		}
		v := r.runVals[run]
		for ; i < end; i++ {
			dst[i] = v
		}
		run++
	}
}

func (r *rle) memSize() int { return 12*len(r.runVals) + 24 }

// NumColumn is one compressed NUMBER column of an IMCU, with its in-memory
// storage index (min/max) used for IMCU pruning (§II.B).
type NumColumn struct {
	n        int
	min, max int64
	useRLE   bool
	packed   bitPacked
	runs     rle
}

// EncodeNums builds a compressed column, choosing run-length encoding when
// the data is run-heavy and frame-of-reference bit-packing otherwise.
func EncodeNums(vals []int64) *NumColumn {
	c := &NumColumn{n: len(vals)}
	if len(vals) == 0 {
		return c
	}
	c.min, c.max = vals[0], vals[0]
	runs := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] < c.min {
			c.min = vals[i]
		}
		if vals[i] > c.max {
			c.max = vals[i]
		}
		if vals[i] != vals[i-1] {
			runs++
		}
	}
	// RLE pays off when average run length is long.
	if len(vals)/runs >= 8 {
		c.useRLE = true
		c.runs = packRLE(vals, runs)
	} else {
		c.packed = packRange(vals, c.min, c.max)
	}
	return c
}

// Len returns the number of values.
func (c *NumColumn) Len() int { return c.n }

// MinMax returns the storage-index bounds. Meaningless when Len() == 0.
func (c *NumColumn) MinMax() (int64, int64) { return c.min, c.max }

// Get returns value i.
func (c *NumColumn) Get(i int) int64 {
	if c.useRLE {
		return c.runs.get(i)
	}
	return c.packed.get(i)
}

// Decode fills dst with values [start, start+len(dst)).
func (c *NumColumn) Decode(dst []int64, start int) {
	if c.useRLE {
		c.runs.decode(dst, start)
		return
	}
	c.packed.decode(dst, start)
}

// MemSize returns the approximate footprint in bytes.
func (c *NumColumn) MemSize() int {
	if c.useRLE {
		return c.runs.memSize()
	}
	return c.packed.memSize()
}

// StrColumn is one dictionary-encoded VARCHAR2 column of an IMCU: a sorted
// dictionary of distinct values plus bit-packed codes. Equality and range
// predicates evaluate on codes without materializing strings.
type StrColumn struct {
	n     int
	dict  []string // sorted ascending
	codes bitPacked
}

// EncodeStrs builds a dictionary-encoded column.
func EncodeStrs(vals []string) *StrColumn {
	var d dictBuilder
	d.reset(nil)
	codes := make([]int64, len(vals))
	for i, v := range vals {
		codes[i] = d.code(v, sortKey(v), -1)
	}
	return newStrColumn(d.finish(codes, new(dictWork)), codes)
}

// newStrColumn packs codes, which index the sorted dictionary dict and
// between them reference every entry of it.
func newStrColumn(dict []string, codes []int64) *StrColumn {
	if len(codes) == 0 {
		return &StrColumn{}
	}
	return &StrColumn{n: len(codes), dict: dict, codes: packRange(codes, 0, int64(len(dict)-1))}
}

// dictBuilder builds one varchar column's sorted dictionary as a merge: the
// dictionary of the image being replaced (empty when there is none) plus the
// values of the rows that were read again. While the rows are read it hands
// out provisional codes — a value of the old dictionary keeps its old code, a
// new value gets len(old) + its first-seen order — and finish turns them into
// codes of the new dictionary. Its memory is reused from column to column.
type dictBuilder struct {
	old   []string   // sorted dictionary of the replaced image
	fresh []string   // new values in first-seen order
	table []dictSlot // open-addressing hash table over fresh; a power of two long, at most half full
}

// dictWork is what finish needs beyond the dictBuilder; one serves any number
// of columns in turn.
type dictWork struct {
	order []dictSlot // the new values, sorted
	spare []dictSlot // the radix sort's other buffer
	used  []bool     // per provisional code: some position holds it
	remap []int64    // provisional code → code in the new dictionary
}

// dictSlot describes one new value: its sort key, its length, and 1 + its
// index in fresh (0 marks an empty slot of the hash table). Key and length
// identify a value of up to eight bytes, so a probe that ends on such a value
// reads nothing but the slot.
type dictSlot struct {
	key uint64
	n   int32
	id  int32
}

// sortKey returns the first eight bytes of s as a big-endian number, zero
// padded: keys order as their strings do wherever the keys differ, and two
// strings of equal length up to eight with equal keys are equal.
func sortKey(s string) uint64 {
	if len(s) >= 8 {
		_ = s[7]
		return uint64(s[7]) | uint64(s[6])<<8 | uint64(s[5])<<16 | uint64(s[4])<<24 |
			uint64(s[3])<<32 | uint64(s[2])<<40 | uint64(s[1])<<48 | uint64(s[0])<<56
	}
	var k uint64
	for i := 0; i < len(s); i++ {
		k |= uint64(s[i]) << (56 - 8*uint(i))
	}
	return k
}

// hashValue hashes s, whose sort key is key, eight bytes to a multiplication.
// The loop is kept out of it so that the short case inlines.
func hashValue(key uint64, s string) uint64 {
	if len(s) > 8 {
		return hashLong(key, s)
	}
	return (key ^ uint64(len(s))) * hashMul >> 32
}

const hashMul = 0x9E3779B97F4A7C15

func hashLong(key uint64, s string) uint64 {
	h := (key ^ uint64(len(s))) * hashMul
	for i := 8; i < len(s); i += 8 {
		h = (h ^ h>>32 ^ sortKey(s[i:])) * hashMul
	}
	return h >> 32
}

const minDictTable = 2048

// reset starts a column whose replaced image had dictionary old.
func (d *dictBuilder) reset(old []string) {
	d.old = old
	if d.table == nil {
		d.table = make([]dictSlot, minDictTable)
	}
	clear(d.table)
	clear(d.fresh)
	d.fresh = d.fresh[:0]
}

// code returns the provisional code of v, whose sort key is key. hint is the
// code the position held in the replaced image (anything else when it held
// none): a row read again mostly still has its old value in most columns, and
// then one comparison settles it. Other values of the old dictionary are found
// by binary search, new ones cost one hash probe.
func (d *dictBuilder) code(v string, key uint64, hint int64) int64 {
	if uint64(hint) < uint64(len(d.old)) && d.old[hint] == v {
		return hint
	}
	if i, found := slices.BinarySearch(d.old, v); found {
		return int64(i)
	}
	mask := uint64(len(d.table) - 1)
	i := hashValue(key, v) & mask
	for ; d.table[i].id != 0; i = (i + 1) & mask {
		if sl := d.table[i]; sl.key == key && int(sl.n) == len(v) && (len(v) <= 8 || d.fresh[sl.id-1] == v) {
			return int64(len(d.old)) + int64(sl.id-1)
		}
	}
	d.fresh = append(d.fresh, v)
	d.table[i] = dictSlot{key, int32(len(v)), int32(len(d.fresh))}
	if 2*len(d.fresh) > len(d.table) {
		small := d.table
		d.table = make([]dictSlot, 2*len(small))
		mask = uint64(len(d.table) - 1)
		for _, sl := range small {
			if sl.id == 0 {
				continue
			}
			i := hashValue(sl.key, d.fresh[sl.id-1]) & mask
			for d.table[i].id != 0 {
				i = (i + 1) & mask
			}
			d.table[i] = sl
		}
	}
	return int64(len(d.old) + len(d.fresh) - 1)
}

// sortFresh fills w.order with the new values sorted: a byte-wise radix sort
// of the sort keys over the bytes in which they differ at all, then a
// comparison sort of whatever shares a key (values longer than eight bytes
// with a common prefix).
func (d *dictBuilder) sortFresh(w *dictWork) {
	n := len(d.fresh)
	w.order = slices.Grow(w.order[:0], n)[:0]
	var differ uint64
	for _, sl := range d.table {
		if sl.id != 0 {
			w.order = append(w.order, sl)
			differ |= sl.key ^ w.order[0].key
		}
	}
	w.spare = slices.Grow(w.spare[:0], n)[:n]
	from, to := w.order, w.spare
	for shift := uint(0); shift < 64; shift += 8 {
		if differ>>shift&0xff == 0 {
			continue
		}
		var start [257]int32
		for _, sl := range from {
			start[(sl.key>>shift&0xff)+1]++
		}
		for b := 1; b < 256; b++ {
			start[b] += start[b-1]
		}
		for _, sl := range from {
			b := sl.key >> shift & 0xff
			to[start[b]] = sl
			start[b]++
		}
		from, to = to, from
	}
	w.order, w.spare = from, to
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && from[hi].key == from[lo].key {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(from[lo:hi], func(a, b dictSlot) int {
				return strings.Compare(d.fresh[a.id-1], d.fresh[b.id-1])
			})
		}
		lo = hi
	}
}

// finish rewrites the provisional codes in codes to codes of the new
// dictionary and returns it: the old entries some position still holds merged
// with the new values, sorted. Entries nothing references any more are left
// out, so the storage index and the footprint do not drift over many merges. A
// dictionary that comes out unchanged is shared with the replaced image
// (dictionaries are immutable); any other has its bytes laid out in one string
// of its own, the entries substrings of it in order — it references no row
// image a new value was read from and no older dictionary, it is one object to
// allocate and to mark, and a scan comparing its labels reads them in sequence.
func (d *dictBuilder) finish(codes []int64, w *dictWork) []string {
	nOld, nFresh := len(d.old), len(d.fresh)
	used := slices.Grow(w.used[:0], nOld+nFresh)[:nOld+nFresh]
	w.used = used
	clear(used)
	for _, c := range codes {
		used[c] = true
	}
	kept := 0
	for _, u := range used[:nOld] {
		if u {
			kept++
		}
	}
	if nFresh == 0 && kept == nOld {
		return d.old
	}
	d.sortFresh(w)
	remap := slices.Grow(w.remap[:0], nOld+nFresh)[:nOld+nFresh]
	w.remap = remap
	dict := make([]string, 0, kept+nFresh)
	i, j := 0, 0
	for i < nOld || j < nFresh {
		switch {
		case i < nOld && !used[i]:
			i++
		case j == nFresh || (i < nOld && d.old[i] < d.fresh[w.order[j].id-1]):
			remap[i] = int64(len(dict))
			dict = append(dict, d.old[i])
			i++
		default:
			id := int(w.order[j].id - 1)
			remap[nOld+id] = int64(len(dict))
			dict = append(dict, d.fresh[id])
			j++
		}
	}
	for k, c := range codes {
		codes[k] = remap[c]
	}
	rowstore.CompactStrs(dict)
	return dict
}

// Len returns the number of values.
func (c *StrColumn) Len() int { return c.n }

// DictSize returns the number of distinct values.
func (c *StrColumn) DictSize() int { return len(c.dict) }

// MinMax returns the storage-index bounds (lexicographic).
func (c *StrColumn) MinMax() (string, string) {
	if len(c.dict) == 0 {
		return "", ""
	}
	return c.dict[0], c.dict[len(c.dict)-1]
}

// Get returns value i.
func (c *StrColumn) Get(i int) string {
	return c.dict[c.codes.get(i)]
}

// CodeAt returns the dictionary code of value i.
func (c *StrColumn) CodeAt(i int) int64 { return c.codes.get(i) }

// Code returns the dictionary code for s; found is false when s is absent
// (so an equality predicate matches nothing in this IMCU).
func (c *StrColumn) Code(s string) (code int64, found bool) {
	i := sort.SearchStrings(c.dict, s)
	if i < len(c.dict) && c.dict[i] == s {
		return int64(i), true
	}
	return 0, false
}

// CodeRangeGE returns the smallest code whose value is >= s (len(dict) when
// none), enabling range predicates on codes.
func (c *StrColumn) CodeRangeGE(s string) int64 {
	return int64(sort.SearchStrings(c.dict, s))
}

// DecodeCodes fills dst with the codes of values [start, start+len(dst)).
func (c *StrColumn) DecodeCodes(dst []int64, start int) {
	c.codes.decode(dst, start)
}

// Value returns the dictionary value for a code.
func (c *StrColumn) Value(code int64) string { return c.dict[code] }

// MemSize returns the approximate footprint in bytes.
func (c *StrColumn) MemSize() int {
	sz := c.codes.memSize()
	for _, s := range c.dict {
		sz += len(s) + 16
	}
	return sz
}
