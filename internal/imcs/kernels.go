package imcs

import (
	"math"
	"math/bits"
)

// This file holds the encoding-aware kernels of the batch execution pipeline,
// evaluated directly against a column's compressed representation: predicates
// compared in code space on the packed words (CmpMask) and masked
// sum/min/max/count folds over the match bitmap (AggMasked). Run-length
// encoded (and constant) columns are compared and aggregated at run level — a
// whole run contributes value*popcount without decoding a single row — the
// columnar analogue of the paper's SIMD-on-compressed-formats claim (§II.B);
// bit-packed ones are unpacked only where a match word still selects a row.

// MaskedAgg is the result of one masked aggregation kernel call: the matching
// row count and the sum/min/max of the matching values. Min/Max are
// meaningless when Count == 0. EncodedRows counts the rows that were folded
// at run level, without decoding (RLE runs and constant vectors); the
// remainder were decoded into scratch first.
type MaskedAgg struct {
	Count       int64
	Sum         int64
	Min         int64
	Max         int64
	EncodedRows int64
}

func (a *MaskedAgg) addRun(v int64, cnt int64) {
	if cnt == 0 {
		return
	}
	if a.Count == 0 || v < a.Min {
		a.Min = v
	}
	if a.Count == 0 || v > a.Max {
		a.Max = v
	}
	a.Count += cnt
	a.Sum += v * cnt
}

// PopcountRange counts the set bits of match in positions [lo, hi).
func PopcountRange(match []uint64, lo, hi int) int64 {
	if lo >= hi {
		return 0
	}
	loW, hiW := lo/64, (hi-1)/64
	if loW == hiW {
		m := match[loW] >> (lo % 64) << (lo % 64)
		if hi%64 != 0 {
			m &= (1 << (hi % 64)) - 1
		}
		return int64(bits.OnesCount64(m))
	}
	n := int64(bits.OnesCount64(match[loW] >> (lo % 64)))
	for w := loW + 1; w < hiW; w++ {
		n += int64(bits.OnesCount64(match[w]))
	}
	m := match[hiW]
	if hi%64 != 0 {
		m &= (1 << (hi % 64)) - 1
	}
	return n + int64(bits.OnesCount64(m))
}

// MaskOutsideRange clears the bits of match at positions outside [lo, hi),
// over a bitmap of n positions, and returns the OR of the surviving words
// (zero means no position is left). It clips a batch-aligned match bitmap to
// a morsel's row window, so arbitrary morsel boundaries ride on the existing
// word-aligned batch kernels.
func MaskOutsideRange(match []uint64, lo, hi, n int) uint64 {
	if hi > n {
		hi = n
	}
	if lo >= hi {
		clear(match[:(n+63)/64])
		return 0
	}
	words := (n + 63) / 64
	loW, hiW := lo/64, (hi-1)/64
	for w := 0; w < loW; w++ {
		match[w] = 0
	}
	match[loW] &= ^uint64(0) << (lo % 64)
	if hi%64 != 0 {
		match[hiW] &= (1 << (hi % 64)) - 1
	}
	for w := hiW + 1; w < words; w++ {
		match[w] = 0
	}
	var live uint64
	for w := loW; w <= hiW; w++ {
		live |= match[w]
	}
	return live
}

// AggMasked folds the column values at positions base+i for every set bit i
// of match with lo <= i < hi into a MaskedAgg. match is a batch-local bitmap
// (bit i addresses column position base+i). scratch must hold at least hi
// values; it is used only on the decode path.
//
// RLE columns and constant vectors fold whole runs in encoded space; other
// encodings decode into scratch the 64-row groups match selects and fold the
// set bits.
func (c *NumColumn) AggMasked(match []uint64, base, lo, hi int, scratch []int64) MaskedAgg {
	var a MaskedAgg
	if lo >= hi {
		return a
	}
	if c.useRLE {
		r := &c.runs
		run := r.runIndexOf(base + lo)
		for i := lo; i < hi; {
			end := int(r.runEnds[run]) - base
			if end > hi {
				end = hi
			}
			a.addRun(r.runVals[run], PopcountRange(match, i, end))
			i = end
			run++
		}
		a.EncodedRows = a.Count
		return a
	}
	if c.packed.width == 0 {
		// Constant vector: one run spanning the window.
		a.addRun(c.packed.min, PopcountRange(match, lo, hi))
		a.EncodedRows = a.Count
		return a
	}
	// Late decode: a 64-row group is unpacked only if match selects a row of it.
	var cnt, sum int64
	mn, mx := int64(math.MaxInt64), int64(math.MinInt64)
	for w := lo / 64; w <= (hi-1)/64; w++ {
		g0, g1 := max(w*64, lo), min(w*64+64, hi)
		m := match[w] >> (g0 % 64) << (g0 % 64)
		if g1%64 != 0 {
			m &= (1 << (g1 % 64)) - 1
		}
		if m == 0 {
			continue
		}
		c.packed.decode(scratch[g0:g1], base+g0)
		cnt += int64(bits.OnesCount64(m))
		for ; m != 0; m &= m - 1 {
			v := scratch[w*64+bits.TrailingZeros64(m)]
			sum += v
			mn, mx = min(mn, v), max(mx, v)
		}
	}
	return MaskedAgg{Count: cnt, Sum: sum, Min: mn, Max: mx}
}

// clearBits clears the bits of match at positions [lo, hi).
func clearBits(match []uint64, lo, hi int) {
	for w := lo / 64; lo < hi; w++ {
		end := min(hi, w*64+64)
		match[w] &^= ^uint64(0) >> (64 - uint(end-lo)) << (lo % 64)
		lo = end
	}
}

// CmpMask ANDs into match the outcome of cc over the column's positions
// [start, start+n): bit i of match stands for position start+i, and the bits
// at n and beyond must be zero. cc is in the column's code space, value − min
// (MinMax). A run-length encoded column is compared once per run and the mask
// cleared by range; a bit-packed one is compared on its packed words.
func (c *NumColumn) CmpMask(match []uint64, start, n int, cc CodeCmp) {
	if !c.useRLE {
		c.packed.cmpMask(match, start, n, cc)
		return
	}
	r := &c.runs
	run := r.runIndexOf(start)
	for i := 0; i < n; run++ {
		end := min(int(r.runEnds[run])-start, n)
		if !cc.test(uint64(r.runVals[run]) - uint64(c.min)) {
			clearBits(match, i, end)
		}
		i = end
	}
}

// CmpMask is NumColumn.CmpMask over the column's dictionary codes.
func (c *StrColumn) CmpMask(match []uint64, start, n int, cc CodeCmp) {
	c.codes.cmpMask(match, start, n, cc)
}

// CmpValues ANDs into match the outcome of cc over vals, taken as codes
// v − origin: the kernels' comparison for values that are not packed (row
// images gathered from the row store).
func CmpValues(match []uint64, vals []int64, origin int64, cc CodeCmp) {
	a, b, neg := cc.operands()
	for g := 0; g*64 < len(vals); g++ {
		if match[g] != 0 {
			match[g] &= cmpValues64(vals[g*64:min(g*64+64, len(vals))], origin, a, b) ^ neg
		}
	}
}

// cmpValues64 is cmpGroup for up to 64 values that are not packed.
func cmpValues64(group []int64, origin int64, a, b uint64) (m uint64) {
	for _, v := range group {
		m = m<<1 | below(uint64(v-origin)^a, b)
	}
	return bits.Reverse64(m << ((64 - uint(len(group))) & 63))
}

// DecodeMasked is Decode for the 64-position groups of [start, start+len(dst))
// whose word of match (bit i for position start+i) is not zero; the rest of
// dst is left as it was: a selective filter leaves most of a window packed.
func (c *NumColumn) DecodeMasked(dst []int64, start int, match []uint64) {
	if c.useRLE {
		c.runs.decode(dst, start)
		return
	}
	c.packed.decodeMasked(dst, start, match)
}

// DecodeCodesMasked is DecodeCodes under DecodeMasked's rule.
func (c *StrColumn) DecodeCodesMasked(dst []int64, start int, match []uint64) {
	c.codes.decodeMasked(dst, start, match)
}

func (p *bitPacked) decodeMasked(dst []int64, start int, match []uint64) {
	for g := 0; g*64 < len(dst); g++ {
		if match[g] != 0 {
			p.decode(dst[g*64:min(g*64+64, len(dst))], start+g*64)
		}
	}
}

// ForEachRun visits the maximal runs of equal values overlapping column
// positions [base+lo, base+hi), clipped to that window, in position order.
// fn receives batch-local bounds (start/end relative to base, like a match
// bitmap index) and the run value. It returns false — without calling fn —
// when the column has no run structure to exploit (bit-packed, non-constant),
// in which case the caller should decode instead.
func (c *NumColumn) ForEachRun(base, lo, hi int, fn func(start, end int, v int64)) bool {
	if c.useRLE {
		r := &c.runs
		if lo >= hi {
			return true
		}
		run := r.runIndexOf(base + lo)
		for i := lo; i < hi; {
			end := int(r.runEnds[run]) - base
			if end > hi {
				end = hi
			}
			fn(i, end, r.runVals[run])
			i = end
			run++
		}
		return true
	}
	if c.packed.width == 0 {
		if lo < hi {
			fn(lo, hi, c.packed.min)
		}
		return true
	}
	return false
}

// IsRunEncoded reports whether the column aggregates at run level (RLE or a
// constant vector) — the encoded-space fast path of the batch kernels.
func (c *NumColumn) IsRunEncoded() bool { return c.useRLE || c.packed.width == 0 }
