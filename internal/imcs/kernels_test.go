package imcs

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refAgg is the row-at-a-time reference the kernels must match.
func refAgg(vals []int64, match []uint64, base, lo, hi int) MaskedAgg {
	var a MaskedAgg
	for i := lo; i < hi; i++ {
		if match[i/64]&(1<<(i%64)) != 0 {
			a.addRun(vals[base+i], 1)
		}
	}
	a.EncodedRows = 0
	return a
}

func fullMask(n int) []uint64 {
	m := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		m[i/64] |= 1 << (i % 64)
	}
	return m
}

func checkAgg(t *testing.T, name string, got, want MaskedAgg) {
	t.Helper()
	if got.Count != want.Count || got.Sum != want.Sum {
		t.Fatalf("%s: count/sum = %d/%d, want %d/%d", name, got.Count, got.Sum, want.Count, want.Sum)
	}
	if got.Count > 0 && (got.Min != want.Min || got.Max != want.Max) {
		t.Fatalf("%s: min/max = %d/%d, want %d/%d", name, got.Min, got.Max, want.Min, want.Max)
	}
}

// TestAggMaskedRLEStraddlesBatchBoundary pins the run-level fast path on runs
// that straddle the 64-row bitmap-word boundary and the batch window edges.
func TestAggMaskedRLEStraddlesBatchBoundary(t *testing.T) {
	// Runs of 40: boundaries at 40, 80, 120, ... — none aligned with 64.
	vals := make([]int64, 300)
	for i := range vals {
		vals[i] = int64(i / 40 * 10)
	}
	c := EncodeNums(vals)
	if !c.IsRunEncoded() {
		t.Fatal("fixture not RLE-encoded")
	}
	scratch := make([]int64, 256)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		base := rng.Intn(200)
		n := rng.Intn(len(vals)-base) + 1
		if n > 256 {
			n = 256
		}
		match := make([]uint64, (n+63)/64)
		for w := range match {
			match[w] = rng.Uint64()
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo) + 1
		got := c.AggMasked(match, base, lo, hi, scratch)
		want := refAgg(vals, match, base, lo, hi)
		checkAgg(t, "rle", got, want)
		if got.EncodedRows != got.Count {
			t.Fatalf("RLE path decoded rows: encoded=%d count=%d", got.EncodedRows, got.Count)
		}
	}
}

func TestAggMaskedBitPackedMatchesReference(t *testing.T) {
	vals := make([]int64, 300)
	rng := rand.New(rand.NewSource(5))
	for i := range vals {
		vals[i] = rng.Int63n(1000) - 500
	}
	c := EncodeNums(vals)
	if c.IsRunEncoded() {
		t.Fatal("fixture unexpectedly run-encoded")
	}
	scratch := make([]int64, 256)
	for trial := 0; trial < 100; trial++ {
		base := rng.Intn(200)
		n := rng.Intn(len(vals)-base) + 1
		if n > 256 {
			n = 256
		}
		match := make([]uint64, (n+63)/64)
		for w := range match {
			match[w] = rng.Uint64()
			if trial%2 == 1 && rng.Intn(3) > 0 {
				match[w] = ^uint64(0) // a dense word: folded without compaction
			}
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo) + 1
		if trial%4 == 3 {
			lo, hi = 0, n // whole words only, each of them dense where the mask is
		}
		got := c.AggMasked(match, base, lo, hi, scratch)
		checkAgg(t, "packed", got, refAgg(vals, match, base, lo, hi))
		if got.EncodedRows != 0 {
			t.Fatalf("bit-packed path claimed encoded rows: %d", got.EncodedRows)
		}
	}
}

// TestAggMaskedConstantColumn covers the width-0 (constant) vector: it must
// fold in encoded space like a single run.
func TestAggMaskedConstantColumn(t *testing.T) {
	vals := make([]int64, 130)
	for i := range vals {
		vals[i] = 7
	}
	c := EncodeNums(vals)
	match := fullMask(100)
	match[0] &^= 1 // knock out position 0
	got := c.AggMasked(match, 10, 0, 100, make([]int64, 100))
	if got.Count != 99 || got.Sum != 99*7 || got.Min != 7 || got.Max != 7 {
		t.Fatalf("constant agg: %+v", got)
	}
	if got.EncodedRows != 99 {
		t.Fatalf("constant column should aggregate in encoded space: %+v", got)
	}
}

// TestAggMaskedEmptyAndAllNull: an empty window returns the zero aggregate,
// and an all-NULL column (no present rows → empty match bitmap) contributes
// nothing.
func TestAggMaskedEmptyAndAllNull(t *testing.T) {
	c := EncodeNums(nil)
	if got := c.AggMasked(nil, 0, 0, 0, nil); got.Count != 0 || got.Sum != 0 {
		t.Fatalf("empty column agg: %+v", got)
	}
	// All-NULL: builder saw 128 absent slots; present bitmap (here the match
	// bitmap) is empty, so the kernel must not touch a value.
	vals := make([]int64, 128)
	c = EncodeNums(vals)
	match := make([]uint64, 2) // no bits set
	if got := c.AggMasked(match, 0, 0, 128, make([]int64, 128)); got.Count != 0 || got.Sum != 0 {
		t.Fatalf("all-null agg: %+v", got)
	}
}

// TestForEachRunClipsToWindow checks run visitation bounds, including runs
// straddling both window edges, and the fallback signal on packed columns.
func TestForEachRunClipsToWindow(t *testing.T) {
	vals := make([]int64, 200)
	for i := range vals {
		vals[i] = int64(i / 50) // runs of 50: [0,50) [50,100) [100,150) [150,200)
	}
	c := EncodeNums(vals)
	type run struct {
		s, e int
		v    int64
	}
	var got []run
	ok := c.ForEachRun(30, 5, 100, func(s, e int, v int64) { got = append(got, run{s, e, v}) })
	if !ok {
		t.Fatal("RLE column reported no run structure")
	}
	// Window covers positions 35..130: runs 0(35..50), 1(50..100), 2(100..130)
	// in batch-local coordinates (base 30).
	want := []run{{5, 20, 0}, {20, 70, 1}, {70, 100, 2}}
	if len(got) != len(want) {
		t.Fatalf("runs: %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("run %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	rng := rand.New(rand.NewSource(9))
	rnd := make([]int64, 100)
	for i := range rnd {
		rnd[i] = rng.Int63n(1000)
	}
	if EncodeNums(rnd).ForEachRun(0, 0, 100, func(int, int, int64) {}) {
		t.Fatal("bit-packed column claimed run structure")
	}
}

// TestDecodeCodesNonZeroStart pins DecodeCodes windows that begin mid-column
// and mid-word, against Get.
func TestDecodeCodesNonZeroStart(t *testing.T) {
	vals := make([]string, 150)
	words := []string{"amber", "blue", "green", "red", "violet"}
	for i := range vals {
		vals[i] = words[(i*7)%len(words)]
	}
	c := EncodeStrs(vals)
	for _, start := range []int{1, 37, 63, 64, 65, 100} {
		dst := make([]int64, 40)
		c.DecodeCodes(dst, start)
		for i, code := range dst {
			if got, want := c.Value(code), vals[start+i]; got != want {
				t.Fatalf("start %d pos %d: %q != %q", start, i, got, want)
			}
		}
	}
}

// The decode-then-compare reference the packed kernels replaced: value i read
// by recomputing its word and bit offset, the window stored, then one branch
// per value to set a bit. It lives on here as what CmpMask, decode and
// AggMasked are checked and timed against.

func refDecode(p *bitPacked, dst []int64, start int) {
	if p.width == 0 {
		for i := range dst {
			dst[i] = p.min
		}
		return
	}
	w := uint(p.width)
	mask := uint64(1)<<w - 1
	bitPos := uint(start) * w
	for i := range dst {
		word, off := bitPos/64, bitPos%64
		u := p.words[word] >> off
		if off+w > 64 {
			u |= p.words[word+1] << (64 - off)
		}
		dst[i] = p.min + int64(u&mask)
		bitPos += w
	}
}

// refOp is a comparison in value space.
type refOp uint8

const (
	refEQ refOp = iota
	refNE
	refLT
	refLE
	refGT
	refGE
)

func refAndCmp(match []uint64, vals []int64, op refOp, v int64) {
	for w := 0; w*64 < len(vals); w++ {
		if match[w] == 0 {
			continue
		}
		var m uint64
		chunk := vals[w*64 : min(w*64+64, len(vals))]
		switch op {
		case refEQ:
			for b, x := range chunk {
				if x == v {
					m |= 1 << uint(b)
				}
			}
		case refNE:
			for b, x := range chunk {
				if x != v {
					m |= 1 << uint(b)
				}
			}
		case refLT:
			for b, x := range chunk {
				if x < v {
					m |= 1 << uint(b)
				}
			}
		case refLE:
			for b, x := range chunk {
				if x <= v {
					m |= 1 << uint(b)
				}
			}
		case refGT:
			for b, x := range chunk {
				if x > v {
					m |= 1 << uint(b)
				}
			}
		case refGE:
			for b, x := range chunk {
				if x >= v {
					m |= 1 << uint(b)
				}
			}
		}
		match[w] &= m
	}
}

// refCodeCmp translates "value op lit" over values spanning [mn, mx] to code
// space the long way: every case spelled out, no arithmetic that can wrap. ok
// is false when the literal settles the comparison for every value, and then
// all says how.
func refCodeCmp(op refOp, lit, mn, mx int64) (cc CodeCmp, all, ok bool) {
	code := func(v int64) uint64 { return uint64(v) - uint64(mn) }
	switch op {
	case refEQ, refNE:
		if lit < mn || lit > mx {
			return cc, op == refNE, false
		}
		return CodeCmp{C: code(lit), Eq: true, Neg: op == refNE}, false, true
	case refLT, refGE: // value < lit
		if lit <= mn {
			return cc, op == refGE, false
		}
		if lit > mx {
			return cc, op == refLT, false
		}
		return CodeCmp{C: code(lit), Neg: op == refGE}, false, true
	default: // value <= lit, that is value < lit+1
		if lit < mn {
			return cc, op == refGT, false
		}
		if lit >= mx {
			return cc, op == refLE, false
		}
		return CodeCmp{C: code(lit) + 1, Neg: op == refGT}, false, true
	}
}

// sweepWidths is every width the encoder can emit.
func sweepWidths() []int {
	ws := make([]int, 65)
	for w := range ws {
		ws[w] = w
	}
	return ws
}

// sweepColumn returns n values that need exactly width bits over their
// minimum, both ends of the range among them, as a bit-packed column.
func sweepColumn(rng *rand.Rand, width, n int) ([]int64, *NumColumn) {
	mn := int64(rng.Intn(1001) - 1000)
	span := uint64(0)
	switch {
	case width == 64: // the range spans the sign, up to the last int64
		mn = math.MinInt64 + int64(rng.Intn(1000))
		span = uint64(math.MaxInt64) - uint64(mn)
	case width > 0:
		span = ^uint64(0) >> (64 - uint(width))
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = mn + int64(rng.Uint64()%(span/2+1)+rng.Uint64()%(span-span/2+1))
	}
	vals[0], vals[n-1] = mn, mn+int64(span)
	c := &NumColumn{n: n, min: mn, max: mn + int64(span), packed: packInts(vals)}
	return vals, c
}

// sweepWindows are (start, n) windows over a column of 300 values whose starts
// and ends fall before, on and after word and 64-value group boundaries.
func sweepWindows() [][2]int {
	var out [][2]int
	for _, start := range []int{0, 1, 37, 63, 64, 65, 128, 191} {
		for _, n := range []int{1, 2, 63, 64, 65, 100, 109} {
			if start+n <= 300 {
				out = append(out, [2]int{start, n})
			}
		}
	}
	return out
}

// sweepMasks returns an empty, a full and a random incoming mask over n bits.
func sweepMasks(rng *rand.Rand, n int) [][]uint64 {
	words := (n + 63) / 64
	empty, full, random := make([]uint64, words), fullMask(n), make([]uint64, words)
	for w := range random {
		random[w] = rng.Uint64() & full[w]
		if rng.Intn(3) == 0 {
			random[w] = 0 // a whole group deselected
		}
	}
	return [][]uint64{empty, full, random}
}

// TestCmpMaskSweep checks the packed compare against decode-then-compare over
// every width × op × window × incoming mask × literal.
func TestCmpMaskSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, width := range sweepWidths() {
		vals, col := sweepColumn(rng, width, 300)
		p := col.packed
		if int(p.width) != width {
			t.Fatalf("fixture packed at width %d, want %d", p.width, width)
		}
		lits := []int64{col.min - 1, col.min, col.min + (col.max-col.min)/2, vals[150], col.max, col.max + 1, math.MinInt64, math.MaxInt64}
		if width == 64 { // min−1 and max+1 do not exist
			lits = lits[1:5:5]
			lits = append(lits, math.MinInt64, math.MaxInt64, -1, 0, 1)
		}
		for _, win := range sweepWindows() {
			start, n := win[0], win[1]
			ref := make([]int64, n)
			refDecode(&p, ref, start)
			for _, mask := range sweepMasks(rng, n) {
				for op := refEQ; op <= refGE; op++ {
					for _, lit := range lits {
						want := slices.Clone(mask)
						refAndCmp(want, ref, op, lit)
						got := slices.Clone(mask)
						cc, all, ok := refCodeCmp(op, lit, col.min, col.max)
						switch {
						case ok:
							col.CmpMask(got, start, n, cc)
						case !all:
							clear(got)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("width %d window [%d,+%d) op %d lit %d (cc %+v ok=%v all=%v):\n got %x\nwant %x",
								width, start, n, op, lit, cc, ok, all, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCmpMaskRLEAndValues runs the same comparisons over a run-length encoded
// column (compared per run, cleared by range) and through CmpValues.
func TestCmpMaskRLEAndValues(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	vals := make([]int64, 300)
	for i := range vals {
		vals[i] = int64(i/23%5)*7 - 9
	}
	col := EncodeNums(vals)
	if !col.IsRunEncoded() {
		t.Fatal("fixture not RLE-encoded")
	}
	for _, win := range sweepWindows() {
		start, n := win[0], win[1]
		for _, mask := range sweepMasks(rng, n) {
			for op := refEQ; op <= refGE; op++ {
				for _, lit := range []int64{-10, -9, -2, 5, 12, 19, 20, math.MinInt64, math.MaxInt64} {
					want := slices.Clone(mask)
					refAndCmp(want, vals[start:start+n], op, lit)
					for name, run := range map[string]func([]uint64, CodeCmp){
						"rle":    func(m []uint64, cc CodeCmp) { col.CmpMask(m, start, n, cc) },
						"values": func(m []uint64, cc CodeCmp) { CmpValues(m, vals[start:start+n], col.min, cc) },
					} {
						got := slices.Clone(mask)
						cc, all, ok := refCodeCmp(op, lit, col.min, col.max)
						switch {
						case ok:
							run(got, cc)
						case !all:
							clear(got)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("%s window [%d,+%d) op %d lit %d: got %x want %x", name, start, n, op, lit, got, want)
						}
					}
				}
			}
		}
	}
}

// TestUnpackSweep checks decode, Gather and AggMasked's late decode against
// the reference over every width and window.
func TestUnpackSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for _, width := range sweepWidths() {
		vals, col := sweepColumn(rng, width, 300)
		for _, win := range sweepWindows() {
			start, n := win[0], win[1]
			want := make([]int64, n)
			refDecode(&col.packed, want, start)
			if !slices.Equal(want, vals[start:start+n]) {
				t.Fatalf("width %d: the reference itself is off", width)
			}
			got := make([]int64, n)
			col.Decode(got, start)
			if !slices.Equal(got, want) {
				t.Fatalf("width %d window [%d,+%d): decode\n got %v\nwant %v", width, start, n, got, want)
			}
			for _, mask := range sweepMasks(rng, n) {
				// The positions the mask selects, gathered two values apart.
				var pos []int32
				for i := range want {
					if mask[i/64]&(1<<(i%64)) != 0 {
						pos = append(pos, int32(start+i))
					}
				}
				gathered := make([]int64, 2*len(pos))
				col.Gather(gathered, 2, pos)
				for j, p := range pos {
					if gathered[2*j] != vals[p] {
						t.Fatalf("width %d window [%d,+%d): Gather pos %d = %d, want %d", width, start, n, p, gathered[2*j], vals[p])
					}
				}
				// Sub-windows [lo, hi) of the batch, as the run-level GROUP BY
				// path asks for them.
				for _, sub := range [][2]int{{0, n}, {n / 3, n}, {0, n - n/3}, {n / 2, n/2 + 1}} {
					lo, hi := sub[0], min(sub[1], n)
					if lo >= hi {
						continue
					}
					scratch := make([]int64, n)
					checkAgg(t, fmt.Sprintf("width %d window [%d,+%d) sub [%d,%d)", width, start, n, lo, hi),
						col.AggMasked(mask, start, lo, hi, scratch), refAgg(vals, mask, start, lo, hi))
				}
			}
		}
	}
}

// FuzzCmpMask throws arbitrary columns, windows, masks and literals at the
// packed compare; the reference decides.
func FuzzCmpMask(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(0), uint16(0), uint16(64), int64(500), uint64(0xffff))
	f.Add(int64(2), uint8(64), uint8(3), uint16(5), uint16(130), int64(math.MinInt64), ^uint64(0))
	f.Add(int64(3), uint8(0), uint8(1), uint16(63), uint16(2), int64(0), uint64(1))
	f.Add(int64(4), uint8(33), uint8(5), uint16(191), uint16(109), int64(math.MaxInt64), uint64(0xaaaa5555))
	f.Fuzz(func(t *testing.T, seed int64, width, opn uint8, start, n uint16, lit int64, maskSeed uint64) {
		rng := rand.New(rand.NewSource(seed))
		vals, col := sweepColumn(rng, int(width%65), 300)
		s, cnt := int(start%300), int(n)
		cnt = max(1, min(cnt, 300-s))
		op := refOp(opn % 6)
		mask := fullMask(cnt)
		for w := range mask {
			mask[w] &= maskSeed
			maskSeed = maskSeed*6364136223846793005 + 1442695040888963407
		}
		want := slices.Clone(mask)
		refAndCmp(want, vals[s:s+cnt], op, lit)
		got := slices.Clone(mask)
		cc, all, ok := refCodeCmp(op, lit, col.min, col.max)
		switch {
		case ok:
			col.CmpMask(got, s, cnt, cc)
		case !all:
			clear(got)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("width %d window [%d,+%d) op %d lit %d: got %x want %x", col.packed.width, s, cnt, op, lit, got, want)
		}
	})
}

// FuzzFoldPacked throws arbitrary columns — bit-packed at any width 0 to 64,
// run-length encoded, constant —, windows, masks (empty, sparse, all ones or
// random) and sets of aggregate kinds at the word-at-a-time fold: the count
// and every part the kinds name must be what decode-then-fold gives, and the
// rows counted as folded in encoded space what AggMasked counts.
func FuzzFoldPacked(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(0), uint16(0), uint16(300), uint16(0), uint16(299), uint8(1), uint64(1))
	f.Add(int64(2), uint8(64), uint8(0), uint16(37), uint16(200), uint16(5), uint16(150), uint8(6), uint64(2))
	f.Add(int64(3), uint8(0), uint8(1), uint16(63), uint16(100), uint16(1), uint16(64), uint8(7), uint64(3))
	f.Add(int64(4), uint8(17), uint8(2), uint16(128), uint16(109), uint16(0), uint16(0), uint8(0), uint64(0))
	f.Fuzz(func(t *testing.T, seed int64, width, enc uint8, base, n, lo, hi uint16, kinds uint8, maskSeed uint64) {
		rng := rand.New(rand.NewSource(seed))
		vals, col := sweepColumn(rng, int(width%65), 300)
		switch enc % 3 {
		case 1: // runs of up to 40 equal values
			run := 1 + rng.Intn(40)
			for i := range vals {
				vals[i] = vals[i-i%run]
			}
			col = &NumColumn{n: len(vals), min: col.min, max: col.max, useRLE: true, runs: packRLE(vals, 0)}
		case 2: // one value
			for i := range vals {
				vals[i] = vals[0]
			}
			col = &NumColumn{n: len(vals), min: vals[0], max: vals[0], packed: packInts(vals)}
		}
		b := int(base % 300)
		cnt := max(1, min(int(n), 300-b))
		l := int(lo) % cnt
		h := l + 1 + int(hi)%(cnt-l)
		match := make([]uint64, (cnt+63)/64)
		for w := range match {
			switch maskSeed % 4 {
			case 1:
				match[w] = ^uint64(0)
			case 2:
				match[w] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			case 3:
				match[w] = rng.Uint64()
			}
		}
		k := AggKinds(kinds % 8)
		got, want := col.FoldMasked(k, match, b, l, h, make([]int64, cnt)), refAgg(vals, match, b, l, h)
		where := fmt.Sprintf("width %d encoding %d window [%d,+%d) [%d,%d) kinds %d", col.packed.width, enc%3, b, cnt, l, h, k)
		if got.Count != want.Count || k&FoldSum != 0 && got.Sum != want.Sum {
			t.Fatalf("%s: count/sum = %d/%d, want %d/%d", where, got.Count, got.Sum, want.Count, want.Sum)
		}
		if want.Count > 0 && (k&FoldMin != 0 && got.Min != want.Min || k&FoldMax != 0 && got.Max != want.Max) {
			t.Fatalf("%s: min/max = %d/%d, want %d/%d", where, got.Min, got.Max, want.Min, want.Max)
		}
		if all := col.AggMasked(match, b, l, h, make([]int64, cnt)); got.EncodedRows != all.EncodedRows {
			t.Fatalf("%s: %d rows encoded, %d with every part", where, got.EncodedRows, all.EncodedRows)
		}
	})
}

// benchWidths are the widths the kernel benchmarks report.
var benchWidths = []int{1, 7, 10, 17, 33, 64}

const benchRows = 7168 // one bench-table unit, rounded to whole batches

// BenchmarkCmpMask times a predicate over one unit's column, a 1 024-row batch
// at a time as scanIMCUWindow runs it: the packed compare and, as ref, the
// decode-then-compare it replaced.
func BenchmarkCmpMask(b *testing.B) {
	for _, width := range benchWidths {
		rng := rand.New(rand.NewSource(int64(width)))
		vals, col := sweepColumn(rng, width, benchRows)
		p := col.packed
		for _, op := range []refOp{refEQ, refLT} {
			// Q1's shape, a value a few rows hold, and AGG's, half the range:
			// the one the reference's branch mispredicts on.
			name, lit := "eq", vals[17]
			if op == refLT {
				name, lit = "lt", col.min+int64((uint64(col.max-col.min)+1)/2)
			}
			cc, _, ok := refCodeCmp(op, lit, col.min, col.max)
			if !ok {
				b.Fatalf("w%d %s: literal settles the comparison", width, name)
			}
			match, window := make([]uint64, 16), make([]int64, 1024)
			run := func(b *testing.B, batch func(base int)) {
				for i := 0; i < b.N; i++ {
					for base := 0; base < benchRows; base += 1024 {
						for w := range match {
							match[w] = ^uint64(0)
						}
						batch(base)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/row")
			}
			b.Run(fmt.Sprintf("w%d/%s", width, name), func(b *testing.B) {
				run(b, func(base int) { col.CmpMask(match, base, 1024, cc) })
			})
			b.Run(fmt.Sprintf("w%d/%s-ref", width, name), func(b *testing.B) {
				run(b, func(base int) {
					refDecode(&p, window, base)
					refAndCmp(match, window, op, lit)
				})
			})
		}
	}
}

// BenchmarkUnpack times decoding one unit's column, a batch at a time.
func BenchmarkUnpack(b *testing.B) {
	for _, width := range benchWidths {
		rng := rand.New(rand.NewSource(int64(width)))
		_, col := sweepColumn(rng, width, benchRows)
		p := col.packed
		window := make([]int64, 1024)
		for name, decode := range map[string]func(base int){
			"":     func(base int) { p.decode(window, base) },
			"-ref": func(base int) { refDecode(&p, window, base) },
		} {
			b.Run(fmt.Sprintf("w%d%s", width, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for base := 0; base < benchRows; base += 1024 {
						decode(base)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/row")
			})
		}
	}
}
