package scanengine

import (
	"math"
	"testing"

	"dbimadg/internal/imcs"
	"dbimadg/internal/rowstore"
)

// holds is the comparison in value space, the long way.
func (o CmpOp) holds(x, v int64) bool {
	switch o {
	case EQ:
		return x == v
	case NE:
		return x != v
	case LT:
		return x < v
	case LE:
		return x <= v
	case GT:
		return x > v
	}
	return x >= v
}

// TestCodeCmpEdges pins the literal translation where a code-space comparison
// can go wrong and a value-space one could not: literals at and next to the
// ends of int64 against ranges that span the sign (v − min does not fit an
// int64 there), ranges of one value, NE of a value the range does not hold,
// and the empty range of a unit that captured nothing.
func TestCodeCmpEdges(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	ranges := [][2]int64{
		{lo, hi}, {lo, lo}, {hi, hi}, {lo, lo + 1}, {hi - 1, hi}, {lo + 5, hi - 5},
		{-1, 1}, {0, 0}, {-7, -7}, {0, 999}, {lo, -1}, {0, hi}, {lo / 2, hi / 2},
		{0, -1}, // empty: a dictionary of no entries
	}
	lits := []int64{lo, lo + 1, lo + 5, lo + 6, lo / 2, -8, -7, -6, -1, 0, 1, 500, 999, 1000, hi / 2, hi - 6, hi - 5, hi - 1, hi}
	for _, r := range ranges {
		mn, mx := r[0], r[1]
		// The values to check: both ends, their neighbours and the middle.
		vals := []int64{mn, mx, mn + int64((uint64(mx)-uint64(mn))/2)}
		if mx > mn {
			vals = append(vals, mn+1, mx-1)
		}
		if mx < mn {
			vals = nil
		}
		for op := EQ; op <= GE; op++ {
			for _, lit := range lits {
				cc, verdict := codeCmp(op, lit, mn, mx)
				for _, v := range vals {
					var got bool
					switch verdict {
					case cmpAll:
						got = true
					case cmpSome:
						match := []uint64{1}
						imcs.CmpValues(match, []int64{v}, mn, cc)
						got = match[0] == 1
						if code := uint64(v) - uint64(mn); cc.C > uint64(mx)-uint64(mn) || (cc.Eq && cc.C != uint64(lit)-uint64(mn)) {
							t.Fatalf("range [%d,%d] %v %d: comparand %d for code %d is not a code of the range", mn, mx, op, lit, cc.C, code)
						}
					}
					if want := op.holds(v, lit); got != want {
						t.Fatalf("range [%d,%d]: %d %v %d = %v, want %v (verdict %d, cmp %+v)", mn, mx, v, op, lit, got, want, verdict, cc)
					}
				}
				if verdict == cmpSome && (lit < mn || lit > mx) {
					t.Fatalf("range [%d,%d] %v %d: a literal outside the range was not settled", mn, mx, op, lit)
				}
			}
		}
	}
	// NE of a value nothing holds matches every present row, whatever the side.
	for _, lit := range []int64{-5, 1000, lo, hi} {
		if _, verdict := codeCmp(NE, lit, 0, 999); verdict != cmpAll {
			t.Fatalf("NE %d over [0,999]: verdict %d, want every row", lit, verdict)
		}
		if _, verdict := codeCmp(EQ, lit, 0, 999); verdict != cmpNone {
			t.Fatalf("EQ %d over [0,999]: verdict %d, want no row", lit, verdict)
		}
	}
}

// TestResolveFiltersEdges runs every operator through resolveFilters and the
// packed kernels over a unit whose NUMBER column spans the sign of int64
// (width 64) and whose VARCHAR column lacks some literals, and over a unit
// that captured nothing (empty dictionaries), against the row-at-a-time
// answer.
func TestResolveFiltersEdges(t *testing.T) {
	schema, err := rowstore.NewSchema([]rowstore.Column{
		{Name: "n", Kind: rowstore.KindNumber},
		{Name: "s", Kind: rowstore.KindVarchar},
	})
	if err != nil {
		t.Fatal(err)
	}
	build := func(n []int64, s []string) *imcs.IMCU {
		bld := imcs.NewBuilder(1, 1, schema, 0, 0, 1)
		bld.BeginBlock(len(n))
		for i := range n {
			row := rowstore.NewRow(schema)
			row.Nums[0], row.Strs[0] = n[i], s[i]
			bld.AddRow(rowstore.Pack(row), true)
		}
		return bld.Build()
	}
	nums := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, 42, math.MaxInt64 - 1, math.MaxInt64}
	strs := []string{"b", "d", "d", "f", "h", "h", "j", "b"}
	var filters []Filter
	for op := EQ; op <= GE; op++ {
		for _, lit := range []int64{math.MinInt64, math.MinInt64 + 1, -2, 0, 41, 42, math.MaxInt64 - 1, math.MaxInt64} {
			filters = append(filters, Filter{Col: 0, Op: op, Num: lit})
		}
		for _, lit := range []string{"", "a", "b", "c", "d", "h", "i", "j", "k"} {
			filters = append(filters, Filter{Col: 1, Op: op, Str: lit})
		}
	}
	for _, unit := range []struct {
		n []int64
		s []string
	}{{nums, strs}, {nil, nil}} {
		imcu := build(unit.n, unit.s)
		for _, f := range filters {
			match := []uint64{1<<uint(len(unit.n)) - 1}
			resolved, none := resolveFilters(nil, schema, imcu, []Filter{f})
			if none {
				match[0] = 0
			}
			for _, bf := range resolved {
				if bf.str {
					imcu.StrCol(bf.slot).CmpMask(match, 0, len(unit.n), bf.cmp)
				} else {
					imcu.NumCol(bf.slot).CmpMask(match, 0, len(unit.n), bf.cmp)
				}
			}
			for i := range unit.n {
				want := f.Op.holds(unit.n[i], f.Num)
				if f.Col == 1 {
					want = cmpStr(unit.s[i], f.Op, f.Str)
				}
				if got := match[0]>>uint(i)&1 == 1; got != want {
					t.Fatalf("row %d (%d, %q) under col %d %v %d/%q: %v, want %v", i, unit.n[i], unit.s[i], f.Col, f.Op, f.Num, f.Str, got, want)
				}
			}
		}
	}
}
