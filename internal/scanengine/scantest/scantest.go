// Package scantest is a reusable differential harness for the scan executor.
// The morsel scheduler's contract is that parallelism and granule size are
// pure performance knobs: any query shape must produce byte-identical results
// whether it runs serially or work-stolen across N workers at any morsel
// size. Diff enforces exactly that — each case's canonicalized result at
// every (morsel granule × parallelism) point must equal the serial baseline.
//
// Tests across the repo (executor differential suite, morsel boundary sweep,
// chaos oracle self-checks) share this canonicalization instead of growing
// ad-hoc result comparisons.
package scantest

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dbimadg/internal/imcs"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
)

// Case is one named query shape under differential test. Query must return a
// fresh value each call: the harness mutates Parallel on it. Match, when set,
// is the query's filters as a Go predicate over a row image: Diff then also
// checks every point's per-path row counts against ExpectPaths (Options.Store
// and Options.View must be set, and the store must not change under the
// sweep).
type Case struct {
	Name  string
	Query func() *scanengine.Query
	Match func(rowstore.Image) bool
}

// Options configures a Diff sweep.
type Options struct {
	// NewExec builds a fresh executor bound to the store/view under test.
	NewExec func() *scanengine.Executor
	// Snap is the snapshot every run executes at.
	Snap scn.SCN
	// Parallel lists the worker counts to sweep
	// (default 1, 2, 8, GOMAXPROCS).
	Parallel []int
	// MorselRows lists the granules to sweep; 0 means the executor's
	// configured default (default just {0}).
	MorselRows []int
	// Reference, when set, builds an executor over the row store alone: every
	// case's baseline must equal its serial result byte for byte, so the whole
	// sweep is pinned to Consistent Read of the row store and not merely to
	// itself.
	Reference func() *scanengine.Executor
	// Store and View are the column store NewExec scans through and its
	// transaction view, for the per-path expectation of cases with a Match.
	Store *imcs.Store
	View  rowstore.TxnView
}

// Paths is a result's matching rows by serving path: compressed columns —
// Delta of them SMU-invalid rows patched from the unit's column delta —
// SMU-invalid rows re-read from the row store, rows appended to a unit's
// blocks after population, and rows of blocks no usable unit covers.
type Paths struct{ IMCS, Delta, Invalid, Tail, Range int64 }

// PathsOf reads a result's per-path counters.
func PathsOf(res *scanengine.Result) Paths {
	return Paths{res.FromIMCS, res.FromDelta, res.FromInvalid, res.FromTail, res.FromRowStore - res.FromInvalid - res.FromTail}
}

// ExpectPaths says where a scan at snap must serve each matching row of the
// table's segments from, by the rule of the paper's §II.B and nothing the
// executor computes: a row visible at snap comes from its unit's IMCU unless
// the SMU marks its position invalid (or a gap) — and then still, patched, when
// the unit's delta holds entries for the position and none of a commit after
// snap — from the row store as a tail row when the IMCU never captured its
// slot, and from a plain row-store range when no unit usable at snap covers its
// block.
func ExpectPaths(tbl *rowstore.Table, store *imcs.Store, view rowstore.TxnView, snap scn.SCN, match func(rowstore.Image) bool) Paths {
	var want Paths
	for _, seg := range tbl.Segments() {
		views := map[*imcs.Unit]*imcs.View{}
		seg.Scan(snap, view, func(rid rowstore.RowID, row rowstore.Image) bool {
			if !match(row) {
				return true
			}
			blk := rid.DBA.Block()
			u, ok := store.UnitForBlock(seg.Obj(), blk)
			if !ok {
				want.Range++
				return true
			}
			v, seen := views[u]
			if !seen {
				v = new(imcs.View)
				if !u.View(v) || v.IMCU.SnapSCN > snap || v.IMCU.Schema() != tbl.Schema() {
					v.Release()
				}
				views[u] = v
			}
			if v.IMCU == nil {
				want.Range++
				return true
			}
			pos, captured := v.IMCU.RowIndexOf(blk, rid.Slot)
			switch {
			case !captured:
				want.Tail++
			case v.Invalid[pos/64]&(1<<uint(pos%64)) == 0:
				want.IMCS++
			case explained(v, imcs.DeltaAddr(blk-v.IMCU.StartBlk, rid.Slot), snap):
				want.IMCS++
				want.Delta++
			default:
				want.Invalid++
			}
			return true
		})
	}
	return want
}

// explained reports whether v's delta holds entries for the row at addr and
// none of a commit after snap.
func explained(v *imcs.View, addr uint64, snap scn.SCN) bool {
	i := v.Seek(addr)
	first := i
	for ; i < len(v.Delta) && v.Delta[i].Key>>16 == addr>>16; i++ {
		if v.Delta[i].SCN > snap {
			return false
		}
	}
	return i > first
}

// Canonical renders a scan result into a byte-comparable string: materialized
// rows (all schema columns, in result order), scalar aggregates, and grouped
// output. Two results are equivalent iff their canonical strings are equal.
func Canonical(res *scanengine.Result, s *rowstore.Schema) string {
	var b strings.Builder
	if len(res.Rows) > 0 {
		b.WriteString("rows:")
		for _, r := range res.Rows {
			for c := 0; c < s.NumCols(); c++ {
				if s.Col(c).Kind == rowstore.KindVarchar {
					b.WriteString(r.Str(s, c))
				} else {
					fmt.Fprintf(&b, "%d", r.Num(s, c))
				}
				b.WriteByte(',')
			}
			b.WriteByte(';')
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "count=%d aggs=%v nrows=%d\n", res.Count, res.AggVals, len(res.Rows))
	if res.Grouped != nil {
		fmt.Fprintf(&b, "groups(%v|%v):", res.Grouped.KeyCols, res.Grouped.AggCols)
		for _, g := range res.Grouped.Groups {
			for _, k := range g.Keys {
				b.WriteString(k.String())
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "=%d:%v;", g.Count, g.Vals)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Diff runs every case serially, then across the full morsel-granule ×
// parallelism sweep, and fails the test on the first divergence from the
// serial baseline. It returns the number of (case, granule, parallel) points
// checked.
func Diff(t testing.TB, opts Options, cases ...Case) int {
	t.Helper()
	if opts.NewExec == nil {
		t.Fatal("scantest: Options.NewExec is required")
	}
	par := opts.Parallel
	if len(par) == 0 {
		par = []int{1, 2, 8, runtime.GOMAXPROCS(0)}
	}
	granules := opts.MorselRows
	if len(granules) == 0 {
		granules = []int{0}
	}
	checked := 0
	for _, c := range cases {
		schema := c.Query().Table.Schema()
		base, baseRes := "", (*scanengine.Result)(nil)
		for gi, g := range granules {
			for _, p := range par {
				ex := opts.NewExec()
				ex.MorselRows = g
				q := c.Query()
				q.Parallel = p
				res, err := ex.Run(q, opts.Snap)
				if err != nil {
					t.Fatalf("scantest %s (morsel=%d parallel=%d): %v", c.Name, g, p, err)
				}
				got := Canonical(res, schema)
				if c.Match != nil {
					if want := ExpectPaths(q.Table, opts.Store, opts.View, opts.Snap, c.Match); PathsOf(res) != want {
						t.Fatalf("scantest %s (morsel=%d parallel=%d): rows by path %+v, want %+v", c.Name, g, p, PathsOf(res), want)
					}
				}
				if gi == 0 && p == par[0] {
					// The sweep's first point (serial at the first granule)
					// is the baseline every other point must match.
					base, baseRes = got, res
					if opts.Reference != nil {
						rq := c.Query()
						rq.Parallel = 1
						ref, err := opts.Reference().Run(rq, opts.Snap)
						if err != nil {
							t.Fatalf("scantest %s reference: %v", c.Name, err)
						}
						if want := Canonical(ref, schema); got != want {
							t.Fatalf("scantest %s differs from the row-store reference:\n%s\nwant:\n%s", c.Name, got, want)
						}
					}
					checked++
					continue
				}
				if got != base {
					t.Fatalf("scantest %s diverges at morsel=%d parallel=%d:\nbaseline (morsel=%d parallel=%d):\n%s\ngot:\n%s",
						c.Name, g, p, granules[0], par[0], base, got)
				}
				// Parallelism must not change which rows matched, only who
				// scanned them: the path split may shift, the total may not.
				if tot, bt := res.FromIMCS+res.FromRowStore, baseRes.FromIMCS+baseRes.FromRowStore; tot != bt {
					t.Fatalf("scantest %s: matching-row total changed at morsel=%d parallel=%d: %d vs baseline %d",
						c.Name, g, p, tot, bt)
				}
				checked++
			}
		}
	}
	return checked
}
