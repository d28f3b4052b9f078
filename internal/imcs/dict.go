package imcs

import (
	"math/bits"
	"slices"
	"strings"
	"sync"

	"dbimadg/internal/rowstore"
)

// This file holds the store's dictionaries: a VARCHAR column's codes index a
// Dict, and a build interns the values its column holds into the dictionary
// the store keeps for that column of the object, so that the units of a store
// share one dictionary wherever the code-width rule lets them (dictRef.intern).

// Dict is a sorted dictionary of distinct VARCHAR values, its bytes laid out in
// one string. It is immutable, so the units of a store share it (objDicts): a
// code means the same value in every column coded against one Dict.
type Dict struct {
	vals []string
	size int // footprint in bytes
}

func newDict(vals []string) *Dict {
	d := &Dict{vals: vals, size: 24}
	for _, s := range vals {
		d.size += len(s) + 16
	}
	return d
}

// Len returns the number of entries, the size of the code space.
func (d *Dict) Len() int { return len(d.vals) }

// MemSize returns the approximate footprint in bytes.
func (d *Dict) MemSize() int { return d.size }

// Code returns the code of s, found false when the dictionary lacks it.
func (d *Dict) Code(s string) (code int64, found bool) {
	i, found := slices.BinarySearch(d.vals, s)
	return int64(i), found
}

// codeBits is how many bits a code of an n-entry dictionary takes.
func codeBits(n int) int { return bits.Len64(uint64(max(n, 1) - 1)) }

// objDicts is a store's dictionaries of one object, one per varchar slot of
// the schema they were interned under. A dictionary lives while a unit's image
// or the store refers to it: the store lets go of its own with the object
// (DropObject) or on a schema change (the first build under another schema).
type objDicts struct {
	mu     sync.Mutex
	schema *rowstore.Schema
	dicts  []*Dict
}

// dictRef names the store dictionary of one varchar column. The zero dictRef
// names none, and a column interned into it keeps a dictionary of its own.
type dictRef struct {
	od     *objDicts
	schema *rowstore.Schema
	slot   int
}

// current returns the store's dictionary, nil for none; r.od must be locked.
func (r dictRef) current() *Dict {
	if r.od.schema != r.schema {
		r.od.schema, r.od.dicts = r.schema, make([]*Dict, r.schema.VarcharSlots())
	}
	return r.od.dicts[r.slot]
}

// adopt is the sharing rule for a column already coded against dict, held of
// whose entries it holds: it keeps dict, and reports true, when the store's
// dictionary is dict or none — dict then becomes the store's — and dict needs
// no more code bits than held entries do. No string is compared.
func (r dictRef) adopt(dict *Dict, held int) bool {
	if codeBits(dict.Len()) > codeBits(held) {
		return false
	}
	if r.od == nil {
		return true
	}
	r.od.mu.Lock()
	defer r.od.mu.Unlock()
	if cur := r.current(); cur != nil && cur != dict {
		return false
	}
	r.od.dicts[r.slot] = dict
	return true
}

// intern is the sharing rule. own lists the values a column holds, sorted;
// ownDict is a Dict of exactly them, or nil. It returns the dictionary the
// column is to be coded against and, unless that is own's, the code in it of
// each entry of own. The store's dictionary is taken as it is when it holds
// own; else their union, when it needs no more code bits than own, replaces
// it; else own becomes the column's dictionary and the store's: the newest
// such build replaces the store's, so a dictionary cannot grow without bound
// and no column's codes widen.
func (r dictRef) intern(own []string, ownDict *Dict, w *dictWork) (*Dict, []int64) {
	if r.od == nil {
		if ownDict == nil {
			ownDict = newDict(compacted(own))
		}
		return ownDict, nil
	}
	r.od.mu.Lock()
	defer r.od.mu.Unlock()
	if cur := r.current(); cur != nil {
		w.toU = slices.Grow(w.toU[:0], len(own))[:len(own)]
		if n := union(own, cur.vals, w.toU, nil); codeBits(n) <= codeBits(len(own)) {
			if n > cur.Len() {
				vals := make([]string, n)
				union(own, cur.vals, w.toU, vals)
				rowstore.CompactStrs(vals)
				cur = newDict(vals)
				r.od.dicts[r.slot] = cur
			}
			return cur, w.toU
		}
	}
	if ownDict == nil {
		ownDict = newDict(compacted(own))
	}
	r.od.dicts[r.slot] = ownDict
	return ownDict, nil
}

// union returns the length of the sorted union of the sorted lists a and b,
// one walk of the two, and sets toA[i] to the index of a[i] in it; out, when
// not nil, is that long and receives the union. Most builds find their values
// all in the store's dictionary, so the union is laid out only when it grows.
func union(a, b []string, toA []int64, out []string) int {
	n := 0
	for i, j := 0, 0; i < len(a) || j < len(b); n++ {
		c := 1 // past a's end, b[j] comes next; past b's, a[i]
		if i < len(a) {
			if c = -1; j < len(b) {
				c = strings.Compare(a[i], b[j])
			}
		}
		if c <= 0 {
			toA[i] = int64(n)
			if out != nil {
				out[n] = a[i]
			}
			i++
		} else if out != nil {
			out[n] = b[j]
		}
		if c >= 0 {
			j++
		}
	}
	return n
}

// compacted returns a copy of vals whose bytes lie in one string of its own.
func compacted(vals []string) []string {
	out := slices.Clone(vals)
	rowstore.CompactStrs(out)
	return out
}

// reintern interns the dictionaries of an IMCU built elsewhere — a fleet
// master's — as a build interns its own: its codes
// are the provisional codes of a build with no value read again. A column
// whose dictionary the store adopts — a master's units share theirs — keeps it
// and is not decoded. It returns imcu when no column's dictionary changes,
// else a copy.
func (od *objDicts) reintern(imcu *IMCU) *IMCU {
	out := imcu
	var d *dictBuilder
	var w dictWork
	for s, c := range imcu.strCols {
		ref := dictRef{od, imcu.schema, s}
		if c == nil || c.n == 0 || ref.adopt(c.dict, c.DictSize()) {
			continue
		}
		if d == nil {
			d = new(dictBuilder)
		}
		codes := make([]int64, c.n)
		c.codes.decode(codes, 0)
		d.reset(c.dict)
		if nc := d.finish(codes, nil, &w, ref); nc.dict != c.dict {
			if out == imcu {
				cp := *imcu
				cp.strCols = slices.Clone(imcu.strCols)
				out = &cp
			}
			out.strCols[s] = nc
		}
	}
	if out != imcu {
		out.memSize = out.computeMemSize()
	}
	return out
}

// dictsOf returns the store's dictionaries of obj, nil when it has no unit.
func (s *Store) dictsOf(obj rowstore.ObjID) *objDicts {
	if ou, ok := s.obj(obj); ok {
		return &ou.dicts
	}
	return nil
}
