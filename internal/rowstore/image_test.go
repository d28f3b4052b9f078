package rowstore

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"

	"dbimadg/internal/scn"
)

// VersionSize is exported to the package's external tests.
const VersionSize = unsafe.Sizeof(version{})

// randRow draws a row of the given shape; string lengths come from the edges of
// the length encoding (one, two and three length bytes) as well as the short
// values tables hold.
func randRow(rng *rand.Rand, nNums, nStrs int) Row {
	r := Row{Nums: make([]int64, nNums), Strs: make([]string, nStrs)}
	for i := range r.Nums {
		switch rng.Intn(6) {
		case 0:
			r.Nums[i] = math.MinInt64
		case 1:
			r.Nums[i] = math.MaxInt64
		case 2:
			r.Nums[i] = 0
		default:
			r.Nums[i] = rng.Int63() - rng.Int63()
		}
	}
	lens := []int{0, 0, 1, 8, 8, 8, 127, 128, 16383, 16384}
	for i := range r.Strs {
		n := lens[rng.Intn(len(lens))]
		if rng.Intn(200) == 0 {
			n = 70000
		}
		b := make([]byte, n)
		rng.Read(b)
		r.Strs[i] = string(b)
	}
	return r
}

func TestImageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][2]int{{0, 0}, {0, 1}, {1, 0}, {0, 7}, {9, 0}, {3, 3}, {51, 50}}
	for iter := 0; iter < 300; iter++ {
		sh := shapes[iter%len(shapes)]
		if iter%11 == 0 {
			sh = [2]int{rng.Intn(40), rng.Intn(40)}
		}
		r := randRow(rng, sh[0], sh[1])
		m := Pack(r)
		if (m == "") != (sh == [2]int{}) {
			t.Fatalf("shape %v: zero image = %v; only the row of no values is the absent row", sh, m == "")
		}
		if m.NumCount() != sh[0] || m.StrCount() != sh[1] {
			t.Fatalf("shape %v: counts (%d, %d)", sh, m.NumCount(), m.StrCount())
		}
		for s, v := range r.Nums {
			if got := m.Num(s); got != v {
				t.Fatalf("Num(%d) = %d, want %d", s, got, v)
			}
		}
		for s, v := range r.Strs {
			if got := m.Str(s); got != v {
				t.Fatalf("Str(%d): %d bytes, want %d", s, len(got), len(v))
			}
		}
		it := m.StrsFrom(sh[1] / 2)
		for s := sh[1] / 2; s < sh[1]; s++ {
			if got := it.Next(); got != r.Strs[s] {
				t.Fatalf("StrsFrom(%d) at slot %d differs", sh[1]/2, s)
			}
		}
		// AppendTo appends: behind what the row already holds.
		into := Row{Nums: []int64{-1}, Strs: []string{"kept"}}
		m.AppendTo(&into)
		if into.Nums[0] != -1 || into.Strs[0] != "kept" || !(Row{Nums: into.Nums[1:], Strs: into.Strs[1:]}).Equal(r) {
			t.Fatalf("shape %v: AppendTo did not append the row", sh)
		}
		if own := m.Row(); !own.Equal(r) {
			t.Fatalf("shape %v: Row() differs", sh)
		}
		// The layout is canonical: equal rows, equal images, and only then.
		if Pack(m.Row()) != m {
			t.Fatalf("shape %v: repacking the unpacked row gives another image", sh)
		}
		o := randRow(rng, sh[0], sh[1])
		if (Pack(o) == m) != o.Equal(r) {
			t.Fatalf("shape %v: image equality and row equality disagree", sh)
		}
	}
}

// TestZeroImage: the zero Image stands wherever Row{} stood for "no row".
func TestZeroImage(t *testing.T) {
	var m Image
	if m.NumCount() != 0 || m.StrCount() != 0 {
		t.Fatal("zero image has columns")
	}
	var r Row
	m.AppendTo(&r)
	if len(r.Nums)+len(r.Strs) != 0 || !m.Row().Equal(Row{}) {
		t.Fatal("zero image unpacks to values")
	}
	for name, f := range map[string]func(){"Num": func() { m.Num(0) }, "Str": func() { m.Str(0) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s(0) of the zero image did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestImageOutlivesDroppedColumn: DropColumn keeps the surviving columns'
// slots, so an image packed under the old schema reads the same through the
// new one.
func TestImageOutlivesDroppedColumn(t *testing.T) {
	s := testSchema(t)
	m := mkImg(s, 1, 2, "x")
	s2, err := s.DropColumn("n1")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Str(s2.Col(s2.ColIndex("c1")).Slot()); got != "x" {
		t.Fatalf("c1 through the new schema = %q", got)
	}
	if got := m.Num(s2.Col(s2.ColIndex("id")).Slot()); got != 1 {
		t.Fatalf("id through the new schema = %d", got)
	}
	if got := m.Num(s.Col(s.ColIndex("n1")).Slot()); got != 2 {
		t.Fatalf("the dropped column's slot reads %d, want it still there", got)
	}
}

// TestRowCopiesShareNothing: what Row() and CompactStrs hand out must not be
// views of the image — overwriting is impossible, so compare addresses.
func TestRowCopiesShareNothing(t *testing.T) {
	m := Pack(Row{Nums: []int64{1}, Strs: []string{"alpha", "", "beta"}})
	lo := uintptr(unsafe.Pointer(unsafe.StringData(string(m))))
	hi := lo + uintptr(len(m))
	for i, s := range m.Row().Strs {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); len(s) > 0 && p >= lo && p < hi {
			t.Fatalf("Row().Strs[%d] is a view of the image", i)
		}
	}
	if v := m.Str(0); uintptr(unsafe.Pointer(unsafe.StringData(v))) < lo || uintptr(unsafe.Pointer(unsafe.StringData(v))) >= hi {
		t.Fatal("Str is expected to be a view (the test's premise)")
	}
	strs := []string{m.Str(0), m.Str(1), m.Str(2)}
	CompactStrs(strs)
	if strings.Join(strs, "|") != "alpha||beta" {
		t.Fatalf("CompactStrs changed the values: %q", strs)
	}
	if unsafe.StringData(strs[0]) == unsafe.StringData(m.Str(0)) {
		t.Fatal("CompactStrs left a view of the image")
	}
}

// TestBlockUpdateDeletedRow: an update of a row whose newest version is a
// delete is refused before the callback runs (it used to receive an empty row
// and index it, under the block latch).
func TestBlockUpdateDeletedRow(t *testing.T) {
	s := testSchema(t)
	for _, tc := range []struct {
		name       string
		sameTxn    bool // delete and update in one transaction
		abortedDel bool // the delete was rolled back: the row is there again
		want       error
	}{
		{"committed delete", false, false, ErrRowDeleted},
		{"own delete", true, false, ErrRowDeleted},
		{"aborted delete", false, true, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tt := newFakeTxnTable()
			b := NewBlock(MakeDBA(1, 0), 4)
			tt.set(1, TxnCommitted, 10)
			if err := b.Insert(0, 1, mkImg(s, 1, 100, "a")); err != nil {
				t.Fatal(err)
			}
			tt.set(2, TxnActive, 0)
			if err := b.Delete(0, 2, tt); err != nil {
				t.Fatal(err)
			}
			updater := scn.TxnID(2)
			if !tc.sameTxn {
				if tc.abortedDel {
					tt.set(2, TxnAborted, 0)
				} else {
					tt.set(2, TxnCommitted, 20)
				}
				updater = 3
				tt.set(3, TxnActive, 0)
			}
			called := false
			_, err := b.Update(0, updater, tt, new(Row), nil, nil, func(r *Row) { called = true; r.Nums[1] = 7 })
			if err != tc.want {
				t.Fatalf("Update = %v, want %v", err, tc.want)
			}
			if called != (tc.want == nil) {
				t.Fatalf("mutate called = %v", called)
			}
			if chain := b.ChainLen(0); chain != 2+btoi(tc.want == nil) {
				t.Fatalf("chain length %d", chain)
			}
		})
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

var (
	sinkNum int64
	sinkStr string
	sinkImg Image
)

// benchRow has the bench table's shape: 51 numbers, 50 eight-byte strings.
func benchRow() Row {
	rng := rand.New(rand.NewSource(7))
	r := Row{Nums: make([]int64, 51), Strs: make([]string, 50)}
	for i := range r.Nums {
		r.Nums[i] = rng.Int63n(1000)
	}
	for i := range r.Strs {
		r.Strs[i] = "val_" + string(rune('0'+i%10)) + "123"
	}
	return r
}

func BenchmarkImage(b *testing.B) {
	r := benchRow()
	m := Pack(r)
	b.Run("pack", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkImg = Pack(r)
		}
	})
	b.Run("num", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkNum += m.Num(i % 51)
		}
	})
	b.Run("str", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkStr = m.Str(i % 50)
		}
	})
	b.Run("appendto", func(b *testing.B) {
		var into Row
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			into.Nums, into.Strs = into.Nums[:0], into.Strs[:0]
			m.AppendTo(&into)
		}
	})
}
