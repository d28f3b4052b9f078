package imcs

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitPackRoundTrip(t *testing.T) {
	cases := [][]int64{
		{},
		{42},
		{1, 2, 3, 4, 5},
		{-1000, 1000, 0, 999999, -999999},
		{7, 7, 7, 7}, // constant → width 0
		{1 << 62, -(1 << 62)},
	}
	for _, vals := range cases {
		p := packInts(vals)
		for i, want := range vals {
			if got := p.get(i); got != want {
				t.Fatalf("get(%d) = %d, want %d (vals=%v)", i, got, want, vals)
			}
		}
		if len(vals) > 0 {
			dst := make([]int64, len(vals))
			p.decode(dst, 0)
			for i, want := range vals {
				if dst[i] != want {
					t.Fatalf("decode[%d] = %d, want %d", i, dst[i], want)
				}
			}
		}
	}
}

func TestBitPackPartialDecode(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i * 3)
	}
	p := packInts(vals)
	dst := make([]int64, 17)
	p.decode(dst, 500)
	for i := range dst {
		if dst[i] != int64((500+i)*3) {
			t.Fatalf("partial decode at %d: got %d", 500+i, dst[i])
		}
	}
}

func TestRLERoundTrip(t *testing.T) {
	vals := []int64{5, 5, 5, 1, 1, 9, 9, 9, 9, 9, 2}
	r := packRLE(vals, 4)
	for i, want := range vals {
		if got := r.get(i); got != want {
			t.Fatalf("rle.get(%d) = %d, want %d", i, got, want)
		}
	}
	dst := make([]int64, 7)
	r.decode(dst, 2)
	for i := range dst {
		if dst[i] != vals[2+i] {
			t.Fatalf("rle.decode at %d: got %d want %d", 2+i, dst[i], vals[2+i])
		}
	}
}

func TestNumColumnProperty(t *testing.T) {
	f := func(seed int64, runHeavy bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500) + 1
		vals := make([]int64, n)
		v := rng.Int63() - rng.Int63()
		for i := range vals {
			if runHeavy {
				if rng.Intn(16) == 0 {
					v = rng.Int63() - rng.Int63()
				}
			} else {
				v = rng.Int63() - rng.Int63()
			}
			vals[i] = v
		}
		c := EncodeNums(vals)
		if c.Len() != n {
			return false
		}
		mn, mx := vals[0], vals[0]
		for _, x := range vals {
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		gotMin, gotMax := c.MinMax()
		if gotMin != mn || gotMax != mx {
			return false
		}
		for i, want := range vals {
			if c.Get(i) != want {
				return false
			}
		}
		// Batched decode at a random offset.
		start := rng.Intn(n)
		dst := make([]int64, n-start)
		c.Decode(dst, start)
		for i := range dst {
			if dst[i] != vals[start+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestNumColumnPicksRLE(t *testing.T) {
	vals := make([]int64, 1000) // all zero: maximally run-heavy
	if c := EncodeNums(vals); !c.useRLE {
		t.Fatal("constant column did not choose RLE")
	}
	for i := range vals {
		vals[i] = int64(i)
	}
	if c := EncodeNums(vals); c.useRLE {
		t.Fatal("unique-value column chose RLE")
	}
}

func TestStrColumnRoundTrip(t *testing.T) {
	vals := []string{"pear", "apple", "apple", "zebra", "", "mango", "apple"}
	c := EncodeStrs(vals)
	if c.Len() != len(vals) || c.DictSize() != 5 {
		t.Fatalf("len=%d dict=%d", c.Len(), c.DictSize())
	}
	for i, want := range vals {
		if got := c.Get(i); got != want {
			t.Fatalf("Get(%d) = %q, want %q", i, got, want)
		}
	}
	mn, mx := c.MinMax()
	if mn != "" || mx != "zebra" {
		t.Fatalf("MinMax = %q, %q", mn, mx)
	}
	code, found := c.Code("apple")
	if !found {
		t.Fatal("apple not found")
	}
	codes := make([]int64, len(vals))
	c.DecodeCodes(codes, 0)
	matches := 0
	for i, cd := range codes {
		if cd == code {
			matches++
			if vals[i] != "apple" {
				t.Fatalf("code %d at %d is %q", cd, i, vals[i])
			}
		}
	}
	if matches != 3 {
		t.Fatalf("matches = %d, want 3", matches)
	}
	if _, found := c.Code("nope"); found {
		t.Fatal("absent value found")
	}
	if c.Value(code) != "apple" {
		t.Fatal("Value(code) mismatch")
	}
}

func TestStrColumnCodeRangeGE(t *testing.T) {
	c := EncodeStrs([]string{"b", "d", "f"})
	cases := []struct {
		s    string
		want int64
	}{
		{"a", 0}, {"b", 0}, {"c", 1}, {"f", 2}, {"g", 3},
	}
	for _, cse := range cases {
		if got := c.CodeRangeGE(cse.s); got != cse.want {
			t.Errorf("CodeRangeGE(%q) = %d, want %d", cse.s, got, cse.want)
		}
	}
}

func TestStrColumnProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		vals := make([]string, len(raw))
		words := []string{"alpha", "beta", "gamma", "delta", "", "epsilon"}
		for i, b := range raw {
			vals[i] = words[int(b)%len(words)]
		}
		c := EncodeStrs(vals)
		for i, want := range vals {
			if c.Get(i) != want {
				return false
			}
		}
		return c.Len() == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionActuallyCompresses(t *testing.T) {
	// A low-cardinality 100k-value column should be far below 8 bytes/value.
	vals := make([]int64, 100000)
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = int64(rng.Intn(256))
	}
	c := EncodeNums(vals)
	if c.MemSize() > len(vals)*2 {
		t.Fatalf("number column uses %d bytes for %d values", c.MemSize(), len(vals))
	}
	svals := make([]string, 100000)
	for i := range svals {
		svals[i] = []string{"north", "south", "east", "west"}[rng.Intn(4)]
	}
	sc := EncodeStrs(svals)
	if sc.MemSize() > len(svals) {
		t.Fatalf("string column uses %d bytes for %d values", sc.MemSize(), len(svals))
	}
}
