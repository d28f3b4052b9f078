package imcs

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"dbimadg/internal/primary"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
	"dbimadg/internal/service"
	"dbimadg/internal/txn"
)

// The bench table's shape (workload.WideTableSpec, which this package cannot
// import): an identity, 50 number and 50 varchar columns over domains of 1000.
const (
	wideCols   = 50
	wideDomain = 1000
)

// mergeFixture is a primary cluster with one table whose commits invalidate a
// column store under the commit gate, as dbimadg.Open wires the primary.
type mergeFixture struct {
	sc    buildScratch // what a population worker would own
	c     *primary.Cluster
	tbl   *rowstore.Table
	seg   *rowstore.Segment
	store *Store
	eng   *Engine
	view  *countingView
	// patches, set before a Commit, says what its transaction changed.
	patches []Patch
}

// countingView counts transaction-table lookups: the read of a slot whose only
// version some transaction wrote costs exactly one.
type countingView struct {
	rowstore.TxnView
	lookups atomic.Int64
}

func (v *countingView) Lookup(id scn.TxnID) (rowstore.TxnStatus, scn.SCN) {
	v.lookups.Add(1)
	return v.TxnView.Lookup(id)
}

// invalidateOnCommit is the primary's patch-less hook, unless the test says what
// the committing transaction's statements changed, in statement order, as a
// standby's flush would: then f.patches is handed over with the commitSCN.
type invalidateOnCommit struct{ f *mergeFixture }

func (h invalidateOnCommit) OnCommit(_ rowstore.TenantID, changes []txn.RowChange, at scn.SCN) {
	for i, ch := range changes {
		var patches []Patch
		if h.f.patches != nil {
			patches = h.f.patches[i : i+1]
		}
		h.f.store.Invalidate(ch.Obj, ch.DBA.Block(), []uint16{ch.Slot}, at, patches)
	}
	h.f.patches = nil
}

type gateSnapshot struct{ c *primary.Cluster }

func (g gateSnapshot) CaptureSnapshot() scn.SCN { return g.c.Snapshot() }

func newMergeFixture(tb testing.TB, cols []rowstore.Column, rowsPerBlock int, cfg Config) *mergeFixture {
	tb.Helper()
	c := primary.NewCluster(1, rowsPerBlock)
	store := NewStore()
	tbl, err := c.Instance(0).CreateTable(&rowstore.TableSpec{
		Name: "T", Tenant: 1, Columns: cols, IdentityCol: 0, PartitionCol: -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	attr := rowstore.InMemoryAttr{Enabled: true, Service: service.PrimaryOnly}
	if err := c.Instance(0).AlterInMemory(1, "T", "", attr); err != nil {
		tb.Fatal(err)
	}
	f := &mergeFixture{c: c, tbl: tbl, seg: tbl.Segments()[0], store: store}
	c.SetDBIMHook(invalidateOnCommit{f})
	f.view = &countingView{TxnView: c.Txns()}
	targets := func() []Target { return []Target{f.target()} }
	f.eng = NewEngine(store, f.view, gateSnapshot{c}, targets, cfg)
	return f
}

func (f *mergeFixture) target() Target { return Target{Seg: f.seg, Table: f.tbl} }

func wideColumns() []rowstore.Column {
	cols := []rowstore.Column{{Name: "id", Kind: rowstore.KindNumber}}
	for i := 1; i <= wideCols; i++ {
		cols = append(cols, rowstore.Column{Name: fmt.Sprintf("n%d", i), Kind: rowstore.KindNumber})
	}
	for i := 1; i <= wideCols; i++ {
		cols = append(cols, rowstore.Column{Name: fmt.Sprintf("c%d", i), Kind: rowstore.KindVarchar})
	}
	return cols
}

// wideValue allocates its string, as redo apply does for every value it decodes.
func wideValue(rng *rand.Rand) string { return fmt.Sprintf("val_%04d", rng.Intn(wideDomain)) }

// newWideFixture loads rows bench-table rows into one unit of 64 blocks and
// populates it.
func newWideFixture(tb testing.TB, rows int) (*mergeFixture, *Unit) {
	tb.Helper()
	const blocks = 64
	f := newMergeFixture(tb, wideColumns(), (rows+blocks-1)/blocks, Config{BlocksPerIMCU: blocks})
	rng := rand.New(rand.NewSource(1))
	schema := f.tbl.Schema()
	for id := 0; id < rows; {
		tx := f.c.Instance(0).Begin()
		for k := 0; k < 500 && id < rows; k, id = k+1, id+1 {
			r := rowstore.NewRow(schema)
			r.Nums[0] = int64(id)
			for s := 1; s < len(r.Nums); s++ {
				r.Nums[s] = rng.Int63n(wideDomain)
			}
			for s := range r.Strs {
				r.Strs[s] = wideValue(rng)
			}
			if _, err := tx.Insert(f.tbl, r); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			tb.Fatal(err)
		}
	}
	unit, err := f.store.CreateUnit(f.seg.Obj(), f.seg.Tenant(), 0, blocks)
	if err != nil {
		tb.Fatal(err)
	}
	unit.Attach(f.eng.BuildIMCU(f.target(), unit))
	return f, unit
}

// updateRows changes one number and one varchar column of n distinct random
// rows in one transaction; its commit invalidates them. With patched the two
// columns are n1 and c1 in every row, as in the bench, and the commit says what
// changed.
func (f *mergeFixture) updateRows(tb testing.TB, rng *rand.Rand, rows, n int, patched bool) {
	tb.Helper()
	tx := f.c.Instance(0).Begin()
	perBlock := f.seg.RowsPerBlock()
	for _, id := range rng.Perm(rows)[:n] {
		num, str := rng.Int63n(wideDomain), wideValue(rng)
		ns, ss := 1+rng.Intn(wideCols), rng.Intn(wideCols)
		if patched {
			ns, ss = 1, 0
		}
		cols := []uint16{uint16(ns), uint16(1 + wideCols + ss)}
		err := tx.UpdateByID(f.tbl, int64(id), cols, func(r *rowstore.Row) {
			r.Nums[ns] = num
			r.Strs[ss] = str
		})
		if err != nil {
			tb.Fatal(err)
		}
		if patched {
			after, _ := f.seg.Block(rowstore.BlockNo(id/perBlock)).LatestImage(uint16(id%perBlock), f.c.Txns())
			f.patches = append(f.patches, Patch{Row: after, Cols: cols})
		}
	}
	if _, err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
}

// repopulate runs one repopulation of unit as a population worker does.
func (f *mergeFixture) repopulate(tb testing.TB, unit *Unit) (imcu *IMCU, reread int) {
	if !unit.BeginRepopulate() {
		tb.Fatal("BeginRepopulate refused")
	}
	imcu, reread = f.eng.build(f.target(), unit, true, &f.sc)
	unit.Attach(imcu)
	return imcu, reread
}

const benchUnitRows = 7143 // 50 000 bench rows over 7 units

var benchSink *IMCU

// BenchmarkBuildIMCU is the full build of one bench-table unit through the
// exported entry point bench/'s imcs.build_ms_per_unit probe calls.
func BenchmarkBuildIMCU(b *testing.B) {
	f, unit := newWideFixture(b, benchUnitRows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = f.eng.BuildIMCU(f.target(), unit)
	}
}

// BenchmarkRepopulate is one repopulation by merge of the same unit after a
// given share of its rows changed; -delta after changes of two columns, the
// same in every row, that the unit's delta explains.
func BenchmarkRepopulate(b *testing.B) {
	for _, pct := range []float64{1, 12.5, 50, -12.5} {
		name, patched := fmt.Sprintf("%gpct", pct), pct < 0
		if patched {
			pct = -pct
			name = fmt.Sprintf("%gpct-delta", pct)
		}
		b.Run(name, func(b *testing.B) {
			f, unit := newWideFixture(b, benchUnitRows)
			rng := rand.New(rand.NewSource(2))
			changed := int(float64(benchUnitRows) * pct / 100)
			reread := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				f.updateRows(b, rng, benchUnitRows, changed, patched)
				// Keep the update's garbage out of the measurement: without
				// this the collector runs beside most merges.
				f.seg.ForEachBlock(func(b *rowstore.Block) bool { b.Vacuum(f.c.Snapshot(), f.c.Txns()); return true })
				runtime.GC()
				b.StartTimer()
				benchSink, reread = f.repopulate(b, unit)
			}
			b.ReportMetric(float64(reread), "rows_reread/op")
		})
	}
}

// --- merge ≡ full build --------------------------------------------------------

func smallColumns() []rowstore.Column {
	return []rowstore.Column{
		{Name: "id", Kind: rowstore.KindNumber},
		{Name: "n1", Kind: rowstore.KindNumber},
		{Name: "n2", Kind: rowstore.KindNumber},
		{Name: "c1", Kind: rowstore.KindVarchar},
		{Name: "c2", Kind: rowstore.KindVarchar},
	}
}

// fixedSnapshot makes an engine build at one given SCN.
type fixedSnapshot scn.SCN

func (s fixedSnapshot) CaptureSnapshot() scn.SCN { return scn.SCN(s) }

// hookedSnapshot runs before and after around the commit-gate capture, so a
// test can place commits on either side of a build's snapshot.
type hookedSnapshot struct {
	c             *primary.Cluster
	before, after func()
}

func (h *hookedSnapshot) CaptureSnapshot() scn.SCN {
	if h.before != nil {
		h.before()
	}
	s := h.c.Snapshot()
	if h.after != nil {
		h.after()
	}
	return s
}

// fullBuildAt is the reference: every row of the unit read at snap.
func (f *mergeFixture) fullBuildAt(unit *Unit, snap scn.SCN) *IMCU {
	ref := NewEngine(f.store, f.c.Txns(), fixedSnapshot(snap), nil, Config{})
	return ref.BuildIMCU(f.target(), unit)
}

// sameImage reports the first difference between two IMCUs of one unit,
// position by position, encodings and storage indexes included.
func sameImage(got, want *IMCU) error {
	if got.SnapSCN != want.SnapSCN || got.nRows != want.nRows {
		return fmt.Errorf("snapshot/rows %d/%d, want %d/%d", got.SnapSCN, got.nRows, want.SnapSCN, want.nRows)
	}
	if fmt.Sprint(got.blockRows) != fmt.Sprint(want.blockRows) || fmt.Sprint(got.rowBase) != fmt.Sprint(want.rowBase) {
		return fmt.Errorf("blockRows %v, want %v", got.blockRows, want.blockRows)
	}
	if fmt.Sprint(got.present) != fmt.Sprint(want.present) {
		return fmt.Errorf("present %x, want %x", got.present, want.present)
	}
	for s := range want.numCols {
		g, w := got.numCols[s], want.numCols[s]
		if g.n != w.n || g.min != w.min || g.max != w.max || g.useRLE != w.useRLE || g.MemSize() != w.MemSize() {
			return fmt.Errorf("number column %d: n/min/max/rle %d/%d/%d/%v, want %d/%d/%d/%v", s, g.n, g.min, g.max, g.useRLE, w.n, w.min, w.max, w.useRLE)
		}
		for i := 0; i < w.n; i++ {
			if g.Get(i) != w.Get(i) {
				return fmt.Errorf("number column %d row %d: %d, want %d", s, i, g.Get(i), w.Get(i))
			}
		}
	}
	for s := range want.strCols {
		g, w := got.strCols[s], want.strCols[s]
		gv, wv := heldValues(g), heldValues(w)
		if g.n != w.n || fmt.Sprintf("%q", gv) != fmt.Sprintf("%q", wv) {
			return fmt.Errorf("varchar column %d: n %d values %q, want %d %q", s, g.n, gv, w.n, wv)
		}
		if g.codes.width > w.codes.width {
			return fmt.Errorf("varchar column %d: codes %d bits wide, want at most %d", s, g.codes.width, w.codes.width)
		}
		if gmn, gmx := g.MinMax(); fmt.Sprint(g.MinMax()) != fmt.Sprint(w.MinMax()) {
			return fmt.Errorf("varchar column %d: bounds [%q,%q], want %q", s, gmn, gmx, fmt.Sprint(w.MinMax()))
		}
		for i := 0; i < w.n; i++ {
			if g.Get(i) != w.Get(i) {
				return fmt.Errorf("varchar column %d row %d: %q, want %q", s, i, g.Get(i), w.Get(i))
			}
		}
	}
	return nil
}

// heldValues lists the values a varchar column holds, in dictionary order:
// its dictionary, were it one of its own.
func heldValues(c *StrColumn) []string {
	var out []string
	for code, v := range c.dict.vals {
		if c.holds(int64(code)) {
			out = append(out, v)
		}
	}
	return out
}

// history drives seeded random transactions against a mergeFixture's table.
type history struct {
	f    *mergeFixture
	rng  *rand.Rand
	rids []rowstore.RowID // every row ever inserted, deleted ones too
	next int64            // next identity
	open []*txn.Txn       // transactions in flight
	// touched collects the rows of transactions committed since the test
	// last cleared it.
	touched map[rowstore.RowID]bool
	rowsOf  map[*txn.Txn][]rowstore.RowID
	// patchesOf, when patched is set, says statement by statement what a
	// transaction changed, and its commit hands that to the column store.
	patched   bool
	patchesOf map[*txn.Txn][]Patch
}

func newHistory(f *mergeFixture, seed int64) *history {
	return &history{f: f, rng: rand.New(rand.NewSource(seed)),
		touched: map[rowstore.RowID]bool{}, rowsOf: map[*txn.Txn][]rowstore.RowID{},
		patchesOf: map[*txn.Txn][]Patch{}}
}

// did records one statement of tx on rid.
func (h *history) did(tx *txn.Txn, rid rowstore.RowID, p Patch) {
	h.rowsOf[tx] = append(h.rowsOf[tx], rid)
	h.patchesOf[tx] = append(h.patchesOf[tx], p)
}

// value draws from a small domain, so that the last reference to a dictionary
// entry often disappears, and sometimes mints a value never seen before.
func (h *history) value() string {
	if h.rng.Intn(8) == 0 {
		return fmt.Sprintf("new-%d-long-enough-to-leave-the-sort-key", h.rng.Int63())
	}
	return []string{"", "a", "b", "blue", "green", "sortkey-tie-1", "sortkey-tie-2"}[h.rng.Intn(7)]
}

// transact runs one transaction of a few random statements and leaves it open.
func (h *history) transact(t *testing.T) {
	schema := h.f.tbl.Schema()
	tx := h.f.c.Instance(0).Begin()
	for k := h.rng.Intn(4) + 1; k > 0; k-- {
		switch op := h.rng.Intn(10); {
		case op < 3 || len(h.rids) == 0: // insert
			r := rowstore.NewRow(schema)
			r.Nums[0], r.Nums[1], r.Nums[2] = h.next, h.rng.Int63n(50)-25, h.rng.Int63n(3)
			r.Strs[0], r.Strs[1] = h.value(), h.value()
			h.next++
			rid, err := tx.Insert(h.f.tbl, r)
			if err != nil {
				t.Fatal(err)
			}
			h.rids = append(h.rids, rid)
			h.did(tx, rid, Patch{})
		case op < 9: // update one or several columns
			rid := h.rids[h.rng.Intn(len(h.rids))]
			n1, c1, many := h.rng.Int63n(50)-25, h.value(), h.rng.Intn(2) == 0
			c2 := h.value()
			blk := h.f.seg.Block(rid.DBA.Block())
			if _, ok := blk.LatestImage(rid.Slot, h.f.c.Txns()); !ok {
				continue // deleted
			}
			cols := []uint16{1}
			if many {
				cols = []uint16{1, 3, 4}
			}
			err := tx.UpdateAt(h.f.tbl, rid, cols, func(r *rowstore.Row) {
				r.Nums[1] = n1
				if many {
					r.Strs[0], r.Strs[1] = c1, c2
				}
			})
			if err == nil {
				after, _ := blk.LatestImage(rid.Slot, h.f.c.Txns())
				h.did(tx, rid, Patch{Row: after, Cols: cols})
			} else if err != rowstore.ErrRowLocked {
				t.Fatal(err)
			}
		default: // delete
			rid := h.rids[h.rng.Intn(len(h.rids))]
			blk := h.f.seg.Block(rid.DBA.Block())
			if img, ok := blk.LatestImage(rid.Slot, h.f.c.Txns()); ok {
				if err := tx.DeleteByID(h.f.tbl, img.Num(0)); err == nil {
					h.did(tx, rid, Patch{Deleted: true})
				}
			}
		}
	}
	h.open = append(h.open, tx)
}

// finish commits (mostly) or aborts one open transaction.
func (h *history) finish(t *testing.T) {
	if len(h.open) == 0 {
		return
	}
	i := h.rng.Intn(len(h.open))
	tx := h.open[i]
	h.open = append(h.open[:i], h.open[i+1:]...)
	if h.rng.Intn(4) == 0 {
		if err := tx.Abort(); err != nil {
			t.Fatal(err)
		}
	} else {
		if h.patched {
			h.f.patches = h.patchesOf[tx]
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, rid := range h.rowsOf[tx] {
			h.touched[rid] = true
		}
	}
	delete(h.rowsOf, tx)
	delete(h.patchesOf, tx)
}

func (h *history) step(t *testing.T) {
	if h.rng.Intn(3) > 0 || len(h.open) > 4 {
		h.finish(t)
	} else {
		h.transact(t)
	}
}

// TestMergeEqualsFullBuild: over seeded random histories — inserts filling and
// extending the unit's range, updates, deletes, aborts, transactions in flight
// across snapshots, dictionary values appearing and losing their last
// reference, commits landing between BeginRepopulate, the capture, the bitmap
// copy and Attach, and a concurrent invalidator — every repopulation by merge
// yields the image a full build at the same snapshot yields, and the SMU it
// leaves marks every row committed after that snapshot. Every other history's
// commits say what they changed, as a standby's flush does, so that its merges
// are fed from the unit's delta, carry entries over Attach, and re-read only
// what the delta does not explain.
func TestMergeEqualsFullBuild(t *testing.T) {
	var patched int64
	for seed := int64(1); seed <= 40; seed++ {
		f := newMergeFixture(t, smallColumns(), 8, Config{})
		h := newHistory(f, seed)
		h.patched = seed%2 == 0
		for len(h.rids) < 20 {
			h.transact(t)
			h.finish(t)
		}
		snap := &hookedSnapshot{c: f.c}
		f.eng = NewEngine(f.store, f.c.Txns(), snap, nil, Config{})
		unit, err := f.store.CreateUnit(f.seg.Obj(), f.seg.Tenant(), 0, 6)
		if err != nil {
			t.Fatal(err)
		}
		unit.Attach(f.eng.BuildIMCU(f.target(), unit))

		// The invalidator marks rows that did not change, a few per round and
		// while the round's build runs: over-invalidation must not show in the
		// image.
		kick, done := make(chan struct{}, 1), make(chan struct{})
		go func() {
			defer close(done)
			rng := rand.New(rand.NewSource(seed))
			for range kick {
				for k := 0; k < 6; k++ {
					unit.InvalidateRows(rowstore.BlockNo(rng.Intn(6)), []uint16{uint16(rng.Intn(8))})
				}
			}
		}()

		merges := 0
		for round := 0; round < 12; round++ {
			for k := h.rng.Intn(6); k > 0; k-- {
				h.step(t)
			}
			if !unit.BeginRepopulate() {
				t.Fatal("BeginRepopulate refused")
			}
			kick <- struct{}{}
			h.step(t) // after BeginRepopulate, before the capture
			snap.before = func() { h.step(t) }
			snap.after = func() { clear(h.touched); h.step(t) } // after the capture, before the bitmap copy
			imcu, reread := f.eng.build(f.target(), unit, true, &f.sc)
			snap.before, snap.after = nil, nil
			// The reference reads the blocks as the merge found them: a later
			// insert would add a slot (absent at this snapshot) to the layout.
			if err := sameImage(imcu, f.fullBuildAt(unit, imcu.SnapSCN)); err != nil {
				t.Fatalf("seed %d round %d: merged image differs from the full build at SCN %d: %v", seed, round, imcu.SnapSCN, err)
			}
			h.step(t) // after the build, before Attach
			unit.Attach(imcu)
			if reread < imcu.Rows() {
				merges++
			}
			_, invalid, usable := unit.ScanView()
			if !usable {
				t.Fatalf("seed %d round %d: unit unusable after a merge", seed, round)
			}
			for rid := range h.touched {
				if idx, ok := imcu.RowIndexOf(rid.DBA.Block(), rid.Slot); ok && invalid[idx/64]&(1<<(idx%64)) == 0 {
					t.Fatalf("seed %d round %d: row %v committed after SCN %d is valid in the new image", seed, round, rid, imcu.SnapSCN)
				}
			}
		}
		close(kick)
		<-done
		if merges == 0 {
			t.Fatalf("seed %d: no repopulation carried a row over", seed)
		}
		if st := f.eng.Stats(); h.patched {
			patched += st.ColsPatched
		} else if st.ColsPatched != 0 {
			t.Fatalf("seed %d: %d values patched from a delta nothing fed", seed, st.ColsPatched)
		}
	}
	if patched < 100 {
		t.Fatalf("merges took %d column values from deltas, want hundreds", patched)
	}
}

// TestMergeSharesUntouchedColumns: when the delta explains every invalid row
// and no block grew, a merge re-encodes the columns the delta names and takes
// every other column object over from the old image — and still yields the
// image a full build at its snapshot yields. One row read again, or one row
// more, and nothing is shared.
func TestMergeSharesUntouchedColumns(t *testing.T) {
	const rows = 64 * 16
	f, unit := newWideFixture(t, rows)
	rng := rand.New(rand.NewSource(5))
	old, _, _ := unit.ScanView()
	const ns, ss = 3, 7 // the two columns the updates touch: n3 and c8
	update := func(n int) {
		tx := f.c.Instance(0).Begin()
		for _, id := range rng.Perm(rows)[:n] {
			cols := []uint16{ns, 1 + wideCols + ss}
			err := tx.UpdateByID(f.tbl, int64(id), cols, func(r *rowstore.Row) {
				r.Nums[ns], r.Strs[ss] = rng.Int63n(wideDomain), wideValue(rng)
			})
			if err != nil {
				t.Fatal(err)
			}
			after, _ := f.seg.Block(rowstore.BlockNo(id/16)).LatestImage(uint16(id%16), f.c.Txns())
			f.patches = append(f.patches, Patch{Row: after, Cols: cols})
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	shared := func(imcu *IMCU) (n int) {
		for s := range imcu.numCols {
			if imcu.numCols[s] == old.numCols[s] {
				n++
			}
		}
		for s := range imcu.strCols {
			if imcu.strCols[s] == old.strCols[s] {
				n++
			}
		}
		return n
	}

	update(100)
	if st := unit.Stats(); st.InvalidRows != 100 || st.OpaqueRows != 0 || st.DeltaEntries != 200 {
		t.Fatalf("after 100 two-column updates: %+v", st)
	}
	imcu, reread := f.repopulate(t, unit)
	if err := sameImage(imcu, f.fullBuildAt(unit, imcu.SnapSCN)); err != nil {
		t.Fatal(err)
	}
	if n := shared(imcu); reread != 0 || n != 2*wideCols-1 || imcu.numCols[ns] == old.numCols[ns] || imcu.strCols[ss] == old.strCols[ss] {
		t.Fatalf("delta-fed merge: %d rows read again, %d of %d columns shared", reread, n, 1+2*wideCols)
	}
	if st := unit.Stats(); st.InvalidRows != 0 || st.DeltaEntries != 0 {
		t.Fatalf("after the merge: %+v", st)
	}

	// An opaque row is read again, and then every column is encoded again.
	old = imcu
	update(50)
	unit.InvalidateRows(3, []uint16{5})
	imcu, reread = f.repopulate(t, unit)
	if err := sameImage(imcu, f.fullBuildAt(unit, imcu.SnapSCN)); err != nil {
		t.Fatal(err)
	}
	if n := shared(imcu); reread != 1 || n != 0 {
		t.Fatalf("merge with an opaque row: %d rows read again, %d columns shared", reread, n)
	}
}

// TestMergeFallsBackToFullBuild: a coarse-invalid unit, a snapshot older than
// the image's, a schema change and a truncate each leave nothing to carry over.
func TestMergeFallsBackToFullBuild(t *testing.T) {
	f := newMergeFixture(t, smallColumns(), 8, Config{})
	h := newHistory(f, 1)
	for len(h.rids) < 30 {
		h.transact(t)
		h.finish(t)
	}
	unit, err := f.store.CreateUnit(f.seg.Obj(), f.seg.Tenant(), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	unit.Attach(f.eng.BuildIMCU(f.target(), unit))
	if imcu, reread := f.repopulate(t, unit); reread >= imcu.Rows() {
		t.Fatalf("clean unit: read %d of %d rows again", reread, imcu.Rows())
	}

	unit.InvalidateAll()
	imcu, reread := f.repopulate(t, unit)
	if reread != imcu.Rows() {
		t.Fatalf("coarse-invalid unit: read %d of %d rows", reread, imcu.Rows())
	}
	if _, _, usable := unit.ScanView(); !usable {
		t.Fatal("unit still coarse-invalid after a covering rebuild")
	}

	// An image of a later snapshot than the build's has nothing to carry over.
	past := NewEngine(f.store, f.c.Txns(), fixedSnapshot(imcu.SnapSCN-1), nil, Config{})
	if !unit.BeginRepopulate() {
		t.Fatal("BeginRepopulate refused")
	}
	older, reread := past.build(f.target(), unit, true, &f.sc)
	unit.Attach(older)
	if reread != older.Rows() {
		t.Fatalf("snapshot before the image's: read %d of %d rows", reread, older.Rows())
	}

	dropped, err := f.tbl.Schema().DropColumn("n2")
	if err != nil {
		t.Fatal(err)
	}
	f.tbl.SetSchema(dropped)
	imcu, reread = f.repopulate(t, unit)
	if reread != imcu.Rows() || imcu.Schema() != dropped {
		t.Fatalf("after DDL: read %d of %d rows, schema current = %v", reread, imcu.Rows(), imcu.Schema() == dropped)
	}

	f.seg.Truncate()
	imcu, reread = f.repopulate(t, unit)
	if imcu.Rows() != 0 || reread != 0 {
		t.Fatalf("after truncate: %d rows, %d read", imcu.Rows(), reread)
	}
}

// TestAbsentSlotsLeaveNoTrace: a slot with no visible row at the snapshot adds
// no "" to the dictionaries and does not widen a number column's bounds.
func TestAbsentSlotsLeaveNoTrace(t *testing.T) {
	f := newMergeFixture(t, smallColumns(), 8, Config{})
	schema := f.tbl.Schema()
	insert := func(tx *txn.Txn, id, n1 int64, c1 string) {
		r := rowstore.NewRow(schema)
		r.Nums[0], r.Nums[1], r.Nums[2] = id, n1, 7
		r.Strs[0], r.Strs[1] = c1, "x"
		if _, err := tx.Insert(f.tbl, r); err != nil {
			t.Fatal(err)
		}
	}
	tx := f.c.Instance(0).Begin()
	for i := int64(0); i < 10; i++ {
		insert(tx, 100+i, 40+i, []string{"red", "green", "blue"}[i%3])
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	inflight := f.c.Instance(0).Begin()
	insert(inflight, 999, -5, "")
	defer func() { _ = inflight.Abort() }()

	unit, err := f.store.CreateUnit(f.seg.Obj(), f.seg.Tenant(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	imcu := f.eng.BuildIMCU(f.target(), unit)
	if imcu.Rows() != 11 || imcu.Present(10) {
		t.Fatalf("rows = %d, slot 10 present = %v; want 11 with the in-flight insert absent", imcu.Rows(), imcu.Present(10))
	}
	for s, want := range [][2]int64{{100, 109}, {40, 49}, {7, 7}} {
		if mn, mx := imcu.NumCol(s).MinMax(); mn != want[0] || mx != want[1] {
			t.Errorf("number column %d bounds [%d,%d], want %v", s, mn, mx, want)
		}
	}
	if got := fmt.Sprintf("%q", heldValues(imcu.StrCol(0))); got != `["blue" "green" "red"]` {
		t.Errorf("c1 values %s", got)
	}
	if got := fmt.Sprintf("%q", heldValues(imcu.StrCol(1))); got != `["x"]` {
		t.Errorf("c2 values %s", got)
	}
	// The same after a merge that reads only the gap again.
	unit.Attach(imcu)
	merged, reread := f.repopulate(t, unit)
	if reread != 1 {
		t.Fatalf("merge read %d rows, want the gap alone", reread)
	}
	if err := sameImage(merged, f.fullBuildAt(unit, merged.SnapSCN)); err != nil {
		t.Fatal(err)
	}
}

// --- allocation and row-store read guards ----------------------------------------

// allocsPerColumn bounds a build's allocations: a column keeps its struct, its
// packed words and, if varchar, its dictionary.
const allocsPerColumn, allocsPerBuild = 6, 40

func TestAllocsPerRunBuildIMCU(t *testing.T) {
	f, unit := newWideFixture(t, 64*16)
	f.eng.build(f.target(), unit, false, &f.sc) // grow the scratch
	got := testing.AllocsPerRun(5, func() { benchSink, _ = f.eng.build(f.target(), unit, false, &f.sc) })
	if limit := float64(allocsPerColumn*(1+2*wideCols) + allocsPerBuild); got > limit {
		t.Fatalf("full build of a 64-block unit: %.0f allocations, want <= %.0f", got, limit)
	}
}

func TestAllocsPerRunMergeIMCU(t *testing.T) {
	const rows, stale = 64 * 16, 100
	f, unit := newWideFixture(t, rows)
	rng := rand.New(rand.NewSource(3))
	invalidate := func() {
		for _, id := range rng.Perm(rows)[:stale] {
			f.store.InvalidateRows(f.seg.Obj(), rowstore.BlockNo(id/16), []uint16{uint16(id % 16)})
		}
	}
	invalidate()
	f.repopulate(t, unit)
	got := testing.AllocsPerRun(5, func() {
		invalidate()
		benchSink, _ = f.repopulate(t, unit)
	})
	// rng.Perm allocates once.
	if limit := float64(allocsPerColumn*(1+2*wideCols) + allocsPerBuild + 1); got > limit {
		t.Fatalf("merge of a 64-block unit: %.0f allocations, want <= %.0f", got, limit)
	}

	// The row store is read for the re-read set and nothing else. The fixture's
	// first build resolved every version's writer and left its commitSCN on the
	// version, so re-reading rows nobody wrote since asks the transaction table
	// nothing; rows updated since cost one lookup each, for the new version.
	invalidate()
	f.view.lookups.Store(0)
	_, reread := f.repopulate(t, unit)
	if lookups := int(f.view.lookups.Load()); reread != stale || lookups != 0 {
		t.Fatalf("merge with %d invalid rows: re-read set %d, transaction-table lookups %d, want 0", stale, reread, lookups)
	}
	f.updateRows(t, rng, rows, stale, false)
	_, reread = f.repopulate(t, unit)
	if lookups := int(f.view.lookups.Load()); reread != stale || lookups != stale {
		t.Fatalf("merge with %d updated rows: re-read set %d, transaction-table lookups %d", stale, reread, lookups)
	}
	f.view.lookups.Store(0)
	f.eng.BuildIMCU(f.target(), unit)
	if lookups := int(f.view.lookups.Load()); lookups != 0 {
		t.Fatalf("full build of %d rows all resolved before: %d transaction-table lookups", rows, lookups)
	}
}
