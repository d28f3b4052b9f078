package checkpoint_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"dbimadg/internal/checkpoint"
	"dbimadg/internal/imcs"
	"dbimadg/internal/primary"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// prisnap adapts the primary cluster's snapshot to the population engine.
type prisnap struct{ c *primary.Cluster }

func (p prisnap) CaptureSnapshot() scn.SCN { return p.c.Snapshot() }

// dictVals is the domain of the dictionary-encoded varchar column.
var dictVals = []string{"amber", "blue", "green", "red", "violet"}

// fixture is a populated store whose table's columns force every column
// encoding the codec can produce:
//
//	id      — sequential, run length 1           → plain FOR bit-packed
//	n_run   — i/16, average run length 16        → RLE
//	n_rand  — multiplicative hash of i           → plain bit-packed, wide
//	c_const — single value                       → dictionary, width-0 codes
//	c_dict  — 5 values                           → dictionary, packed codes
type fixture struct {
	c     *primary.Cluster
	tbl   *rowstore.Table
	store *imcs.Store
	eng   *imcs.Engine
}

func newFixture(t testing.TB, rows int64) *fixture {
	t.Helper()
	c := primary.NewCluster(1, 16)
	tbl, err := c.Instance(0).CreateTable(&rowstore.TableSpec{
		Name:   "T",
		Tenant: 1,
		Columns: []rowstore.Column{
			{Name: "id", Kind: rowstore.KindNumber},
			{Name: "n_run", Kind: rowstore.KindNumber},
			{Name: "n_rand", Kind: rowstore.KindNumber},
			{Name: "c_const", Kind: rowstore.KindVarchar},
			{Name: "c_dict", Kind: rowstore.KindVarchar},
		},
		IdentityCol:  0,
		PartitionCol: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Schema()
	tx := c.Instance(0).Begin()
	for i := int64(0); i < rows; i++ {
		r := rowstore.NewRow(s)
		r.Nums[s.Col(0).Slot()] = i
		r.Nums[s.Col(1).Slot()] = i / 16
		r.Nums[s.Col(2).Slot()] = (i * 2654435761) % 100003
		r.Strs[s.Col(3).Slot()] = "only"
		r.Strs[s.Col(4).Slot()] = dictVals[i%int64(len(dictVals))]
		if _, err := tx.Insert(tbl, r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	store := imcs.NewStore()
	targets := func() []imcs.Target {
		return []imcs.Target{{Seg: tbl.Segments()[0], Table: tbl}}
	}
	// No scheduler tick in a test's lifetime: WaitIdle's own passes schedule
	// every build, so none starts while a test is still invalidating rows.
	eng := imcs.NewEngine(store, c.Txns(), prisnap{c}, targets, imcs.Config{BlocksPerIMCU: 4, Workers: 2, Interval: time.Hour})
	eng.Start()
	t.Cleanup(eng.Stop)
	if !eng.WaitIdle(5 * time.Second) {
		t.Fatal("population did not reach idle")
	}
	return &fixture{c: c, tbl: tbl, store: store, eng: eng}
}

func (f *fixture) resolve(obj rowstore.ObjID) *rowstore.Schema {
	if f.tbl.Segments()[0].Obj() == obj {
		return f.tbl.Schema()
	}
	return nil
}

// writeCheckpoint captures the fixture's store and writes one checkpoint,
// returning the captured images alongside the written meta.
func writeCheckpoint(t testing.TB, f *fixture, dir string) ([]imcs.UnitImage, checkpoint.Meta) {
	t.Helper()
	images := f.store.CaptureImages()
	if len(images) == 0 {
		t.Fatal("no images captured")
	}
	at := f.c.Snapshot()
	meta, err := checkpoint.Write(dir, checkpoint.Meta{SCN: at, Watermark: at, JournalSCN: at}, images)
	if err != nil {
		t.Fatal(err)
	}
	return images, meta
}

// TestCheckpointRoundTripEncodings checks the satellite-3 property: a
// checkpoint written from a live store and loaded back yields scans
// byte-identical to the live store at the checkpoint SCN, across every
// column encoding (plain bit-packed, RLE, constant-width dictionary codes,
// packed dictionary codes) plus the validity bitmaps.
func TestCheckpointRoundTripEncodings(t *testing.T) {
	checkRoundTrip(t, newFixture(t, 200))
}

// TestCheckpointRoundTripMergedUnits repeats the round trip over units that
// repopulation has merged twice: their columns were re-encoded from carried
// and re-read values, their dictionaries merged, pruned or shared with the
// image before.
func TestCheckpointRoundTripMergedUnits(t *testing.T) {
	f := newFixture(t, 200)
	s := f.tbl.Schema()
	seg := f.tbl.Segments()[0]
	units := int64(len(f.store.Units(seg.Obj())))
	for round := int64(1); round <= 2; round++ {
		tx := f.c.Instance(0).Begin()
		var rids []rowstore.RowID
		for id := round; id < 200; id += 3 {
			if err := tx.UpdateByID(f.tbl, id, []uint16{1, 2, 4}, func(r *rowstore.Row) {
				r.Nums[s.Col(1).Slot()] += round         // breaks runs
				r.Nums[s.Col(2).Slot()] = -id * round    // widens the frame
				r.Strs[s.Col(4).Slot()] = "zz-new-value" // new to the dictionary; "blue" loses references
			}); err != nil {
				t.Fatal(err)
			}
			rid, _ := f.tbl.Index().Get(id)
			rids = append(rids, rid)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, rid := range rids {
			f.store.InvalidateRows(seg.Obj(), rid.DBA.Block(), []uint16{rid.Slot})
		}
		f.eng.Scan()
		if !f.eng.WaitIdle(5 * time.Second) {
			t.Fatal("repopulation did not reach idle")
		}
		if got := f.eng.Stats().UnitsMerged; got != units*round {
			t.Fatalf("round %d: %d units merged so far, want %d", round, got, units*round)
		}
	}
	checkRoundTrip(t, f)
}

func checkRoundTrip(t *testing.T, f *fixture) {
	t.Helper()
	images := f.store.CaptureImages()
	if len(images) < 2 {
		t.Fatalf("want multiple units, got %d", len(images))
	}
	// Dirty one validity bitmap so the round trip covers a non-trivial one.
	images[0].Invalid[0] |= 1 << 3
	images[0].InvalidRows++

	dir := t.TempDir()
	at := f.c.Snapshot()
	meta, err := checkpoint.Write(dir, checkpoint.Meta{SCN: at, Watermark: at, JournalSCN: at + 1}, images)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Units != len(images) || meta.Bytes <= 0 {
		t.Fatalf("write meta: %+v", meta)
	}
	if fi, err := os.Stat(meta.Path); err != nil || fi.Size() != meta.Bytes {
		t.Fatalf("stat %s: %v size=%v want %d", meta.Path, err, fi, meta.Bytes)
	}

	snap, err := checkpoint.Load(meta.Path, f.resolve)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta.SCN != at || snap.Meta.Watermark != at || snap.Meta.JournalSCN != at+1 {
		t.Fatalf("loaded meta: %+v want scn=%d", snap.Meta, at)
	}
	if snap.SchemaSkipped != 0 || len(snap.Images) != len(images) {
		t.Fatalf("loaded %d images (%d skipped), want %d", len(snap.Images), snap.SchemaSkipped, len(images))
	}

	restored := imcs.NewStore()
	for _, img := range snap.Images {
		if err := restored.RestoreUnit(img); err != nil {
			t.Fatal(err)
		}
	}
	if got := restored.UnitsRestored(); got != int64(len(images)) {
		t.Fatalf("UnitsRestored = %d, want %d", got, len(images))
	}

	// Scan equivalence: every value of every column, every presence bit and
	// every validity word must match the capture.
	obj := f.tbl.Segments()[0].Obj()
	units := restored.Units(obj)
	if len(units) != len(images) {
		t.Fatalf("restored store has %d units, want %d", len(units), len(images))
	}
	s := f.tbl.Schema()
	for ui, u := range units {
		imcu, invalid, ok := u.ScanView()
		if !ok {
			t.Fatalf("unit %d not scannable after restore", ui)
		}
		src := images[ui].IMCU
		if imcu.Rows() != src.Rows() {
			t.Fatalf("unit %d rows = %d, want %d", ui, imcu.Rows(), src.Rows())
		}
		for w := range invalid {
			if invalid[w] != images[ui].Invalid[w] {
				t.Fatalf("unit %d invalid word %d = %#x, want %#x", ui, w, invalid[w], images[ui].Invalid[w])
			}
		}
		for i := 0; i < imcu.Rows(); i++ {
			if imcu.Present(i) != src.Present(i) {
				t.Fatalf("unit %d row %d presence mismatch", ui, i)
			}
			if !imcu.Present(i) {
				continue
			}
			for col := 0; col < 3; col++ {
				slot := s.Col(col).Slot()
				if got, want := imcu.NumCol(slot).Get(i), src.NumCol(slot).Get(i); got != want {
					t.Fatalf("unit %d row %d col %d = %d, want %d", ui, i, col, got, want)
				}
			}
			for col := 3; col < 5; col++ {
				slot := s.Col(col).Slot()
				if got, want := imcu.StrCol(slot).Get(i), src.StrCol(slot).Get(i); got != want {
					t.Fatalf("unit %d row %d col %d = %q, want %q", ui, i, col, got, want)
				}
			}
		}
	}

	// Byte identity: re-encoding the restored store must reproduce the exact
	// byte stream of the original capture (same units, same pool order).
	reimg := restored.CaptureImages()
	if len(reimg) != len(images) {
		t.Fatalf("recapture yielded %d images, want %d", len(reimg), len(images))
	}
	origPool, rePool := imcs.NewStringPool(), imcs.NewStringPool()
	for i := range images {
		orig := imcs.EncodeUnitImage(images[i], origPool)
		re := imcs.EncodeUnitImage(reimg[i], rePool)
		if !bytes.Equal(orig, re) {
			t.Fatalf("unit %d: restored image re-encodes differently (%d vs %d bytes)", i, len(re), len(orig))
		}
	}
	if !bytes.Equal(imcs.EncodeStringPool(origPool), imcs.EncodeStringPool(rePool)) {
		t.Fatal("restored string pool diverges from original")
	}
}

// TestCheckpointCorruptionDetected flips one bit at a sweep of offsets and
// truncates the file at a sweep of lengths; every mutation must make Load
// fail and LoadNewest report ErrNoCheckpoint — the trigger for the caller's
// full-rebuild fallback. Nothing may load a silently wrong store.
func TestCheckpointCorruptionDetected(t *testing.T) {
	f := newFixture(t, 120)
	_, meta := writeCheckpoint(t, f, t.TempDir())
	good, err := os.ReadFile(meta.Path)
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Base(meta.Path)

	check := func(t *testing.T, label string, data []byte) {
		t.Helper()
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := checkpoint.Load(path, f.resolve); err == nil {
			t.Fatalf("%s: Load accepted corrupt file", label)
		}
		// Header-level damage is filtered by List (corrupt == 0); body damage
		// survives to Load and is counted (corrupt == 1). Either way the only
		// outcome may be ErrNoCheckpoint — the full-rebuild fallback trigger.
		snap, corrupt, err := checkpoint.LoadNewest(dir, f.resolve)
		if !errors.Is(err, checkpoint.ErrNoCheckpoint) {
			t.Fatalf("%s: LoadNewest = (%v, %d, %v), want ErrNoCheckpoint", label, snap, corrupt, err)
		}
		if corrupt > 1 {
			t.Fatalf("%s: corrupt count = %d, want 0 or 1", label, corrupt)
		}
	}

	t.Run("bitflip", func(t *testing.T) {
		// Every byte of the file sits under either the whole-file CRC or the
		// trailer sentinel, so a single flipped bit anywhere must be caught.
		for off := 0; off < len(good); off += 131 {
			mut := append([]byte(nil), good...)
			mut[off] ^= 1 << uint(off%8)
			check(t, "bitflip@"+strconv.Itoa(off), mut)
		}
		for _, off := range []int{0, 7, len(good) - 1, len(good) - 5, len(good) - 12} {
			mut := append([]byte(nil), good...)
			mut[off] ^= 0x80
			check(t, "bitflip@"+strconv.Itoa(off), mut)
		}
	})
	t.Run("truncation", func(t *testing.T) {
		// Torn writes: the file ends early at any point.
		for _, n := range []int{0, 1, 20, 51, 52, len(good) / 3, len(good) / 2, len(good) - 13, len(good) - 12, len(good) - 1} {
			check(t, "truncate@"+strconv.Itoa(n), good[:n])
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		check(t, "appended", append(append([]byte(nil), good...), 0xEE))
	})
}

// TestLoadNewestSkipsCorruptToOlder verifies the recovery decision tree's
// middle branch: when the newest checkpoint is corrupt but an older valid one
// exists, LoadNewest restores the older file instead of forcing a rebuild.
func TestLoadNewestSkipsCorruptToOlder(t *testing.T) {
	f := newFixture(t, 120)
	dir := t.TempDir()
	_, older := writeCheckpoint(t, f, dir)

	// Write a newer checkpoint, then corrupt it in place.
	f2 := newFixture(t, 120)
	images := f2.store.CaptureImages()
	newer, err := checkpoint.Write(dir, checkpoint.Meta{SCN: older.SCN + 1000}, images)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(newer.Path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(newer.Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	snap, corrupt, err := checkpoint.LoadNewest(dir, f.resolve)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 1 || snap.Meta.SCN != older.SCN {
		t.Fatalf("LoadNewest picked scn=%d (corrupt=%d), want older scn=%d", snap.Meta.SCN, corrupt, older.SCN)
	}
}

// TestSchemaChangeSkipsUnits: units whose table schema changed between
// checkpoint and load are skipped (they repopulate from the row store), not
// restored against the wrong schema.
func TestSchemaChangeSkipsUnits(t *testing.T) {
	f := newFixture(t, 120)
	_, meta := writeCheckpoint(t, f, t.TempDir())

	other := newFixture(t, 10) // different cluster: same ObjID, different schema instance
	snap, err := checkpoint.Load(meta.Path, func(obj rowstore.ObjID) *rowstore.Schema {
		if f.tbl.Segments()[0].Obj() == obj {
			return other.tbl.Schema() // same shape → fingerprint matches; now drop the table
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Images) == 0 {
		t.Fatal("identical fingerprint should load")
	}

	// Resolve to nil (table dropped): every unit must be skipped, not fail.
	snap, err = checkpoint.Load(meta.Path, func(rowstore.ObjID) *rowstore.Schema { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Images) != 0 || snap.SchemaSkipped != meta.Units {
		t.Fatalf("dropped table: %d images, %d skipped, want 0/%d", len(snap.Images), snap.SchemaSkipped, meta.Units)
	}
}

// TestPruneRetainsNewest: Prune keeps the newest N files and removes stale
// temp files from interrupted writes.
func TestPruneRetainsNewest(t *testing.T) {
	f := newFixture(t, 120)
	dir := t.TempDir()
	images := f.store.CaptureImages()
	var metas []checkpoint.Meta
	for i := 0; i < 4; i++ {
		m, err := checkpoint.Write(dir, checkpoint.Meta{SCN: scn.SCN(100 * (i + 1))}, images)
		if err != nil {
			t.Fatal(err)
		}
		metas = append(metas, m)
	}
	if err := os.WriteFile(filepath.Join(dir, "ckpt-dead.imcs.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	checkpoint.Prune(dir, 2)
	left := checkpoint.List(dir)
	if len(left) != 2 || left[0].SCN != metas[3].SCN || left[1].SCN != metas[2].SCN {
		t.Fatalf("after prune: %+v", left)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 2 {
		t.Fatalf("directory holds %d entries after prune, want 2", len(ents))
	}
}
