package standby_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dbimadg/internal/checkpoint"
	"dbimadg/internal/imcs"
	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
	"dbimadg/internal/standby"
	"dbimadg/internal/testutil"
	"dbimadg/internal/transport"
)

// restart reconnects the standby to the primary's streams, as a crash
// recovery would.
func (p *pair) restart(t *testing.T) {
	t.Helper()
	var streams []*redo.Stream
	for _, inst := range p.pri.Instances() {
		streams = append(streams, inst.Stream())
	}
	if err := p.sby.Restart(transport.NewInProc(streams...)); err != nil {
		t.Fatalf("restart: %v", err)
	}
}

// TestRestartRestoresFromCheckpoint is the snapshot-then-redo-catch-up path
// end to end: checkpoint, keep committing, restart — the store must come back
// from the snapshot (restored units, no fallback) and redo past the
// checkpoint SCN must be replayed so post-checkpoint rows and updates are
// visible.
func TestRestartRestoresFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	p := newPair(t, 1, standby.Config{SnapshotDir: dir, SnapshotInterval: time.Hour}, "standby")
	p.insert(t, 0, 400)
	p.catchUp(t)
	if !p.sby.Engine().WaitIdle(10 * time.Second) {
		t.Fatal("population did not settle")
	}

	meta, err := p.sby.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Units == 0 || meta.Bytes == 0 {
		t.Fatalf("empty checkpoint: %+v", meta)
	}
	if rp := p.sby.ResumePoint(); rp != meta.SCN {
		t.Fatalf("ResumePoint = %d, want checkpoint SCN %d", rp, meta.SCN)
	}

	// Churn past the checkpoint: inserts and an update that dirties a row
	// already captured in the snapshot.
	p.insert(t, 400, 500)
	s := p.tbl.Schema()
	tx := p.pri.Instance(0).Begin()
	if err := tx.UpdateByID(p.tbl, 5, []uint16{1}, func(r *rowstore.Row) {
		r.Nums[s.Col(1).Slot()] = 9999
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	p.catchUp(t)

	p.restart(t)
	p.catchUp(t)

	if got := p.sby.Store().UnitsRestored(); got == 0 {
		t.Fatal("restart did not restore any units from the checkpoint")
	}
	cs := p.sby.CheckpointStats()
	if cs.Restores != 1 || cs.RestoreFallbacks != 0 {
		t.Fatalf("checkpoint stats after restart: %+v", cs)
	}
	if cs.LastRestoreSCN != uint64(meta.SCN) {
		t.Fatalf("restored from SCN %d, want %d", cs.LastRestoreSCN, meta.SCN)
	}

	// Redo catch-up correctness: all 500 rows visible, update applied.
	sTbl := p.sbyTable(t)
	ex := scanengine.NewExecutor(p.sby.Txns(), p.sby.Store())
	res, err := ex.Run(&scanengine.Query{Table: sTbl}, p.sby.QuerySCN())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 500 {
		t.Fatalf("rows after checkpoint restart = %d, want 500", len(res.Rows))
	}
	res, err = ex.Run(&scanengine.Query{
		Table:   sTbl,
		Filters: []scanengine.Filter{scanengine.EqNum(1, 9999)},
	}, p.sby.QuerySCN())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("post-checkpoint update: %d rows match, want 1", len(res.Rows))
	}
}

// TestRestartCorruptCheckpointFallsBack: a damaged snapshot must be detected
// and the restart must degrade to the full row-store rebuild — never restore
// wrong bytes — while still ending correct and counting the fallback.
func TestRestartCorruptCheckpointFallsBack(t *testing.T) {
	dir := t.TempDir()
	p := newPair(t, 1, standby.Config{SnapshotDir: dir, SnapshotInterval: time.Hour}, "standby")
	p.insert(t, 0, 300)
	p.catchUp(t)
	if !p.sby.Engine().WaitIdle(10 * time.Second) {
		t.Fatal("population did not settle")
	}
	meta, err := p.sby.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(meta.Path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40 // bit flip in a unit payload
	if err := os.WriteFile(meta.Path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	p.restart(t)
	if !p.sby.Engine().WaitIdle(10 * time.Second) {
		t.Fatal("full rebuild after corrupt snapshot did not settle")
	}
	p.catchUp(t)

	if got := p.sby.Store().UnitsRestored(); got != 0 {
		t.Fatalf("%d units restored from a corrupt checkpoint", got)
	}
	cs := p.sby.CheckpointStats()
	if cs.Restores != 0 || cs.RestoreFallbacks == 0 {
		t.Fatalf("checkpoint stats after corrupt restart: %+v", cs)
	}
	sTbl := p.sbyTable(t)
	ex := scanengine.NewExecutor(p.sby.Txns(), p.sby.Store())
	res, err := ex.Run(&scanengine.Query{Table: sTbl}, p.sby.QuerySCN())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 300 {
		t.Fatalf("rows after fallback rebuild = %d, want 300", len(res.Rows))
	}
}

// TestCheckpointerNoGoroutineLeak: the background checkpointer must not leak
// goroutines across Restart (which tears it down and rebuilds it) or Stop.
func TestCheckpointerNoGoroutineLeak(t *testing.T) {
	dir := t.TempDir()
	p := newPair(t, 1, standby.Config{SnapshotDir: dir, SnapshotInterval: 2 * time.Millisecond}, "standby")
	p.insert(t, 0, 100)
	p.catchUp(t)

	// Let the background loop take at least one checkpoint on its own.
	deadline := time.Now().Add(5 * time.Second)
	for p.sby.Checkpointer().Cycles() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never cycled")
		}
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < 2; i++ {
		p.restart(t)
		p.insert(t, int64(100+10*i), int64(110+10*i))
		p.catchUp(t)
	}

	p.sby.Stop() // the t.Cleanup Stop is a no-op second call
	testutil.NoGoroutineLeak(t, "dbimadg/")
}

// TestReplayedBeginKeepsCommit replays redo the standby has already applied:
// a restart from a checkpoint re-applies the begin and the changes of a
// transaction the row store and the transaction table hold as committed, and —
// the replacement source ending just short of the commit record — stays there,
// as a replay does for as long as it has not reached the commit again. The
// transaction must stay committed and its rows visible at the snapshots that
// showed them before: readers have cached its commitSCN on its row versions.
func TestReplayedBeginKeepsCommit(t *testing.T) {
	p := newPair(t, 1, standby.Config{SnapshotDir: t.TempDir(), SnapshotInterval: time.Hour}, "standby")
	p.insert(t, 0, 200)
	p.catchUp(t)
	if !p.sby.Engine().WaitIdle(10 * time.Second) {
		t.Fatal("population did not settle")
	}
	meta, err := p.sby.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}

	s := p.tbl.Schema()
	tx := p.pri.Instance(0).Begin()
	id := tx.ID()
	for row := int64(0); row < 200; row += 7 {
		if err := tx.UpdateByID(p.tbl, row, []uint16{1}, func(r *rowstore.Row) {
			r.Nums[s.Col(1).Slot()] = 5000 + row
		}); err != nil {
			t.Fatal(err)
		}
	}
	commitSCN, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	snap := p.catchUp(t)
	pure := scanengine.NewExecutor(p.sby.Txns())
	want := scanKey(t, pure, p.sbyTable(t), snap)

	// The log again, up to but not including the commit record.
	full := p.pri.Instance(0).Stream()
	short := redo.NewStream(full.Thread())
	for i := 0; ; i++ {
		rec, ok := full.At(i)
		if !ok || rec.SCN >= commitSCN {
			break
		}
		short.Append(rec)
	}
	if short.LastSCN() <= meta.SCN {
		t.Fatalf("nothing to replay: log ends at %d, checkpoint at %d", short.LastSCN(), meta.SCN)
	}
	if err := p.sby.Restart(transport.NewInProc(short)); err != nil {
		t.Fatal(err)
	}
	if !p.sby.WaitForSCN(short.LastSCN(), 10*time.Second) {
		t.Fatalf("replay did not reach %d: QuerySCN=%d", short.LastSCN(), p.sby.QuerySCN())
	}
	if st, c := p.sby.Txns().Lookup(id); st != rowstore.TxnCommitted || c != commitSCN {
		t.Fatalf("after its begin was replayed the transaction is %v at %d, want committed at %d", st, c, commitSCN)
	}
	if got := scanKey(t, pure, p.sbyTable(t), snap); got != want {
		t.Fatalf("row-store scan at %d changed under the replay:\n%s\nwant\n%s", snap, got, want)
	}
}

// TestInstallRefusals walks every refusal of Install to the value its caller
// sees. A standby holds checkpoints a < b below its stopped watermark w; each
// row arranges the directory, the reclaim floor or the source, and then makes
// the choice Restart makes (or calls Install itself), and wants the SCN the
// store goes live at, the error, and the Restores and RestoreFallbacks counts.
// No refusal may leave a pin behind.
func TestInstallRefusals(t *testing.T) {
	type env struct {
		p       *pair
		a, b    checkpoint.Meta
		w       scn.SCN
		resolve func(rowstore.ObjID) *rowstore.Schema
	}
	newest := func(e env) scn.SCN { return e.b.SCN }
	older := func(e env) scn.SCN { return e.a.SCN }
	empty := func(e env) scn.SCN { return e.w }
	rewrite := func(t *testing.T, e env, at scn.SCN, double bool) {
		snap, err := checkpoint.Load(e.b.Path, e.resolve)
		if err != nil {
			t.Fatal(err)
		}
		images := snap.Images
		if double {
			images = append(images, images[0])
		}
		if _, err := checkpoint.Write(filepath.Dir(e.b.Path), checkpoint.Meta{SCN: at, Watermark: at, JournalSCN: at}, images); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name      string
		run       func(t *testing.T, e env) (scn.SCN, error)
		start     func(env) scn.SCN
		err       error
		restores  int64
		fallbacks int64
		// holdOlder pins a's SCN from its checkpoint on, as a reader would:
		// otherwise the repopulations after it may reclaim past it.
		holdOlder bool
	}{
		{name: "newest", start: newest, restores: 1,
			run: func(t *testing.T, e env) (scn.SCN, error) { return e.p.sby.InstallNewest(0, e.w) }},
		{name: "no file", start: empty, fallbacks: 1,
			run: func(t *testing.T, e env) (scn.SCN, error) {
				os.Remove(e.a.Path)
				os.Remove(e.b.Path)
				return e.p.sby.InstallNewest(0, e.w)
			}},
		{name: "corrupt newest, older used", start: older, restores: 1, holdOlder: true,
			run: func(t *testing.T, e env) (scn.SCN, error) {
				raw, err := os.ReadFile(e.b.Path)
				if err != nil {
					t.Fatal(err)
				}
				raw[len(raw)/2] ^= 0x40
				if err := os.WriteFile(e.b.Path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				return e.p.sby.InstallNewest(0, e.w)
			}},
		{name: "below the reclaim floor: pin refused", start: empty, fallbacks: 1,
			run: func(t *testing.T, e env) (scn.SCN, error) {
				rowstore.SnapshotsOf(e.p.sby.Txns()).Reclaim(e.w)
				return e.p.sby.InstallNewest(0, e.w)
			}},
		{name: "below the source's resume point - 1", start: empty, fallbacks: 1,
			run: func(t *testing.T, e env) (scn.SCN, error) { return e.p.sby.InstallNewest(e.b.SCN+2, e.w) }},
		{name: "above the limit", start: empty, fallbacks: 1,
			run: func(t *testing.T, e env) (scn.SCN, error) {
				rewrite(t, e, e.w+100, false)
				return e.p.sby.InstallNewest(0, e.w)
			}},
		{name: "overlapping image", start: empty, fallbacks: 1,
			run: func(t *testing.T, e env) (scn.SCN, error) {
				rewrite(t, e, e.w, true)
				return e.p.sby.InstallNewest(0, e.w)
			}},
		{name: "empty snapshot below the reclaim floor too", err: rowstore.ErrSnapshotTooOld, fallbacks: 1,
			run: func(t *testing.T, e env) (scn.SCN, error) {
				rowstore.SnapshotsOf(e.p.sby.Txns()).Reclaim(e.w + 1)
				return e.p.sby.InstallNewest(0, e.w)
			}},
		{name: "empty snapshot past the source too", err: standby.ErrArchiveWindow, fallbacks: 1,
			run: func(t *testing.T, e env) (scn.SCN, error) { return e.p.sby.InstallNewest(e.w+2, e.w) }},
		{name: "image fails validation", err: errAny,
			run: func(t *testing.T, e env) (scn.SCN, error) {
				err := standby.Install(imcs.NewStore(), rowstore.SnapshotsOf(e.p.sby.Txns()), e.w, []imcs.UnitImage{{}}, 0, e.w)
				return e.w, err
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, 1, standby.Config{SnapshotDir: t.TempDir(), SnapshotInterval: time.Hour, SnapshotRetain: 3}, "standby")
			e := env{p: p, resolve: func(obj rowstore.ObjID) *rowstore.Schema {
				if tbl, ok := p.sby.DB().TableForObj(obj); ok {
					return tbl.Schema()
				}
				return nil
			}}
			p.insert(t, 0, 200)
			p.catchUp(t)
			if !p.sby.Engine().WaitIdle(10 * time.Second) {
				t.Fatal("population did not settle")
			}
			snaps := rowstore.SnapshotsOf(p.sby.Txns())
			var err error
			for i, meta := range []*checkpoint.Meta{&e.a, &e.b} {
				p.insert(t, 200+int64(i)*50, 250+int64(i)*50)
				p.catchUp(t)
				if *meta, err = p.sby.CheckpointNow(); err != nil {
					t.Fatal(err)
				}
				if i == 0 && tc.holdOlder {
					if err := snaps.Pin(e.a.SCN); err != nil {
						t.Fatal(err)
					}
				}
			}
			p.insert(t, 300, 320)
			p.catchUp(t)
			e.w = p.sby.Stop()
			before := p.sby.CheckpointStats()
			start, err := tc.run(t, e)
			cs := p.sby.CheckpointStats()
			switch {
			case tc.err == errAny && err == nil, tc.err != errAny && !errors.Is(err, tc.err):
				t.Fatalf("error %v, want %v", err, tc.err)
			case tc.err == nil && start != tc.start(e):
				t.Fatalf("live at SCN %d, want %d (a=%d b=%d w=%d)", start, tc.start(e), e.a.SCN, e.b.SCN, e.w)
			case cs.Restores-before.Restores != tc.restores || cs.RestoreFallbacks-before.RestoreFallbacks != tc.fallbacks:
				t.Fatalf("restores +%d, fallbacks +%d; want +%d, +%d", cs.Restores-before.Restores,
					cs.RestoreFallbacks-before.RestoreFallbacks, tc.restores, tc.fallbacks)
			case tc.restores > 0 && (cs.LastRestoreSCN != uint64(start) || p.sby.Store().UnitsRestored() == 0):
				t.Fatalf("restored %d units from SCN %d, want units from %d", p.sby.Store().UnitsRestored(), cs.LastRestoreSCN, start)
			}
			if err == nil {
				snaps.Unpin(start) // the caller's to release
			}
			if tc.holdOlder {
				snaps.Unpin(e.a.SCN)
			}
			if h := e.w + 1000; snaps.Reclaim(h) != h {
				t.Fatalf("a pin stays below %d after the install", h)
			}
		})
	}
}

// errAny stands for any error in TestInstallRefusals.
var errAny = errors.New("any error")
