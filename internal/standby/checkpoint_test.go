package standby_test

import (
	"os"
	"testing"
	"time"

	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
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
