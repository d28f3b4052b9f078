package standby_test

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"dbimadg/internal/checkpoint"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
	"dbimadg/internal/standby"
	"dbimadg/internal/txn"
)

// TestRestartInterleavingProperty is the property-style test for invariant 6
// (DESIGN.md §6): for random interleavings of transactions around a standby
// restart — transactions that commit before the restart, transactions that
// span it (mined partially, so their flagged commits must coarse-invalidate),
// and transactions begun after it — the standby's hybrid IMCS scan at the
// caught-up QuerySCN always equals both a pure row-store CR scan and the
// primary's scan at the same snapshot. The checkpointed runs (#05 on) also
// check that restore is idempotent over Install (see runRestartInterleaving).
func TestRestartInterleavingProperty(t *testing.T) {
	for _, checkpointed := range []bool{false, true} {
		for _, seed := range []int64{1, 7, 42, 1234, 99991} {
			t.Run("", func(t *testing.T) {
				runRestartInterleaving(t, seed, checkpointed)
			})
		}
	}
}

// runRestartInterleaving runs one history. Checkpointed, the standby takes a
// checkpoint at three points of it — before the transactions, among them, and
// just before the restart, which then installs the last — and, once the
// history is over, restarts from each of them, newest first, with the newer
// files removed, and once from none. Each start replays the redo past its
// checkpoint onto a row store already past it, which is what Install's clamp
// assumes: after catch-up to the same QuerySCN the hybrid scan must equal the
// row-store CR scan and the primary's, and be the same from all four starts.
func runRestartInterleaving(t *testing.T, seed int64, checkpointed bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var cfg standby.Config
	if checkpointed {
		cfg = standby.Config{SnapshotDir: t.TempDir(), SnapshotInterval: time.Hour, SnapshotRetain: 3}
	}
	p := newPair(t, 1, cfg, "standby")
	const base = 150
	p.insert(t, 0, base)
	p.catchUp(t)
	if !p.sby.Engine().WaitIdle(10 * time.Second) {
		t.Fatal("population did not settle")
	}
	nextID := int64(base)
	var ckpts []checkpoint.Meta
	checkpointHere := func() {
		if !checkpointed {
			return
		}
		p.insert(t, nextID, nextID+5) // the checkpoint SCN moves past the last one
		nextID += 5
		p.catchUp(t)
		meta, err := p.sby.CheckpointNow()
		if err != nil {
			t.Fatal(err)
		}
		ckpts = append(ckpts, meta)
	}
	checkpointHere()
	if checkpointed {
		// A pin at the oldest checkpoint keeps the reclaim floor at or below
		// it, as it must be for Install to admit a restart from it.
		snaps := rowstore.SnapshotsOf(p.sby.Txns())
		if err := snaps.Pin(ckpts[0].SCN); err != nil {
			t.Fatal(err)
		}
		defer snaps.Unpin(ckpts[0].SCN)
	}

	// Each transaction owns a disjoint id range (no write-write conflicts) and
	// tags its updates with a distinct marker.
	const nTxns = 3
	s := p.tbl.Schema()
	type slot struct {
		tx        *txn.Txn
		idLo      int64
		marker    int64
		committed bool
		preOps    bool // made IMCS-relevant changes before the restart
	}
	slots := make([]*slot, nTxns)
	for k := 0; k < nTxns; k++ {
		slots[k] = &slot{tx: p.pri.Instance(0).Begin(), idLo: int64(k * 40), marker: 1000 + int64(k)}
	}

	mutate := func(sl *slot) {
		// A few updates in the slot's own id range plus an occasional insert.
		for j := 0; j < 1+rng.Intn(4); j++ {
			id := sl.idLo + rng.Int63n(40)
			if err := sl.tx.UpdateByID(p.tbl, id, []uint16{1}, func(r *rowstore.Row) {
				r.Nums[s.Col(1).Slot()] = sl.marker
			}); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Intn(2) == 0 {
			r := rowstore.NewRow(s)
			r.Nums[s.Col(0).Slot()] = nextID
			r.Nums[s.Col(1).Slot()] = sl.marker
			r.Strs[s.Col(2).Slot()] = colors[nextID%int64(len(colors))]
			nextID++
			if _, err := sl.tx.Insert(p.tbl, r); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Random pre-restart phase: interleaved mutations, some commits.
	spanners := 0
	for step := 0; step < 6; step++ {
		if step == 3 {
			checkpointHere()
		}
		sl := slots[rng.Intn(nTxns)]
		if sl.committed {
			continue
		}
		mutate(sl)
		sl.preOps = true
		if rng.Intn(3) == 0 {
			if _, err := sl.tx.Commit(); err != nil {
				t.Fatal(err)
			}
			sl.committed = true
		}
	}
	for _, sl := range slots {
		if !sl.committed && sl.preOps {
			spanners++
		}
	}

	// Catch up so the spanners' mined-so-far redo is below the checkpoint,
	// then restart: journal, commit table and IMCS are lost.
	p.catchUp(t)
	checkpointHere()
	p.restart(t)

	// Random post-restart phase: more mutations on the surviving transactions,
	// then every transaction commits (flagged; mined without their "begin").
	for step := 0; step < 4; step++ {
		sl := slots[rng.Intn(nTxns)]
		if sl.committed {
			continue
		}
		mutate(sl)
	}
	for _, sl := range slots {
		if !sl.committed {
			if _, err := sl.tx.Commit(); err != nil {
				t.Fatal(err)
			}
			sl.committed = true
		}
	}
	// A fresh fully-post-restart transaction must flush fine (no coarse).
	p.insert(t, nextID, nextID+20)
	nextID += 20

	p.catchUp(t)
	st := p.sby.Stats()
	if spanners > 0 && st.CoarseInvals == 0 {
		t.Fatalf("seed %d: %d transactions spanned the restart but no coarse invalidation fired: %+v",
			seed, spanners, st)
	}

	// The property: hybrid IMCS scan == pure row-store scan == primary scan,
	// at the caught-up QuerySCN, for the full table and for each marker.
	sTbl := p.sbyTable(t)
	snap := p.sby.QuerySCN()
	hybrid := scanengine.NewExecutor(p.sby.Txns(), p.sby.Store())
	rowOnly := scanengine.NewExecutor(p.sby.Txns())
	priEx := scanengine.NewExecutor(p.pri.Txns())
	if a, b := scanKey(t, hybrid, sTbl, snap), scanKey(t, rowOnly, sTbl, snap); a != b {
		t.Fatalf("seed %d: hybrid scan diverged from row-store CR scan:\nhybrid: %.160s\nrowstore: %.160s", seed, a, b)
	}
	if a, b := scanKey(t, hybrid, sTbl, snap), scanKey(t, priEx, p.tbl, snap); a != b {
		t.Fatalf("seed %d: standby diverged from primary:\nstandby: %.160s\nprimary: %.160s", seed, a, b)
	}
	for k := 0; k < nTxns; k++ {
		f := scanengine.EqNum(1, 1000+int64(k))
		if a, b := scanKey(t, hybrid, sTbl, snap, f), scanKey(t, priEx, p.tbl, snap, f); a != b {
			t.Fatalf("seed %d marker %d: standby diverged from primary:\nstandby: %.160s\nprimary: %.160s", seed, k, a, b)
		}
	}

	// Repopulation after the coarse fallback converges: scans return to the
	// IMCS once the engine settles.
	if !p.sby.Engine().WaitIdle(10 * time.Second) {
		t.Fatal("repopulation after restart did not settle")
	}
	res, err := hybrid.Run(&scanengine.Query{Table: sTbl}, p.sby.QuerySCN())
	if err != nil {
		t.Fatal(err)
	}
	if res.FromIMCS == 0 {
		t.Fatalf("seed %d: no rows served from the IMCS after repopulation", seed)
	}
	if !checkpointed {
		return
	}
	if len(ckpts) != 3 || p.sby.CheckpointStats().LastRestoreSCN != uint64(ckpts[2].SCN) {
		t.Fatalf("seed %d: checkpoints %v; the restart restored from %d, want the newest", seed, ckpts, p.sby.CheckpointStats().LastRestoreSCN)
	}
	var want string
	var wantSCN scn.SCN
	for kept := len(ckpts); kept >= 0; kept-- {
		for _, m := range ckpts[kept:] {
			if err := os.Remove(m.Path); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
		}
		before := p.sby.CheckpointStats()
		p.restart(t)
		p.catchUp(t)
		cs, q := p.sby.CheckpointStats(), p.sby.QuerySCN()
		if kept > 0 && (cs.Restores != before.Restores+1 || cs.LastRestoreSCN != uint64(ckpts[kept-1].SCN) || cs.UnitsRestored == 0) {
			t.Fatalf("seed %d: restart with %d checkpoints restored from %d (%+v), want %d", seed, kept, cs.LastRestoreSCN, cs, ckpts[kept-1].SCN)
		}
		if kept == 0 && cs.RestoreFallbacks != before.RestoreFallbacks+1 {
			t.Fatalf("seed %d: restart with no checkpoint did not fall back: %+v", seed, cs)
		}
		hybrid := scanengine.NewExecutor(p.sby.Txns(), p.sby.Store())
		got := scanKey(t, hybrid, sTbl, q)
		if row := scanKey(t, rowOnly, sTbl, q); got != row {
			t.Fatalf("seed %d, %d checkpoints: hybrid scan diverged from row-store CR scan:\nhybrid: %.160s\nrowstore: %.160s", seed, kept, got, row)
		}
		if pri := scanKey(t, priEx, p.tbl, q); got != pri {
			t.Fatalf("seed %d, %d checkpoints: standby diverged from primary:\nstandby: %.160s\nprimary: %.160s", seed, kept, got, pri)
		}
		if want == "" {
			want, wantSCN = got, q
		} else if q != wantSCN || got != want {
			t.Fatalf("seed %d: the start from %d checkpoints caught up to %d with\n%.160s\nthe start from all to %d with\n%.160s", seed, kept, q, got, wantSCN, want)
		}
	}
}
