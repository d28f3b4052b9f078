package standby_test

import (
	"math/rand"
	"testing"
	"time"

	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/standby"
	"dbimadg/internal/transport"
	"dbimadg/internal/txn"
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

// TestRestartInterleavingProperty is the property-style test for invariant 6
// (DESIGN.md §6): for random interleavings of transactions around a standby
// restart — transactions that commit before the restart, transactions that
// span it (mined partially, so their flagged commits must coarse-invalidate),
// and transactions begun after it — the standby's hybrid IMCS scan at the
// caught-up QuerySCN always equals both a pure row-store CR scan and the
// primary's scan at the same snapshot.
func TestRestartInterleavingProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234, 99991} {
		t.Run("", func(t *testing.T) {
			runRestartInterleaving(t, seed)
		})
	}
}

// runRestartInterleaving runs one history.
func runRestartInterleaving(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := newPair(t, 1, standby.Config{}, "standby")
	const base = 150
	p.insert(t, 0, base)
	p.catchUp(t)
	if !p.sby.Engine().WaitIdle(10 * time.Second) {
		t.Fatal("population did not settle")
	}
	nextID := int64(base)
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

	// Catch up so the spanners' mined-so-far redo is below the restart's
	// resume point, then restart: journal, commit table and IMCS are lost.
	p.catchUp(t)
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
}
