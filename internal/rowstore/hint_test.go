package rowstore

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dbimadg/internal/scn"
)

// Tests of the commit-SCN hint a reader leaves on a row version (see
// version.commit): it may never change what a Consistent Read returns.

// readRowNoHint is ReadRow as it was before the hint: every version's writer
// is looked up in the transaction table.
func readRowNoHint(b *Block, slot uint16, snap scn.SCN, view TxnView) (Image, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if int(slot) >= len(b.rows) {
		return "", false
	}
	for v := b.rows[slot]; v != nil; v = v.next {
		status, commitSCN := statusOf(view, v.txn)
		if status != TxnCommitted || commitSCN == scn.Invalid || commitSCN > snap {
			continue
		}
		return v.img, !v.deleted
	}
	return "", false
}

// checkHints fails unless every hint in the block is the commitSCN the table
// holds for the version's writer — so none sits on an active, aborted or
// unknown writer's version. Frozen versions (Vacuum) keep whatever a reader
// left on them, or get the frozen SCN.
func checkHints(t *testing.T, b *Block, view TxnView) (hinted int) {
	t.Helper()
	b.mu.RLock()
	defer b.mu.RUnlock()
	for slot, head := range b.rows {
		for v := head; v != nil; v = v.next {
			c := scn.SCN(v.commit.Load())
			if c == scn.Invalid {
				continue
			}
			hinted++
			if v.txn == scn.FrozenTxn {
				continue
			}
			if st, want := view.Lookup(v.txn); st != TxnCommitted || want != c {
				t.Fatalf("slot %d: version of txn %d carries hint %d, table says status %v commitSCN %d", slot, v.txn, c, st, want)
			}
		}
	}
	return hinted
}

// TestCommitHintProperty runs random histories — inserts, updates building
// chains several versions deep, deletes, aborts, transactions left in flight
// and rolled back at the end as a failover's RollbackInFlight does — with
// readers racing the commits, each reader at a snapshot the writer has
// published (as a QuerySCN is: every commit at or below it is in the table).
// Whatever a reader sees through the hint it must see without it; a hint only
// ever sits on a committed writer's version and survives Vacuum's freezing.
// Run under -race (make race): readers store hints under the shared latch.
func TestCommitHintProperty(t *testing.T) {
	const slots, readers = 48, 4
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := testSchema(t)
		b := NewBlock(MakeDBA(1, 0), slots)
		view := newFakeTxnTable()
		var published atomic.Uint64 // newest commitSCN recorded in the table
		var clock scn.SCN = 1
		nextTxn := scn.TxnID(1)

		// Base rows, committed before any reader starts.
		view.set(nextTxn, TxnActive, scn.Invalid)
		for slot := 0; slot < slots/2; slot++ {
			if err := b.Insert(uint16(slot), nextTxn, mkImg(s, int64(slot), 0, "base")); err != nil {
				t.Fatal(err)
			}
		}
		clock++
		view.set(nextTxn, TxnCommitted, clock)
		published.Store(uint64(clock))
		nextTxn++

		stop := make(chan struct{})
		var reads atomic.Int64 // reader passes over the block so far
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rows, ok := make([]Image, slots), make([]bool, slots)
				got, at := make([]Image, slots), make([]uint16, slots) // ReadRows' visible images and their slots
				all := make([]uint16, slots)
				for i := range all {
					all[i] = uint16(i)
				}
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					// Newest snapshot, or an older one: a commit above it is
					// hinted all the same and must stay invisible.
					snap := scn.SCN(published.Load())
					if i%3 == r%3 && snap > 2 {
						snap -= scn.SCN(1 + i%int(snap-2))
					}
					// The slots listed, the range from a slot on, or one by one.
					if i%3 == 2 {
						for j := range all {
							rows[j], ok[j] = b.ReadRow(uint16(j), snap, view, scn.InvalidTxn)
						}
					} else {
						list, from := all[:i%slots], uint16(i%slots)
						if i%3 == 0 {
							list, from = all, slots
						}
						clear(rows)
						clear(ok)
						n := b.ReadRows(list, from, snap, view, scn.InvalidTxn, got, at)
						for j := 0; j < n; j++ {
							rows[at[j]], ok[at[j]] = got[j], true
						}
					}
					for j := range all {
						want, wantOK := readRowNoHint(b, uint16(j), snap, view)
						if ok[j] != wantOK || (wantOK && rows[j] != want) {
							t.Errorf("seed %d slot %d at snapshot %d: with the hint (%v, %v), without (%v, %v)",
								seed, j, snap, rows[j], ok[j], want, wantOK)
							return
						}
					}
					reads.Add(1)
				}
			}(r)
		}

		used := slots / 2 // slots holding a row
		var inFlight []scn.TxnID
		for step := 0; step < 400; step++ {
			for reads.Load() < int64(step) && !t.Failed() { // keep the readers in the race
				runtime.Gosched()
			}
			id := nextTxn
			nextTxn++
			view.set(id, TxnActive, scn.Invalid)
			for k := 0; k < 1+rng.Intn(3); k++ {
				switch op := rng.Intn(10); {
				case op == 0 && used < slots:
					if err := b.Insert(uint16(used), id, mkImg(s, int64(used), int64(step), "new")); err != nil {
						t.Fatal(err)
					}
					used++
				case op == 1:
					_ = b.Delete(uint16(rng.Intn(used)), id, view) // ErrRowLocked: another writer's row
				default:
					// ErrRowLocked, or ErrRowDeleted: nothing is written.
					_, _ = b.Update(uint16(rng.Intn(used)), id, view, new(Row), nil, nil, func(r *Row) { r.Nums[1] = int64(step) })
				}
			}
			switch end := rng.Intn(10); {
			case end == 0:
				view.set(id, TxnAborted, scn.Invalid)
			case end == 1:
				inFlight = append(inFlight, id)
			default:
				clock++
				view.set(id, TxnCommitted, clock)
				published.Store(uint64(clock))
			}
		}
		// Failover: whatever is still in flight is rolled back.
		for _, id := range inFlight {
			view.set(id, TxnAborted, scn.Invalid)
		}
		close(stop)
		wg.Wait()
		if t.Failed() {
			return
		}

		if checkHints(t, b, view) == 0 {
			t.Fatalf("seed %d: the readers left no hint", seed)
		}
		deepest := 0
		for slot := 0; slot < used; slot++ {
			deepest = max(deepest, b.ChainLen(uint16(slot)))
		}
		if deepest < 3 {
			t.Fatalf("seed %d: deepest chain %d, want >= 3", seed, deepest)
		}

		// Vacuum freezes the retained tails; their hints stay, and a reader at or
		// above the horizon sees what it saw.
		horizon := clock - 5
		before := make([]Image, used)
		beforeOK := make([]bool, used)
		for slot := range before {
			before[slot], beforeOK[slot] = b.ReadRow(uint16(slot), clock, view, scn.InvalidTxn)
		}
		b.Vacuum(horizon, view)
		checkHints(t, b, view)
		for slot := range before {
			for _, snap := range []scn.SCN{horizon, clock} {
				got, ok := b.ReadRow(uint16(slot), snap, view, scn.InvalidTxn)
				want, wantOK := readRowNoHint(b, uint16(slot), snap, view)
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("seed %d slot %d at %d after vacuum: with the hint (%v, %v), without (%v, %v)", seed, slot, snap, got, ok, want, wantOK)
				}
			}
			if got, ok := b.ReadRow(uint16(slot), clock, view, scn.InvalidTxn); ok != beforeOK[slot] || (ok && got != before[slot]) {
				t.Fatalf("seed %d slot %d: vacuum changed the newest image", seed, slot)
			}
		}
	}
}
