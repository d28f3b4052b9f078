package rowstore

import (
	"errors"
	"math/rand"
	"testing"

	"dbimadg/internal/scn"
)

// TestReclaimProperty model-checks reclamation against an unreclaimed clone.
// Random histories — versions by transactions that commit, abort or stay
// active, deletes among them — are applied to two blocks alike; between
// transactions the first block is vacuumed at a horizon the registry hands out
// for a random request, with random snapshots pinned. Every pinned snapshot,
// and afterwards every snapshot of the history, must read on the reclaimed
// block exactly what it reads on the clone, or be refused with
// ErrSnapshotTooOld below the floor: never a different row, never a missing
// one.
func TestReclaimProperty(t *testing.T) {
	s := testSchema(t)
	rng := rand.New(rand.NewSource(7))
	const slots = 6
	for iter := 0; iter < 400; iter++ {
		tt := newFakeTxnTable()
		live, clone := NewBlock(MakeDBA(1, 0), slots), NewBlock(MakeDBA(1, 0), slots)
		var snaps Snapshots
		var pins []scn.SCN
		clock := scn.SCN(1)
		same := func(snap scn.SCN) {
			t.Helper()
			for slot := uint16(0); slot < slots; slot++ {
				got, gok := live.ReadRow(slot, snap, tt, scn.InvalidTxn)
				want, wok := clone.ReadRow(slot, snap, tt, scn.InvalidTxn)
				if gok != wok || got != want {
					t.Fatalf("iter %d: slot %d at snapshot %d (floor %d) reads %v/%v, the unreclaimed clone %v/%v",
						iter, slot, snap, snaps.Floor(), got.Num(1), gok, want.Num(1), wok)
				}
			}
		}
		for txn := scn.TxnID(1); txn <= 40; txn++ {
			tt.set(txn, TxnActive, scn.Invalid)
			for n := rng.Intn(3) + 1; n > 0; n-- {
				slot, del := uint16(rng.Intn(slots)), rng.Intn(6) == 0
				img := Image("")
				if !del {
					img = mkImg(s, int64(slot), int64(txn), "v")
				}
				live.ApplyVersion(slot, txn, img, del)
				clone.ApplyVersion(slot, txn, img, del)
			}
			switch rng.Intn(8) {
			case 0:
				tt.set(txn, TxnAborted, scn.Invalid)
			case 1: // stays active
			default:
				clock++
				tt.set(txn, TxnCommitted, clock)
			}
			if rng.Intn(3) == 0 {
				pins = append(pins, snaps.Floor()+scn.SCN(rng.Int63n(int64(clock-snaps.Floor())+1)))
				if err := snaps.Pin(pins[len(pins)-1]); err != nil {
					t.Fatalf("pin at or above the floor refused: %v", err)
				}
			}
			if rng.Intn(2) == 0 && len(pins) > 0 {
				i := rng.Intn(len(pins))
				snaps.Unpin(pins[i])
				pins = append(pins[:i], pins[i+1:]...)
			}
			h := snaps.Reclaim(scn.SCN(rng.Int63n(int64(clock) + 1)))
			for _, p := range pins {
				if h > p {
					t.Fatalf("iter %d: reclaim horizon %d above pin %d", iter, h, p)
				}
			}
			live.Vacuum(h, tt)
			for _, p := range pins {
				same(p)
			}
		}
		for snap := scn.SCN(0); snap <= clock+1; snap++ {
			if err := snaps.Pin(snap); err != nil {
				if !errors.Is(err, ErrSnapshotTooOld) || snap >= snaps.Floor() {
					t.Fatalf("iter %d: pin at %d (floor %d): %v", iter, snap, snaps.Floor(), err)
				}
				continue
			}
			same(snap)
			snaps.Unpin(snap)
		}
	}
}

// TestSnapshotsRegistry: a pin holds the floor down until it is released, a
// pin below the floor is refused, and a nil registry pins anything.
func TestSnapshotsRegistry(t *testing.T) {
	var s Snapshots
	if err := s.Pin(10); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(10); err != nil {
		t.Fatal(err)
	}
	if h := s.Reclaim(50); h != 10 {
		t.Fatalf("reclaim under a pin at 10 = %d", h)
	}
	s.Unpin(10)
	if h := s.Reclaim(50); h != 10 {
		t.Fatalf("reclaim with the second pin at 10 still held = %d", h)
	}
	s.Unpin(10)
	if h := s.Reclaim(50); h != 50 || s.Floor() != 50 {
		t.Fatalf("reclaim with no pin = %d, floor %d", h, s.Floor())
	}
	if h := s.Reclaim(20); h != 50 {
		t.Fatalf("the floor went back to %d", h)
	}
	if err := s.Pin(49); !errors.Is(err, ErrSnapshotTooOld) || s.Refused.Load() != 1 {
		t.Fatalf("pin below the floor: %v, %d refused", err, s.Refused.Load())
	}
	var none *Snapshots
	if err := none.Pin(0); err != nil || none.Floor() != scn.Invalid {
		t.Fatalf("nil registry: %v, floor %d", err, none.Floor())
	}
	none.Unpin(0)
}
