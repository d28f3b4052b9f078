package rowstore

import (
	"errors"
	"sync"
	"sync/atomic"

	"dbimadg/internal/scn"
)

// ErrSnapshotTooOld refuses a read below the reclaim floor (Oracle's
// ORA-01555): versions it needs may be gone, and the chains would answer it
// wrong.
var ErrSnapshotTooOld = errors.New("rowstore: snapshot too old")

// Snapshots registers the snapshots the readers of one row store hold, kept
// beside the transaction table they all hold (SnapshotsOf), and the floor
// below which its versions may have been reclaimed. A reclaimer vacuums only
// at horizons Reclaim hands out: never above a pin, and never one a later pin
// can undercut, for a pin below the floor fails. The zero value is ready; a
// nil *Snapshots pins anything and has floor 0.
type Snapshots struct {
	mu    sync.Mutex
	pins  map[scn.SCN]int
	floor scn.SCN
	// Refused counts the pins refused with ErrSnapshotTooOld.
	Refused atomic.Int64
}

// SnapshotsOf returns the registry view keeps beside it, nil if none.
func SnapshotsOf(view TxnView) *Snapshots {
	if k, ok := view.(interface{ Snapshots() *Snapshots }); ok {
		return k.Snapshots()
	}
	return nil
}

// Pin registers a reader at snap, or fails with ErrSnapshotTooOld below the
// floor. Each Pin that succeeds is matched by one Unpin.
func (s *Snapshots) Pin(snap scn.SCN) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap < s.floor {
		s.Refused.Add(1)
		return ErrSnapshotTooOld
	}
	if s.pins == nil {
		s.pins = make(map[scn.SCN]int)
	}
	s.pins[snap]++
	return nil
}

// Unpin ends one reader's Pin at snap.
func (s *Snapshots) Unpin(snap scn.SCN) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pins[snap]--; s.pins[snap] <= 0 {
		delete(s.pins, snap)
	}
}

// Reclaim returns the horizon a reclaimer asking for h may vacuum at: h
// lowered to the oldest pin, and no lower than the floor it raises to it.
func (s *Snapshots) Reclaim(h scn.SCN) scn.SCN {
	s.mu.Lock()
	defer s.mu.Unlock()
	for p := range s.pins {
		h = min(h, p)
	}
	s.floor = max(s.floor, h)
	return s.floor
}

// Floor returns the lowest snapshot a read may still pin.
func (s *Snapshots) Floor() scn.SCN {
	if s == nil {
		return scn.Invalid
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.floor
}
