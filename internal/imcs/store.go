package imcs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
	"dbimadg/internal/txn"
)

// Store is one instance's In-Memory Column Store: the units (IMCU+SMU pairs)
// of every populated object hosted on this instance. With RAC, each instance
// holds only the units the home-location map assigns to it (§III.F).
type Store struct {
	mu   sync.RWMutex
	objs map[rowstore.ObjID]*objectUnits

	rowInvals    atomic.Int64 // row-level invalidations applied (slots)
	coarseInvals atomic.Int64 // units coarse-invalidated (object/tenant-wide)
	restored     atomic.Int64 // units installed from checkpoint images
}

type objectUnits struct {
	tenant rowstore.TenantID
	mu     sync.RWMutex
	units  []*Unit // sorted by StartBlk, non-overlapping
	dicts  objDicts
}

// NewStore returns an empty column store.
func NewStore() *Store {
	return &Store{objs: make(map[rowstore.ObjID]*objectUnits)}
}

func (s *Store) obj(obj rowstore.ObjID) (*objectUnits, bool) {
	s.mu.RLock()
	ou, ok := s.objs[obj]
	s.mu.RUnlock()
	return ou, ok
}

// CreateUnit installs a placeholder unit (SMU without IMCU) for a block range
// of an object, before the population snapshot is captured. It fails when the
// range overlaps an existing unit.
func (s *Store) CreateUnit(obj rowstore.ObjID, tenant rowstore.TenantID, startBlk, endBlk rowstore.BlockNo) (*Unit, error) {
	if endBlk <= startBlk {
		return nil, fmt.Errorf("imcs: empty block range [%d,%d)", startBlk, endBlk)
	}
	s.mu.Lock()
	ou, ok := s.objs[obj]
	if !ok {
		ou = &objectUnits{tenant: tenant}
		s.objs[obj] = ou
	}
	s.mu.Unlock()

	ou.mu.Lock()
	defer ou.mu.Unlock()
	for _, u := range ou.units {
		if startBlk < u.EndBlk && u.StartBlk < endBlk {
			return nil, fmt.Errorf("imcs: range [%d,%d) overlaps unit [%d,%d)", startBlk, endBlk, u.StartBlk, u.EndBlk)
		}
	}
	unit := &Unit{Obj: obj, Tenant: tenant, StartBlk: startBlk, EndBlk: endBlk}
	ou.units = append(ou.units, unit)
	sort.Slice(ou.units, func(i, j int) bool { return ou.units[i].StartBlk < ou.units[j].StartBlk })
	return unit, nil
}

// Units returns the object's units in block order (a snapshot; units may be
// concurrently invalidated but the slice is stable).
func (s *Store) Units(obj rowstore.ObjID) []*Unit {
	ou, ok := s.obj(obj)
	if !ok {
		return nil
	}
	ou.mu.RLock()
	defer ou.mu.RUnlock()
	out := make([]*Unit, len(ou.units))
	copy(out, ou.units)
	return out
}

// UnitForBlock returns the unit covering blk, if any.
func (s *Store) UnitForBlock(obj rowstore.ObjID, blk rowstore.BlockNo) (*Unit, bool) {
	ou, ok := s.obj(obj)
	if !ok {
		return nil, false
	}
	ou.mu.RLock()
	defer ou.mu.RUnlock()
	i := sort.Search(len(ou.units), func(i int) bool { return ou.units[i].EndBlk > blk })
	if i < len(ou.units) && ou.units[i].contains(blk) {
		return ou.units[i], true
	}
	return nil, false
}

// InvalidateRows marks rows of one block invalid in the covering unit (no-op
// when the block is not populated) without saying what changed.
func (s *Store) InvalidateRows(obj rowstore.ObjID, blk rowstore.BlockNo, slots []uint16) {
	s.Invalidate(obj, blk, slots, scn.Invalid, nil)
}

// OnCommit makes a primary's column store its transaction manager's DBIM hook
// (txn.DBIMHook; the paper's DBIM Transaction Manager, §II.B): at commit,
// under the commit gate, it invalidates every row the transaction changed.
func (s *Store) OnCommit(_ rowstore.TenantID, changes []txn.RowChange, _ scn.SCN) {
	for _, ch := range changes {
		s.InvalidateRows(ch.Obj, ch.DBA.Block(), []uint16{ch.Slot})
	}
}

// Invalidate marks rows of one block invalid in the covering unit for a
// transaction committed at SCN at; see Unit.Invalidate.
func (s *Store) Invalidate(obj rowstore.ObjID, blk rowstore.BlockNo, slots []uint16, at scn.SCN, patches []Patch) {
	if u, ok := s.UnitForBlock(obj, blk); ok {
		u.Invalidate(blk, slots, at, patches)
		s.rowInvals.Add(int64(len(slots)))
	}
}

// InvalidateObject coarse-invalidates every unit of an object.
func (s *Store) InvalidateObject(obj rowstore.ObjID) {
	for _, u := range s.Units(obj) {
		u.InvalidateAll()
		s.coarseInvals.Add(1)
	}
}

// InvalidateTenant coarse-invalidates every unit of every object of a tenant
// (paper §III.E: the restart fallback marks all IMCUs of the tenant invalid).
func (s *Store) InvalidateTenant(tenant rowstore.TenantID) int {
	s.mu.RLock()
	var objs []*objectUnits
	for _, ou := range s.objs {
		if ou.tenant == tenant {
			objs = append(objs, ou)
		}
	}
	s.mu.RUnlock()
	n := 0
	for _, ou := range objs {
		ou.mu.RLock()
		units := make([]*Unit, len(ou.units))
		copy(units, ou.units)
		ou.mu.RUnlock()
		for _, u := range units {
			u.InvalidateAll()
			n++
		}
	}
	s.coarseInvals.Add(int64(n))
	return n
}

// RowsInvalidated returns the total row slots invalidated via InvalidateRows.
func (s *Store) RowsInvalidated() int64 { return s.rowInvals.Load() }

// UnitsInvalidated returns the total units coarse-invalidated (object drop or
// tenant-wide fallback).
func (s *Store) UnitsInvalidated() int64 { return s.coarseInvals.Load() }

// DropObject removes all units of an object (DDL, §III.G). In-flight scans
// holding ScanViews complete against the dropped IMCUs safely (they are
// immutable); new scans fall back to the row store until repopulation.
func (s *Store) DropObject(obj rowstore.ObjID) int {
	s.mu.Lock()
	ou, ok := s.objs[obj]
	if ok {
		delete(s.objs, obj)
	}
	s.mu.Unlock()
	if !ok {
		return 0
	}
	ou.mu.Lock()
	defer ou.mu.Unlock()
	for _, u := range ou.units {
		u.Drop()
	}
	return len(ou.units)
}

// Objects returns the populated object ids.
func (s *Store) Objects() []rowstore.ObjID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]rowstore.ObjID, 0, len(s.objs))
	for obj := range s.objs {
		out = append(out, obj)
	}
	return out
}

// StoreStats aggregates per-store statistics.
type StoreStats struct {
	Objects        int
	Units          int
	PopulatedUnits int
	Rows           int
	InvalidRows    int
	MemBytes       int // IMCUs, their dictionaries (each once) and deltas
	// DeltaEntries, DeltaBytes and OpaqueRows sum the units' (see Stats).
	DeltaEntries int
	DeltaBytes   int
	OpaqueRows   int
}

// Stats returns aggregate statistics over all units.
func (s *Store) Stats() StoreStats {
	var st StoreStats
	s.mu.RLock()
	objs := make([]*objectUnits, 0, len(s.objs))
	for _, ou := range s.objs {
		objs = append(objs, ou)
	}
	s.mu.RUnlock()
	st.Objects = len(objs)
	seen := map[*Dict]bool{}
	for _, ou := range objs {
		ou.mu.RLock()
		units := make([]*Unit, len(ou.units))
		copy(units, ou.units)
		ou.mu.RUnlock()
		for _, u := range units {
			us := u.Stats()
			if imcu := u.image(); imcu != nil {
				for _, c := range imcu.strCols {
					if c != nil && !seen[c.dict] {
						seen[c.dict] = true
						st.MemBytes += c.dict.MemSize()
					}
				}
			}
			st.Units++
			if us.Populated {
				st.PopulatedUnits++
			}
			st.Rows += us.Rows
			st.InvalidRows += us.InvalidRows
			st.MemBytes += us.MemBytes
			st.DeltaEntries += us.DeltaEntries
			st.DeltaBytes += us.DeltaBytes
			st.OpaqueRows += us.OpaqueRows
		}
	}
	return st
}
