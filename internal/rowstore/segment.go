package rowstore

import (
	"sync"

	"dbimadg/internal/scn"
)

// Segment is the physical storage of one data object (a non-partitioned table
// or a single partition): an append-only array of multi-versioned blocks.
type Segment struct {
	obj          ObjID
	tenant       TenantID
	tableName    string
	partName     string
	rowsPerBlock int

	mu          sync.RWMutex
	blocks      []*Block
	allocCursor int // row slots used in the last block (primary-side insert allocation)
}

// NewSegment returns an empty segment for object obj.
func NewSegment(obj ObjID, tenant TenantID, tableName, partName string, rowsPerBlock int) *Segment {
	if rowsPerBlock <= 0 {
		panic("rowstore: rowsPerBlock must be positive")
	}
	return &Segment{
		obj:          obj,
		tenant:       tenant,
		tableName:    tableName,
		partName:     partName,
		rowsPerBlock: rowsPerBlock,
	}
}

// Obj returns the segment's data object id.
func (s *Segment) Obj() ObjID { return s.obj }

// Tenant returns the owning tenant.
func (s *Segment) Tenant() TenantID { return s.tenant }

// TableName returns the owning table's name.
func (s *Segment) TableName() string { return s.tableName }

// PartName returns the partition name ("" for non-partitioned tables).
func (s *Segment) PartName() string { return s.partName }

// RowsPerBlock returns the per-block row capacity.
func (s *Segment) RowsPerBlock() int { return s.rowsPerBlock }

// BlockCount returns the number of allocated blocks.
func (s *Segment) BlockCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blocks)
}

// Block returns block no, or nil when it has not been allocated.
func (s *Segment) Block(no BlockNo) *Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if int(no) >= len(s.blocks) {
		return nil
	}
	return s.blocks[no]
}

// BlockRange returns the allocated blocks of [from, to) under one segment
// latch; element i is block from+i. The slice is the segment's own (blocks are
// only ever appended) and must not be modified.
func (s *Segment) BlockRange(from, to BlockNo) []*Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	to = min(to, BlockNo(len(s.blocks)))
	if from >= to {
		return nil
	}
	return s.blocks[from:to]
}

// EnsureBlock returns block no, allocating it (and any gap before it) if
// needed. Used by standby redo apply, which must mirror the primary's block
// layout exactly.
func (s *Segment) EnsureBlock(no BlockNo) *Block {
	s.mu.Lock()
	defer s.mu.Unlock()
	for int(no) >= len(s.blocks) {
		s.blocks = append(s.blocks, NewBlock(MakeDBA(s.obj, BlockNo(len(s.blocks))), s.rowsPerBlock))
	}
	return s.blocks[no]
}

// AllocRowSlot reserves the next free row slot for an insert on the primary
// and returns its address. The reservation also advances the standby-visible
// high-water mark once the insert's change vector is applied there.
func (s *Segment) AllocRowSlot() RowID {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.blocks) == 0 || s.allocCursor >= s.rowsPerBlock {
		s.blocks = append(s.blocks, NewBlock(MakeDBA(s.obj, BlockNo(len(s.blocks))), s.rowsPerBlock))
		s.allocCursor = 0
	}
	blk := s.blocks[len(s.blocks)-1]
	slot := uint16(s.allocCursor)
	s.allocCursor++
	return RowID{DBA: blk.DBA(), Slot: slot}
}

// ResetAllocCursor positions insert allocation just past the rows the segment
// already holds. Redo apply lays blocks out with EnsureBlock and never touches
// the allocator, so a standby replica opened read-write at promotion must seal
// its applied contents first or AllocRowSlot would hand out occupied slots.
func (s *Segment) ResetAllocCursor() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.blocks) == 0 {
		s.allocCursor = 0
		return
	}
	s.allocCursor = s.blocks[len(s.blocks)-1].RowCount()
}

// ForEachBlock calls f for every allocated block in block-number order until f
// returns false. It snapshots the block list so apply/inserts can proceed
// concurrently; blocks allocated after the snapshot are not visited.
func (s *Segment) ForEachBlock(f func(*Block) bool) {
	s.mu.RLock()
	blocks := s.blocks
	s.mu.RUnlock()
	for _, b := range blocks {
		if !f(b) {
			return
		}
	}
}

// Scan performs a Consistent Read scan of every row visible at snap, invoking
// yield with each row id and image until yield returns false.
func (s *Segment) Scan(snap scn.SCN, view TxnView, yield func(RowID, Image) bool) {
	stop := false
	s.ForEachBlock(func(b *Block) bool {
		n := b.RowCount()
		for slot := 0; slot < n; slot++ {
			row, ok := b.ReadRow(uint16(slot), snap, view, scn.InvalidTxn)
			if !ok {
				continue
			}
			if !yield(RowID{DBA: b.DBA(), Slot: uint16(slot)}, row) {
				stop = true
				return false
			}
		}
		return true
	})
	_ = stop
}

// RowCountVisible counts rows visible at snap; a convenience for tests and
// verification scans.
func (s *Segment) RowCountVisible(snap scn.SCN, view TxnView) int {
	n := 0
	s.Scan(snap, view, func(RowID, Image) bool { n++; return true })
	return n
}

// Truncate discards all blocks (TRUNCATE DDL). Subsequent inserts start a new
// block layout; the standby mirrors this through a truncate change vector.
func (s *Segment) Truncate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blocks = nil
	s.allocCursor = 0
}
